import json
import math

import numpy as np
import pytest

from gaborglp import SupportEnumeration, verify_glp
from gaborglp.backends import embedding_primes
from gaborglp.windows import (
    UnsupportedDimensionError,
    euler_phi,
    load_window,
    ones_window,
    ones_window_exact,
    power_window_generic,
    power_window_root_of_unity,
    power_window_root_of_unity_float,
    random_window,
    save_window,
    window_from_dict,
    window_to_dict,
    zeta_order,
)


def test_construction_n4(exact_window_4):
    w = exact_window_4
    ctx = w.backend.context
    assert ctx.order == 324  # lcm(4, 81)
    zeta = pow(ctx.root, 324 // 81, ctx.prime)
    expected = [pow(zeta, j * j, ctx.prime) for j in range(4)]
    assert list(w.entries) == expected
    assert list(w.exponents) == [4 * (j * j % 81) % 324 for j in range(4)]
    assert w.kind == "constructed"


def test_construction_n5(exact_window_5):
    ctx = exact_window_5.backend.context
    assert ctx.order == 1280  # lcm(5, 256)
    step = 1280 // 256
    assert [int(e) // step for e in exact_window_5.exponents] == [0, 1, 4, 9, 16]


def test_degree_check_n4():
    # φ((N-1)⁴) = (N-1)³·φ(N-1): 54 = 27·2 for N = 4
    assert euler_phi(81) == 54
    assert 54 == 27 * euler_phi(3)
    assert euler_phi(81) > 4 * 9  # exceeds N(N-1)², the certification threshold


def test_gcd_coprimality():
    for n in range(4, 12):
        assert math.gcd(n, zeta_order(n)) == 1


def test_unsupported_dimension():
    for n in (1, 2, 3):
        with pytest.raises(UnsupportedDimensionError):
            power_window_root_of_unity(n)
        with pytest.raises(UnsupportedDimensionError):
            power_window_root_of_unity_float(n)


def test_unimodularity_of_float_image():
    for n in (4, 5, 6):
        w = power_window_root_of_unity_float(n)
        assert np.allclose(np.abs(w.entries).astype(float), 1.0, atol=1e-15)


def test_exact_entries_unimodular():
    w = power_window_root_of_unity(4)
    p = w.backend.prime
    for e in w.entries:
        assert pow(int(e), 324, p) == 1  # entries are roots of unity mod p


@pytest.mark.parametrize("n", [4, 5])
def test_exact_float_consistency(n, exact_window_4, exact_window_5, float_window_4, float_window_5):
    exact = {4: exact_window_4, 5: exact_window_5}[n]
    flt = {4: float_window_4, 5: float_window_5}[n]
    enum = SupportEnumeration(n, "exhaustive")
    r_exact = verify_glp(exact, enum)
    r_float = verify_glp(flt, enum)
    assert not len(r_exact.dependent) and not len(r_float.dependent)
    assert r_exact.supports_tested == r_float.supports_tested == math.comb(n * n, n)


def test_generic_power_window():
    w = power_window_generic(3, 1.0)
    assert np.allclose(w.entries.astype(complex), [1, 1, 1])
    w2 = power_window_generic(2, 2.0)
    assert np.allclose(w2.entries.astype(complex), [1, 2])
    with pytest.raises(ValueError):
        power_window_generic(3, 0.0)


def test_pi_window_passes_float_glp():
    w = power_window_generic(4, math.pi)
    report = verify_glp(w, SupportEnumeration(4, "exhaustive"))
    assert not len(report.dependent)


def test_random_window_determinism():
    a = random_window(6, 123)
    b = random_window(6, 123)
    c = random_window(6, 124)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)
    assert a.seed == 123 and a.kind == "random"


def test_random_window_n1_trivially_glp():
    w = random_window(1, 0)
    report = verify_glp(w, SupportEnumeration(1, "exhaustive"))
    assert report.supports_tested == 1 and not len(report.dependent)


def test_serialization_roundtrip_exact(tmp_path, exact_window_4):
    path = tmp_path / "w.json"
    save_window(exact_window_4, path)
    loaded = load_window(path)
    assert loaded.backend.kind == "exact"
    assert loaded.backend.context == exact_window_4.backend.context
    assert np.array_equal(loaded.entries, exact_window_4.entries)
    assert np.array_equal(loaded.exponents, exact_window_4.exponents)
    assert loaded.kind == "constructed"


def test_serialization_roundtrip_float(tmp_path):
    w = random_window(5, 9)
    path = tmp_path / "w.json"
    save_window(w, path)
    loaded = load_window(path)
    assert loaded.backend.kind == "float"
    assert np.allclose(loaded.entries.astype(complex), w.entries.astype(complex), atol=1e-15)
    assert loaded.seed == 9


def test_serialization_exact_without_exponents():
    ctx = embedding_primes(4, 1, 8)[0]
    data = {
        "n": 2,
        "kind": "user",
        "backend": "exact",
        "context": {"order": ctx.order, "prime": ctx.prime, "root": ctx.root},
        "entries": [1, 2],
    }
    w = window_from_dict(data)
    assert list(w.entries) == [1, 2]
    assert window_to_dict(w)["entries"] == [1, 2]


@pytest.mark.parametrize(
    "field, value",
    [
        ("exponents", [0.5, 4.5, 16.5, 36.5]),  # once rounded down and certified
        ("exponents", [0.0, 4.0, 16.0, 36.0]),
        ("exponents", ["0", "4", "16", "36"]),
        ("exponents", [False, True, True, True]),
        ("exponents", 4),
        ("entries", [1.0, 2.0, 3.0, 4.0]),
        ("entries", ["1", "2", "3", "4"]),
        ("context", {"order": 324.0, "prime": 1049437, "root": 521220}),
        ("context", {"order": 324, "prime": "1049437", "root": 521220}),
        ("context", {"order": True, "prime": 2, "root": True}),
        ("n", 7),
        ("n", 3),
        ("n", 4.0),
        ("n", "4"),
        ("float n", 3),
        ("seed", "0"),
        ("seed", True),
        ("seed", 0.5),
        ("float seed", "0"),
        ("float entries", [[True, False], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]),
        ("float entries", [["1", 0.0], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]),
        ("float entries", [[1.0], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]),
        ("float entries", [1.0, 0.5, 1.0, 0.0]),
        ("float entries", {"re": [1.0], "im": [0.0]}),
    ],
)
def test_window_from_dict_refuses_non_integers_and_a_wrong_n(tmp_path, field, value):
    data = window_to_dict(power_window_root_of_unity(4))
    assert data["exponents"] == [0, 4, 16, 36]
    if field == "entries":
        del data["exponents"]
    if field.startswith("float "):  # a float window of 4 entries
        data, field = window_to_dict(random_window(4, 0)), field.removeprefix("float ")
    data[field] = value
    with pytest.raises(ValueError, match=repr(field)):
        window_from_dict(data)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=repr(field)):
        load_window(path)


def test_ones_windows():
    w = ones_window(3)
    assert np.allclose(w.entries.astype(complex), 1.0)
    we = ones_window_exact(2)
    assert list(we.entries) == [1, 1]
    assert we.exponents is not None
