import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborglp import cli, codec, monomials
from gaborglp.backends import COMPLEX_DTYPE, FloatBackend, ResidueBackend, embedding_primes
from gaborglp.operators import (
    Window,
    frame_operator_defect,
    full_support,
    gabor_indices,
    gabor_matrix,
    modulate,
    stft,
    system_matrix,
    tf_shift,
    translate,
)
from gaborglp.windows import power_window_root_of_unity, random_window

FB = FloatBackend()


def cvec(*entries):
    return np.array(entries, dtype=COMPLEX_DTYPE)


def test_translate_examples():
    assert list(translate(np.array([1, 2, 3]), 1)) == [3, 1, 2]
    assert list(translate(np.array([1, 2, 3]), 0)) == [1, 2, 3]
    assert list(translate(np.array([1, 2]), 1)) == [2, 1]


def test_modulate_examples():
    out = modulate(cvec(5, 7), 1, FB)
    assert np.allclose(out.astype(complex), [5, -7])
    x = cvec(1, 2, 3)
    assert np.allclose(modulate(x, 0, FB).astype(complex), [1, 2, 3])
    om = np.exp(2j * np.pi / 3)
    assert np.allclose(modulate(cvec(1, 1, 1), 1, FB).astype(complex), [1, om, om**2], atol=1e-15)


def test_tf_shift_examples():
    out = tf_shift(cvec(1, 2), (1, 1), FB)
    assert np.allclose(out.astype(complex), [2, -1])
    x = cvec(3, 1, 4)
    assert np.allclose(tf_shift(x, (0, 0), FB).astype(complex), x.astype(complex))
    om = np.exp(2j * np.pi / 3)
    out = tf_shift(cvec(1, 0, 0), (1, 2), FB)
    assert np.allclose(out.astype(complex), [0, om**2, 0], atol=1e-15)


def test_gabor_matrix_example_n2():
    w = Window(cvec(1, 2), FB)
    system = gabor_matrix(w, [(0, 0), (0, 1), (1, 0), (1, 1)])
    expected = np.array([[1, 1, 2, 2], [2, -2, 1, -1]], dtype=complex)
    assert np.allclose(system.astype(complex), expected)


@pytest.mark.parametrize("backend", ["float", "exact", "exact-wide"])
def test_gabor_matrix_equals_column_by_column_shifts(backend):
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 6):
        if backend == "float":
            b = FB
            entries = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        else:
            b = ResidueBackend(embedding_primes(n, 1, 33 if backend == "exact-wide" else 20)[0])
            entries = rng.integers(1, b.prime, size=n)
        w = Window(entries, b)
        cells = [(k, l) for k in range(n) for l in range(n)]
        for _ in range(4):
            support = [cells[i] for i in rng.permutation(n * n)[: int(rng.integers(1, n * n + 1))]]
            ours = gabor_matrix(w, support)
            cols = np.stack([tf_shift(w.entries, idx, b) for idx in support], axis=1)
            assert ours.dtype == cols.dtype
            assert np.array_equal(ours, cols)


def test_gabor_matrix_single_column_and_duplicates():
    w = Window(cvec(1, 2, 3), FB)
    system = gabor_matrix(w, [(0, 0)])
    assert np.allclose(system[:, 0].astype(complex), [1, 2, 3])
    with pytest.raises(ValueError):
        gabor_matrix(w, [(0, 0), (0, 0), (1, 0)])
    with pytest.raises(ValueError):
        gabor_matrix(w, [])


def test_translating_constant_window_gives_equal_columns():
    w = Window(cvec(1, 1), FB)
    system = gabor_matrix(w, [(0, 0), (1, 0)])
    assert np.allclose(system[:, 0].astype(complex), system[:, 1].astype(complex))


def test_commutation_relation():
    # M T x == ω · T M x entrywise, for all N ≤ 8
    rng = np.random.default_rng(0)
    for n in range(1, 9):
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(COMPLEX_DTYPE)
        lhs = modulate(translate(x, 1), 1, FB)
        om = FB.omega_table(n)[1 % n]
        rhs = om * translate(modulate(x, 1, FB), 1)
        assert np.allclose(lhs.astype(complex), rhs.astype(complex), atol=1e-14)


def test_commutation_relation_exact():
    ctx = embedding_primes(6, 1, 8)[0]
    backend = ResidueBackend(ctx)
    rng = np.random.default_rng(1)
    x = rng.integers(0, ctx.prime, size=6).astype(np.int64)
    lhs = modulate(translate(x, 1), 1, backend)
    om = int(backend.omega_table(6)[1])
    rhs = translate(modulate(x, 1, backend), 1) * om % ctx.prime
    assert np.array_equal(lhs, rhs)


def test_group_law_phase():
    # π(κ₂,λ₂)π(κ₁,λ₁) = ω^(-κ₂λ₁) π(κ₁+κ₂, λ₁+λ₂); in particular the
    # composition equals a power of ω times a single shift.
    rng = np.random.default_rng(2)
    for n in range(1, 7):
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(COMPLEX_DTYPE)
        om = FB.omega_table(n)
        for k1 in range(n):
            for l1 in range(n):
                for k2 in range(n):
                    for l2 in range(n):
                        lhs = tf_shift(tf_shift(x, (k1, l1), FB), (k2, l2), FB)
                        s = (-k2 * l1) % n
                        rhs = om[s] * tf_shift(x, ((k1 + k2) % n, (l1 + l2) % n), FB)
                        assert np.allclose(lhs.astype(complex), rhs.astype(complex), atol=1e-13)


@given(st.integers(2, 10), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_unitarity(n, seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(COMPLEX_DTYPE)
    norm = np.sqrt((np.abs(x) ** 2).sum())
    k, l = int(rng.integers(n)), int(rng.integers(n))
    for y in (translate(x, k), modulate(x, l, FB), tf_shift(x, (k, l), FB)):
        assert abs(float(np.sqrt((np.abs(y) ** 2).sum()) - norm)) < 1e-12 * float(norm)


def test_stft_examples():
    w = Window(cvec(1, 0), FB)
    v = stft(cvec(1, 0), w)
    assert np.allclose(v.astype(complex), [[1, 1], [0, 0]], atol=1e-15)
    # ⟨w, w⟩ at (0,0) is the squared norm, real and positive
    w2 = Window(cvec(1, 2, 3), FB)
    v2 = stft(w2.entries, w2)
    assert abs(complex(v2[0, 0]) - 14) < 1e-12


def test_stft_dimension_mismatch():
    w = Window(cvec(1, 0), FB)
    with pytest.raises(ValueError):
        stft(cvec(1, 0, 0), w)


def test_stft_zero_count_bound_small():
    # a GLP window leaves at most N-1 zeros for nonzero f (here N=2)
    w = Window(cvec(1, 2), FB)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = stft(f, w).astype(complex).ravel()
        zeros = int((np.abs(v) <= 1e-8 * np.sqrt(float((np.abs(f) ** 2).sum() * 5))).sum())
        assert zeros <= 1


def test_stft_exact_backend(exact_window_4):
    w = exact_window_4
    p = w.backend.prime
    v = stft(w.entries, w)
    assert v[0, 0] == 4 % p  # ⟨w,w⟩ = N for a unimodular window
    # exact entries agree with the float image pattern of zeros (none here)
    assert v.shape == (4, 4)
    # against the scalar loop ⟨f, π(κ,λ)w⟩ = Σ_j f_j·conj(G[j, κN+λ]), conj = inverse
    for w in (exact_window_4, power_window_root_of_unity(4, 40)):
        p = w.backend.prime
        G = system_matrix(w)
        f = np.random.default_rng(1).integers(0, p, size=4)
        want = [
            [sum(int(f[j]) * pow(int(G[j, 4 * k + l]), p - 2, p) for j in range(4)) % p for l in range(4)]
            for k in range(4)
        ]
        assert stft(f, w).tolist() == want


def test_stft_exact_requires_unimodular():
    ctx = embedding_primes(4, 1, 8)[0]
    w = Window(np.array([1, 2, 3, 4]), ResidueBackend(ctx))
    with pytest.raises(ValueError):
        stft(np.array([1, 0, 0, 0]), w)


def test_exact_values_refuse_non_integers(exact_window_4):
    # an int64 cast would truncate a float, take a bool for 0 or 1 and drop an imaginary part
    w = exact_window_4
    for entries in ([1.5, 2.7, 3, 4], [True, False, True, 1], np.ones(4)):
        with pytest.raises(ValueError, match="'entries' must be a vector of integers"):
            Window(entries, w.backend)
    with pytest.raises(ValueError, match="'exponents' must be a vector of integers"):
        Window.from_exponents(w.backend.context, [0.5, 4.9, 16, 36], "user", None)
    for f in ([1.5, 0, 0, 0], [1 + 2j, 0, 0, 0], np.zeros(4)):
        with pytest.raises(ValueError, match="'f' must be a vector of integers"):
            stft(f, w)


def test_exact_values_take_any_integers(exact_window_4):
    # Python ints, signed and unsigned arrays, negative values and values ≥ p agree mod p
    w = exact_window_4
    ctx, p = w.backend.context, w.backend.prime
    f = [1, 0, p - 1, 0]
    want = stft(f, w).tolist()
    arrays = [np.array(f), np.array(f, dtype=np.uint64)]
    for same in arrays + [[1 + p, 0, -1, 0], [np.int32(1), 0, -p - 1, 0]]:
        assert stft(same, w).tolist() == want
    for entries in (w.entries.tolist(), w.entries.astype(np.uint64), w.entries - p, w.entries + p):
        assert Window(entries, w.backend).entries.tolist() == w.entries.tolist()
    for exponents in (w.exponents.tolist(), w.exponents.astype(np.uint16), w.exponents - ctx.order):
        same = Window.from_exponents(ctx, exponents, "user", None)
        assert same.entries.tolist() == w.entries.tolist()


def test_frame_operator_defect_examples():
    w = Window(cvec(1, 0), FB)
    assert frame_operator_defect(w) < 1e-15
    w2 = Window(cvec(1, 2), FB)
    # S = N‖w‖² I = 10·I exactly
    G = system_matrix(w2)
    S = (G @ G.conj().T).astype(complex)
    assert np.allclose(S, 10 * np.eye(2), atol=1e-12)
    assert frame_operator_defect(w2) < 1e-12
    w1 = Window(cvec(2.5), FB)
    assert frame_operator_defect(w1) < 1e-15


def test_frame_operator_defect_random():
    for n in range(2, 13, 3):
        w = random_window(n, seed=100 + n)
        norm2 = float((np.abs(w.entries) ** 2).sum())
        assert frame_operator_defect(w) <= 1e-12 * n * norm2


def test_window_validation():
    with pytest.raises(ValueError):
        Window(np.zeros(3, dtype=complex), FB)
    with pytest.raises(ValueError):
        Window(np.zeros((2, 2), dtype=complex), FB)


def test_full_support_lexicographic():
    assert full_support(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# the support rule: every entry point refuses a support that is not N
# distinct cells mod N (those that take any count refuse repeated cells)
# ---------------------------------------------------------------------------

BAD_SUPPORTS = {
    "short": [(0, 0), (0, 1)],
    "long": [(0, 0), (0, 1), (1, 0), (2, 2)],
    "duplicate": [(0, 0), (0, 1), (0, 1)],
    "duplicate-mod-n": [(0, 0), (0, 1), (3, 1)],
}


# entry point -> (call on a support at N = 3, the bad supports it refuses)
SUPPORT_ENTRY_POINTS = {
    "gabor_indices": (lambda s: gabor_indices(s, 3), ["duplicate", "duplicate-mod-n"]),
    "profile_of_support": (lambda s: monomials.profile_of_support(s, 3), list(BAD_SUPPORTS)),
    "normalize_support": (lambda s: monomials.normalize_support(s, 3), list(BAD_SUPPORTS)),
    "ci_coefficient": (lambda s: monomials.ci_coefficient(s, 3), list(BAD_SUPPORTS)),
    "expand_determinant": (lambda s: monomials.expand_determinant(s, 3), list(BAD_SUPPORTS)),
    "lowest_index_monomial": (lambda s: monomials.lowest_index_monomial(s, 3), list(BAD_SUPPORTS)),
    "q_polynomial": (lambda s: monomials.q_polynomial(s, 3), list(BAD_SUPPORTS)),
    # more than N cells is AmbiguousOperatorError, a ValueError
    "identify_operator": (
        lambda s: codec.identify_operator(np.ones(3), s, random_window(3, 0)),
        ["long", "duplicate", "duplicate-mod-n"],
    ),
    # fewer than N packets is InsufficientPacketsError, a ValueError
    "decode": (
        lambda s: codec.decode([codec.CoefficientPacket(k, l, 1.0) for k, l in s], random_window(3, 0)),
        ["short", "duplicate", "duplicate-mod-n"],
    ),
    "cli._parse_support": (
        lambda s: cli._parse_support(";".join(f"({k},{l})" for k, l in s), 3),
        list(BAD_SUPPORTS),
    ),
}


@pytest.mark.parametrize(
    "entry, case",
    [(entry, case) for entry, (_, cases) in SUPPORT_ENTRY_POINTS.items() for case in cases]
    + [("analyze", case) for case in BAD_SUPPORTS],
)
def test_every_entry_point_refuses_a_support_that_is_not_n_distinct_cells(entry, case):
    support = BAD_SUPPORTS[case]
    if entry == "analyze":
        text = ";".join(f"({k},{l})" for k, l in support)
        assert cli.main(["analyze", "--n", "3", "--support", text]) == 2
        return
    with pytest.raises(ValueError, match="support must consist of|packets|identification"):
        SUPPORT_ENTRY_POINTS[entry][0](support)
