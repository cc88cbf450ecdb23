import numpy as np
import pytest

from gaborglp.backends import COMPLEX_DTYPE, FloatBackend
from gaborglp.codec import (
    AmbiguousOperatorError,
    ErasurePattern,
    InsufficientPacketsError,
    OperatorCoefficients,
    RankDeficientError,
    decode,
    encode,
    erase,
    identify_operator,
    random_erasure,
    support_bound_check,
)
from gaborglp.operators import Window, full_support, gabor_matrix, tf_shift
from gaborglp.windows import ones_window
from oracles import apply_operator

FB = FloatBackend()


def cwin(*entries):
    return Window(np.array(entries, dtype=COMPLEX_DTYPE), FB)


def signal(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)


def rel_error(recovered, f):
    f = f.astype(recovered.dtype)
    return float(np.sqrt((np.abs(recovered - f) ** 2).sum()) / np.sqrt((np.abs(f) ** 2).sum()))


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def test_encode_zero_signal():
    w = cwin(1, 2)
    packets = encode(np.zeros(2, dtype=complex), w)
    assert len(packets) == 4
    assert all(abs(complex(p.value)) < 1e-15 for p in packets)


def test_encode_window_autocorrelation():
    w = cwin(1, 2, 1j)
    packets = encode(w.entries, w)
    assert abs(complex(packets[0].value) - 6.0) < 1e-12  # ⟨w,w⟩ = ‖w‖²


def test_encode_example_n2():
    w = cwin(1, 0)
    packets = encode(np.array([1, 0], dtype=complex), w)
    values = [complex(p.value) for p in packets]  # lex order
    assert np.allclose(values, [1, 1, 0, 0], atol=1e-15)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def test_decode_full_frame_roundtrip(float_window_4):
    f = signal(4, 0)
    recovered = decode(encode(f, float_window_4), float_window_4)
    assert rel_error(recovered, f) < 1e-10


def test_decode_minimal_survivors(float_window_4):
    # erase 12 of 16 packets, keep exactly N = 4
    f = signal(4, 1)
    packets = encode(f, float_window_4)
    pattern = random_erasure(4, 12, seed=42)
    survivors = erase(packets, pattern)
    assert len(survivors) == 4
    recovered = decode(survivors, float_window_4)
    assert rel_error(recovered, f) <= 1e-8
    # independent oracle: direct solve of the 4×4 analysis system
    w = float_window_4
    A = np.stack(
        [np.conj(tf_shift(w.entries, (p.kappa, p.lam), w.backend)) for p in survivors]
    ).astype(np.complex128)
    b = np.array([complex(p.value) for p in survivors])
    oracle = np.linalg.solve(A, b)
    assert np.allclose(recovered.astype(np.complex128), oracle, atol=1e-9)


def test_decode_insufficient_packets(float_window_4):
    f = signal(4, 2)
    packets = encode(f, float_window_4)[:3]
    with pytest.raises(InsufficientPacketsError):
        decode(packets, float_window_4)


def test_decode_rank_deficient_for_ones_window():
    w = ones_window(2)
    f = signal(2, 3)
    packets = encode(f, w)
    survivors = erase(packets, ErasurePattern(((0, 0), (1, 0))))
    assert len(survivors) == 2
    with pytest.raises(RankDeficientError):
        decode(survivors, w)


def test_decode_duplicate_packets_rejected(float_window_4):
    packets = encode(signal(4, 4), float_window_4)
    with pytest.raises(ValueError):
        decode([packets[0]] * 4, float_window_4)


def test_roundtrip_many_patterns(
    float_window_4, float_window_5, float_window_6, glp_random_windows
):
    # every erasure pattern with |K'| >= N recovers the signal: 500 seeded
    # trials per dimension with random survivor counts
    windows = {
        2: glp_random_windows[2],
        3: glp_random_windows[3],
        4: float_window_4,
        5: float_window_5,
        6: float_window_6,
    }
    rng = np.random.default_rng(7)
    for n, w in windows.items():
        packets_budget = n * n
        for trial in range(500):
            f = signal(n, 100 * n + trial)
            keep = int(rng.integers(n, packets_budget + 1))
            pattern = random_erasure(n, packets_budget - keep, seed=trial)
            survivors = erase(encode(f, w), pattern)
            recovered = decode(survivors, w)
            assert rel_error(recovered, f) <= 1e-8, (n, trial, keep)


# ---------------------------------------------------------------------------
# operator identification
# ---------------------------------------------------------------------------


def test_identify_single_shift(float_window_4):
    support = [(0, 0), (1, 2), (3, 1), (2, 2)]
    observed = tf_shift(float_window_4.entries, (1, 2), float_window_4.backend)
    coeffs = identify_operator(observed, support, float_window_4)
    expected = np.zeros(4)
    expected[support.index((1, 2))] = 1
    assert np.allclose(coeffs.coefficients.astype(complex), expected, atol=1e-10)


def test_identify_random_operator(float_window_4):
    import random as pyrandom

    rng = np.random.default_rng(8)
    srng = pyrandom.Random(8)
    w = float_window_4
    for _ in range(20):
        support = srng.sample(full_support(4), 4)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        # observed action on the window itself (the forward-map oracle)
        observed = np.zeros(4, dtype=w.backend.dtype)
        for idx, ci in zip(support, c):
            observed = observed + ci * tf_shift(w.entries, idx, w.backend)
        coeffs = identify_operator(observed, support, float_window_4)
        assert np.allclose(coeffs.coefficients.astype(complex), c, atol=1e-8)


def test_apply_operator_forward_map(float_window_4):
    support = ((0, 1), (2, 3))
    c = np.array([1.0, 2j])
    x = signal(4, 11)
    out = apply_operator(OperatorCoefficients(support, c), x, float_window_4)
    from gaborglp.operators import tf_shift

    expected = tf_shift(x.astype(out.dtype), (0, 1), float_window_4.backend) + 2j * tf_shift(
        x.astype(out.dtype), (2, 3), float_window_4.backend
    )
    assert np.allclose(out.astype(complex), expected.astype(complex), atol=1e-12)


def test_identify_smaller_support(float_window_4):
    # |Λ| < N is still injective for a GLP window
    support = [(1, 1), (2, 0)]
    c = np.array([2.0, -1j])
    w = float_window_4
    observed = 2.0 * tf_shift(w.entries, (1, 1), w.backend) - 1j * tf_shift(
        w.entries, (2, 0), w.backend
    )
    coeffs = identify_operator(observed, support, float_window_4)
    assert np.allclose(coeffs.coefficients.astype(complex), c, atol=1e-10)


def test_identify_ambiguous_beyond_dimension(float_window_4):
    support = full_support(4)[:5]
    observed = tf_shift(float_window_4.entries, (0, 0), float_window_4.backend)
    with pytest.raises(AmbiguousOperatorError):
        identify_operator(observed, support, float_window_4)


# ---------------------------------------------------------------------------
# support bound
# ---------------------------------------------------------------------------


def test_support_bound_glp_n2():
    w = cwin(1, 2)
    rng = np.random.default_rng(9)
    for _ in range(50):
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        check = support_bound_check(f, w)
        assert check.passed
        assert check.nonzero_count >= 3


def test_support_bound_extremal_case(float_window_4):
    # f orthogonal to exactly N-1 frame vectors: the bound is attained
    n = 4
    chosen = [(0, 1), (1, 3), (2, 2)]
    cols = gabor_matrix(float_window_4, chosen).astype(np.complex128)
    # null space of the conjugated (N-1)×N analysis rows
    _, _, vh = np.linalg.svd(cols.conj().T)
    f = np.conj(vh[-1])
    check = support_bound_check(f, float_window_4)
    assert check.nonzero_count == n * n - n + 1
    assert check.passed


def test_support_bound_rejects_zero_signal(float_window_4):
    with pytest.raises(ValueError):
        support_bound_check(np.zeros(4, dtype=complex), float_window_4)


def test_random_erasure_validation():
    with pytest.raises(ValueError):
        random_erasure(2, 5, seed=0)
    pattern = random_erasure(3, 4, seed=1)
    assert len(pattern.surviving) == 5
    assert pattern.seed == 1
