import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborglp.backends import (
    COMPLEX_DTYPE,
    CyclotomicContext,
    FloatBackend,
    det_batch_nonzero_mod,
    det_float,
    det_mod,
    embed_rational_complex,
    embedding_primes,
    is_prime,
)
from gaborglp.monomials import CyclicPoly


def trial_division_prime(n):
    """Independent primality oracle for small n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# prime search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order,min_bits,expected", [(4, 2, 5), (12, 2, 13), (324, 2, 1297)])
def test_find_embedding_prime_examples(order, min_bits, expected):
    ctx = embedding_primes(order, 1, min_bits)[0]
    assert ctx.prime == expected
    assert trial_division_prime(ctx.prime)
    # minimality: no smaller prime ≡ 1 (mod order) at or above the floor
    for q in range(max(1 << min_bits, 3), expected):
        assert not (q % order == 1 and trial_division_prime(q))


def test_embedding_root_has_exact_order():
    ctx = embedding_primes(324, 1, 2)[0]
    assert pow(ctx.root, 324, ctx.prime) == 1
    for d in (2, 3, 4, 6, 9, 12, 27, 81, 108, 162):
        assert pow(ctx.root, 324 // d, ctx.prime) != 1


def test_embedding_primes_distinct_and_increasing():
    ctxs = embedding_primes(12, 4, min_bits=2)
    primes = [c.prime for c in ctxs]
    assert primes[0] == 13
    assert primes == sorted(set(primes))
    for c in ctxs:
        assert c.prime % 12 == 1


def test_embedding_primes_validation():
    with pytest.raises(ValueError):
        embedding_primes(0, 1)
    with pytest.raises(ValueError):
        embedding_primes(4, 1, min_bits=0)


def test_is_prime_against_trial_division():
    for n in range(2, 2000):
        assert is_prime(n) == trial_division_prime(n)


def test_order_one_context():
    ctx = embedding_primes(1, 1, 2)[0]
    assert ctx.order == 1 and ctx.root == 1
    assert ctx.root_of_unity(1) == 1


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------


def test_root_of_unity_examples():
    ctx = embedding_primes(4, 1, 2)[0]
    assert ctx.prime == 5
    u = ctx.root_of_unity(4)
    assert u == 2  # 2 has order 4 mod 5
    assert ctx.root_of_unity(1) == 1
    assert ctx.root_of_unity(2) == ctx.prime - 1  # the unique element of order 2


def test_root_of_unity_requires_divisor():
    ctx = embedding_primes(12, 1, 2)[0]
    with pytest.raises(ValueError):
        ctx.root_of_unity(5)


def test_context_validation():
    with pytest.raises(ValueError):
        CyclotomicContext(order=4, prime=7, root=2)  # 7 ≢ 1 mod 4
    with pytest.raises(ValueError):
        CyclotomicContext(order=4, prime=5, root=4)  # 4 has order 2, not 4


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def cofactor_det(rows, p=None):
    """Independent determinant oracle (Laplace expansion), n <= 5."""
    n = len(rows)
    if n == 1:
        v = rows[0][0]
        return v if p is None else v % p
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor, p)
        total += -term if j % 2 else term
    return total if p is None else total % p


def test_determinant_identity():
    ctx = embedding_primes(4, 1, 2)[0]
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert det_mod(eye, ctx.prime) == 1


def test_determinant_2x2_example():
    assert det_mod([[1, 1], [1, -1]], 5) == 3  # -2 mod 5


def test_determinant_matches_cofactor_oracle():
    rng = np.random.default_rng(42)
    p = embedding_primes(12, 1, 8)[0].prime
    for n in (2, 3, 4, 5):
        for _ in range(20):
            m = rng.integers(0, p, size=(n, n))
            rows = [[int(x) for x in row] for row in m]
            assert det_mod(rows, p) == cofactor_det(rows, p)


def test_det_float_matches_numpy():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 6):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ours = complex(det_float(m.astype(COMPLEX_DTYPE)))
        ref = complex(np.linalg.det(m))
        assert abs(ours - ref) < 1e-10 * abs(ref)


def test_determinant_row_swap_flips_sign():
    rng = np.random.default_rng(3)
    p = 1297
    for _ in range(10):
        m = [[int(x) for x in row] for row in rng.integers(0, p, size=(4, 4))]
        swapped = [m[1], m[0]] + m[2:]
        assert det_mod(swapped, p) == (p - det_mod(m, p)) % p


def test_duplicated_row_det_exactly_zero():
    rng = np.random.default_rng(5)
    p = 1297
    m = [[int(x) for x in row] for row in rng.integers(0, p, size=(4, 4))]
    m[2] = list(m[0])
    assert det_mod(m, p) == 0
    assert det_batch_nonzero_mod(np.array([m]), p)[0] == np.False_


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_batch_nonzero_agrees_with_scalar(seed):
    rng = np.random.default_rng(seed)
    p = 1049437
    n = int(rng.integers(2, 7))
    batch = rng.integers(0, p, size=(8, n, n))
    # plant some singular matrices
    batch[0, 1] = batch[0, 0]
    batch[1] = 0
    verdicts = det_batch_nonzero_mod(batch, p)
    for mat, v in zip(batch, verdicts):
        assert (det_mod(mat.tolist(), p) != 0) == bool(v)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_batch_nonzero_agrees_with_scalar_wide_prime(seed):
    # products of residues overflow int64 here, so the kernel runs on Python ints
    p = embedding_primes(12, 1, min_bits=40)[0].prime
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    batch = rng.integers(0, p, size=(6, n, n))
    batch[0, 1] = batch[0, 0]
    batch[1] = 0
    # singular only mod p: the last row is a combination of the first two
    c, d = (int(x) for x in rng.integers(1, p, size=2))
    batch[2, -1] = [(c * int(x) + d * int(y)) % p for x, y in zip(batch[2, 0], batch[2, 1])]
    verdicts = det_batch_nonzero_mod(batch, p)
    for mat, v in zip(batch, verdicts):
        assert (det_mod(mat.tolist(), p) != 0) == bool(v)


# ---------------------------------------------------------------------------
# homomorphism soundness and nonzero certification
# ---------------------------------------------------------------------------


def symbolic_det(rows, order):
    """Cofactor determinant over Z[x]/(x^order - 1) — the symbolic oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = CyclicPoly(order)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * symbolic_det(minor, order)
        total = total - term if j % 2 else total + term
    return total


def random_cyclotomic_matrix(rng, n, order, span=3):
    return [
        [
            CyclicPoly(order, [int(rng.integers(-span, span + 1)) for _ in range(order)])
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def test_homomorphism_soundness():
    # residue of the exact determinant == determinant of the residues
    order = 12
    ctxs = embedding_primes(order, 2, min_bits=8)
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        for _ in range(10):
            sym = random_cyclotomic_matrix(rng, n, order)
            exact = symbolic_det(sym, order)
            for ctx in ctxs:
                residues = [[e.residue(ctx) for e in row] for row in sym]
                assert det_mod(residues, ctx.prime) == exact.residue(ctx)


def test_nonzero_residue_certifies_nonzero_complex():
    order = 12
    ctx = embedding_primes(order, 1, 16)[0]
    fb = FloatBackend()
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(40):
        sym = random_cyclotomic_matrix(rng, 3, order, span=2)
        residues = [[e.residue(ctx) for e in row] for row in sym]
        if det_mod(residues, ctx.prime) == 0:
            continue
        cmat = np.array([[e.complex_value() for e in row] for row in sym])
        det = det_float(cmat.astype(COMPLEX_DTYPE))
        assert not fb.is_zero(det, np.abs(cmat).max())
        checked += 1
    assert checked >= 30


# ---------------------------------------------------------------------------
# embedding Gaussian rationals and the float zero rule
# ---------------------------------------------------------------------------


def test_embed_rational_complex():
    from fractions import Fraction

    ctx = embedding_primes(4, 1, 4)[0]
    p = ctx.prime
    i_img = ctx.root_of_unity(4)
    v = embed_rational_complex(ctx, Fraction(1, 2), Fraction(-3, 1))
    assert v == (pow(2, p - 2, p) - 3 * i_img) % p
    # i*i = -1
    assert i_img * i_img % p == p - 1


def test_float_backend_zero_notion():
    fb = FloatBackend(eps=1e-8)
    assert fb.is_zero(1e-9)
    assert not fb.is_zero(1e-7)
    assert fb.is_zero(0.5, scale=1e8)
    with pytest.raises(ValueError):
        FloatBackend(eps=0.0)


def test_float_zero_rule_is_strict_at_the_threshold():
    fb = FloatBackend(eps=1e-8)
    mat = np.diag([1, 1e-8]).astype(COMPLEX_DTYPE)  # |det| = eps · max|entry| exactly
    assert not fb.is_zero(det_float(mat), np.abs(mat).max())
    assert fb.is_zero(det_float(mat), 1.5)
