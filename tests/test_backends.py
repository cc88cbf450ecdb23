import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborglp.backends import (
    COMPLEX_DTYPE,
    CyclotomicContext,
    FloatBackend,
    ResidueBackend,
    det_batch_float,
    det_batch_mod,
    det_batch_nonzero_mod,
    det_float,
    det_mod,
    embed_rational_complex,
    embedding_primes,
    is_prime,
    laplace_step_mod,
    last_step_mod,
    reduce_mod,
    residue_dtype,
)
from gaborglp.monomials import CyclicPoly
from gaborglp.verify import _minors_mod
from oracles import det_float_right_looking, same_bits


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


@given(
    st.integers(1, 6),
    st.sampled_from([COMPLEX_DTYPE, np.complex128]),
    st.permutations(range(8)),
    st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_batch_float_det(n, dtype, order, seed):
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((8, n, n)) + 1j * rng.standard_normal((8, n, n))
    batch[0] = 0
    # a scaled anti-diagonal permutation: a row swap at every step
    batch[1] = np.fliplr(np.diag(rng.standard_normal(n) + 1j))
    # zero leading column: the first pivot is zero, so the matrix is singular
    batch[2, :, 0] = 0
    batch[3, :, -1] = 0
    batch[4, n // 2] = 0
    singular = [0, 2, 3, 4]
    if n > 1:
        batch[5, 0, 0] = 0  # nonsingular, but the first pivot is a swap
        # a repeated row: singular, but elimination leaves rounding noise
        batch[6, -1] = batch[6, 0]
    batch = batch[list(order)].astype(dtype)
    singular = [order.index(i) for i in singular]

    dets = det_batch_float(batch)
    ref = np.linalg.det(batch.astype(np.complex128))
    hadamard = np.prod(np.linalg.norm(batch.astype(np.complex128), axis=1), axis=1)
    assert dets.dtype == dtype
    assert (np.abs(dets.astype(np.complex128) - ref) <= 1e-10 * hadamard).all()
    # bit for bit the right-looking reference, and no leakage across rows: each
    # row equals the reference on the same matrix as a stack of one
    assert same_bits(dets, det_float_right_looking(batch))
    assert all(same_bits(det_float_right_looking(mat[None])[0], det) for mat, det in zip(batch, dets))
    assert all(same_bits(det_batch_float(mat[None])[0], det) for mat, det in zip(batch, dets))
    assert (dets[singular] == 0).all()


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


@given(
    st.integers(1, 6),
    st.sampled_from([2, 3, 5, 7, 13, 1049437, embedding_primes(12, 1, 40)[0].prime]),
    st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_batch_det_equals_scalar(n, p, seed):
    # p >= 2**31 (the last prime) runs the kernel on Python ints
    rng = np.random.default_rng(seed)
    batch = rng.integers(0, p, size=(10, n, n))
    batch[0] = 0
    # a scaled anti-diagonal permutation: a row swap at every step
    batch[1] = np.fliplr(np.diag(rng.integers(1, p, size=n)))
    # zero leading column above the last row: the first pivot is the last row
    batch[2, :-1, 0] = 0
    if n > 1:
        batch[3, -1] = batch[3, 0]
    if n > 2:
        # singular only mod p: the last row is a combination of the first two
        c, d = (int(x) for x in rng.integers(1, p, size=2))
        batch[4, -1] = [(c * int(x) + d * int(y)) % p for x, y in zip(batch[4, 0], batch[4, 1])]
    dets = det_batch_mod(batch, p)
    assert dets.tolist() == [det_mod(mat.tolist(), p) for mat in batch]
    assert (det_batch_nonzero_mod(batch, p) == (dets != 0)).all()


def test_residue_mul_wide_prime():
    b = ResidueBackend(embedding_primes(12, 1, 40)[0])
    rng = np.random.default_rng(4)
    x, y = rng.integers(0, b.prime, size=(2, 3, 5))
    out = b.mul(x, y)
    assert out.dtype == np.int64
    assert out.tolist() == [[int(u) * int(v) % b.prime for u, v in zip(r, q)] for r, q in zip(x, y)]


def test_batch_det_sign_of_row_swaps():
    p = 1049437
    for n in range(1, 7):
        flip = np.fliplr(np.eye(n, dtype=np.int64))
        assert det_batch_mod(flip[None], p)[0] == (-1) ** (n * (n - 1) // 2) % p


WIDE_PRIME = embedding_primes(12, 1, 40)[0].prime


def permutation_sign(perm):
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
    return (-1) ** inversions


@pytest.mark.parametrize("p", [1049437, WIDE_PRIME])
@pytest.mark.parametrize("n", range(1, 7))
def test_batch_det_of_every_permutation_matrix(n, p):
    # each permutation matrix has its sign for determinant: every entry of
    # the expansion tables, signs included, is reached with a ±1 product
    perms = list(itertools.permutations(range(n)))
    mats = np.eye(n, dtype=np.int64)[perms]
    assert det_batch_mod(mats, p).tolist() == [permutation_sign(s) % p for s in perms]


@pytest.mark.parametrize("n", range(1, 9))
def test_batch_det_at_the_top_of_int64(n):
    # the largest prime whose residue products the kernel takes in int64
    p = 2**31 - 1
    assert is_prime(p) and residue_dtype(p) == np.int64
    rng = np.random.default_rng(n)
    batch = np.concatenate([np.full((1, n, n), p - 1), rng.integers(p - 64, p, size=(6, n, n))])
    assert det_batch_mod(batch, p).tolist() == [det_mod(mat.tolist(), p) for mat in batch]


def walk_columns(n, p, rng):
    """Columns, one per row, for walks whose prefixes are zero, permuted or
    rank-deficient: column 0 is zero, columns 1..n are those of the
    anti-diagonal permutation, column n+2 repeats column n+1, column n+3 is a
    multiple of it mod p, and the rest are random."""
    cols = rng.integers(0, p, size=(n + 7, n))
    cols[0] = 0
    cols[1 : n + 1] = np.fliplr(np.eye(n, dtype=np.int64)).T
    cols[n + 2] = cols[n + 1]
    c = int(rng.integers(1, p))
    cols[n + 3] = [c * int(x) % p for x in cols[n + 1]]
    return cols


@given(
    st.integers(1, 6),
    st.sampled_from([2, 3, 5, 13, 1049437, WIDE_PRIME]),
    st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_walk_of_shared_prefixes_equals_scalar(n, p, seed):
    # rows in lexicographic order share prefixes at every depth, and shuffled
    # they share few; p >= 2**31 (the last prime) runs the walk on Python ints
    rng = np.random.default_rng(seed)
    cols = walk_columns(n, p, rng)
    combos = list(itertools.combinations(range(len(cols)), n))
    special = [tuple(range(1, n + 1)), tuple(range(n)), tuple(range(n + 1, 2 * n + 1))]
    picks = rng.choice(len(combos), size=min(30, len(combos)), replace=False)
    sel = np.array(sorted(set(special) | {combos[i] for i in picks}))
    for rows in (sel, sel[rng.permutation(len(sel))]):
        assert _minors_mod(cols, p, rows).tolist() == [det_mod(cols[r].T.tolist(), p) for r in rows]
    assert _minors_mod(cols, p, sel[:0]).tolist() == []


@pytest.mark.parametrize("p", [1049437, WIDE_PRIME])
@pytest.mark.parametrize("n", range(2, 7))
def test_walk_steps_sign_of_permutation_prefix(n, p):
    # four rows share the first n-1 columns of the anti-diagonal
    # permutation; the last column that repeats its first gives a singular
    # minor, and the one that completes the permutation gives ±1
    flip = np.fliplr(np.eye(n, dtype=np.int64))
    cols = np.concatenate([flip.T, 2 * flip[:, -1:].T])
    head = list(range(n - 1))
    sel = np.array([head + [0], head + [n - 1], head + [n], head + [0]])
    sign = (-1) ** (n * (n - 1) // 2)
    assert _minors_mod(cols, p, sel).tolist() == [0, sign % p, 2 * sign % p, 0]


def laplace_last_sum(coords, col):
    """The Laplace expansion along the last column in Python ints, unreduced: entry
    j of `col` times the minor on the other rows, with sign (-1)^(j+n-1)."""
    n = len(col)
    rank = {s: i for i, s in enumerate(itertools.combinations(range(n), n - 1))}
    others = [(*range(j), *range(j + 1, n)) for j in range(n)]
    terms = ((-1) ** (j + n - 1) * int(x) * int(coords[rank[others[j]]]) for j, x in enumerate(col))
    return sum(terms)


@pytest.mark.parametrize("p", [1074207401, 2**31 - 1, WIDE_PRIME])
def test_last_step_where_its_products_overflow_int64(p):
    # at N = 8, 8·(p-1)² ≥ 2**63 under the prime that --prime-bits 30 picks, the
    # largest int64 prime and a wide prime.  Every minor of the parents is 1 or
    # p-1 and every entry of the last columns is p-1 or near it; under 2**31 - 1
    # some sums leave int64, so an unreduced int64 dot would wrap there
    n = 8
    assert n * (p - 1) ** 2 >= 2**63 and residue_dtype(p) == (object if p >= 2**31 else np.int64)
    coords = np.array(list(itertools.product([1, p - 1], repeat=n)), dtype=residue_dtype(p))
    rng = np.random.default_rng(p % 1000)
    parent = np.concatenate([np.arange(len(coords)), rng.integers(0, len(coords), 64)])
    cols = np.concatenate([np.full((len(coords), n), p - 1), rng.integers(p - 64, p, (64, n))])
    sums = [laplace_last_sum(coords[r], c) for r, c in zip(parent, cols)]
    assert (max(map(abs, sums)) >= 2**63) == (p >= 2**31 - 1)
    got = last_step_mod(coords, parent, cols, p).tolist()
    assert got == [s % p for s in sums]
    assert got == laplace_step_mod(coords[parent], cols, n - 1, p).ravel().tolist()


@given(
    st.integers(2, 7),
    st.sampled_from([2, 3, 13, 1049437, 2**31 - 1, WIDE_PRIME]),
    st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_last_step_equals_determinants_of_the_grown_matrices(n, p, seed):
    # the parents' minors come from the walk, and each child's determinant is det_mod's
    rng = np.random.default_rng(seed)
    cols = walk_columns(n, p, rng)
    heads = np.array(list(itertools.combinations(range(len(cols)), n - 1))[:12])
    parent, last = rng.integers(0, len(heads), 40), rng.integers(0, len(cols), 40)
    coords = _minors_mod(cols, p, heads).reshape(len(heads), n)
    got = last_step_mod(coords, parent, cols[last], p).tolist()
    assert got == [det_mod(cols[[*heads[r], c]].T.tolist(), p) for r, c in zip(parent, last)]


@given(
    st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=40),
    st.integers(2, 2**31 - 1),
    st.integers(2**31, 2**80),
)
def test_reduce_mod_is_the_remainder(values, p, wide):
    # floor semantics on int64 arrays with negative entries and on Python ints
    a = np.array(values, dtype=np.int64)
    assert reduce_mod(a, p).dtype == np.int64 and (reduce_mod(a, p) == a % p).all()
    o = np.array([v * wide for v in values], dtype=object)
    assert reduce_mod(o, wide).tolist() == (o % wide).tolist() == [0] * len(values)
    o = o + np.array(values, dtype=object)
    assert reduce_mod(o, wide).tolist() == (o % wide).tolist()


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


def test_embed_rational_complex_without_image():
    # 1/29 has no image mod 29: mapping it to 0 would not be a homomorphism
    from fractions import Fraction

    ctx = embedding_primes(4, 2, 4)[1]
    assert ctx.prime == 29
    with pytest.raises(ZeroDivisionError):
        embed_rational_complex(ctx, Fraction(1, 29))
    with pytest.raises(ZeroDivisionError):
        embed_rational_complex(ctx, 1, Fraction(2, 58))
    assert embed_rational_complex(ctx, Fraction(29, 3)) == 0


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
