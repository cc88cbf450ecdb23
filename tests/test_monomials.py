import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborglp import backends, monomials, operators
from gaborglp.backends import COMPLEX_DTYPE, FloatBackend, ResidueBackend, det_mod, embedding_primes
from gaborglp.monomials import (
    BudgetExceededError,
    ColumnProfile,
    CyclicPoly,
    DimensionTooLargeError,
    canonical_partition,
    ci_coefficient,
    ci_monomial,
    enumerate_profiles,
    expand_determinant,
    interval_of_profile,
    lowest_index_monomial,
    moments,
    monomial_moments,
    monomial_of_class,
    monomial_str,
    normalize_profile,
    normalize_support,
    partition_classes,
    profile_of_support,
    q_polynomial,
    verify_ci_uniqueness,
)
from gaborglp.operators import Window, gabor_matrix

FB = FloatBackend()


def random_support(rng, n):
    return rng.sample([(a, b) for a in range(n) for b in range(n)], n)


# ---------------------------------------------------------------------------
# profiles, partitions, monomials
# ---------------------------------------------------------------------------


def test_profile_of_support_examples():
    assert profile_of_support([(0, 0), (0, 1), (1, 0)], 3).counts == (2, 1, 0)
    assert profile_of_support([(0, 0), (1, 1)], 2).counts == (1, 1)
    assert profile_of_support([(1, 0), (1, 1), (1, 2)], 3).counts == (0, 3, 0)


def test_profile_validation():
    with pytest.raises(ValueError):
        profile_of_support([(0, 0)], 3)
    with pytest.raises(ValueError):
        ColumnProfile((2, 1))  # sums to 3 but length 2


def test_canonical_partition_examples():
    blocks = canonical_partition(ColumnProfile((2, 1, 0)))
    assert [list(b) for b in blocks] == [[0, 1], [2], []]
    blocks = canonical_partition(ColumnProfile((1, 1, 1)))
    assert [list(b) for b in blocks] == [[0], [1], [2]]
    blocks = canonical_partition(ColumnProfile((3, 0, 0)))
    assert [list(b) for b in blocks] == [[0, 1, 2], [], []]


def test_monomial_of_class_examples():
    prof = ColumnProfile((2, 1, 0))
    assert monomial_of_class(prof, ((0, 1), (2,), ())) == (1, 2, 0)  # z0·z1²
    prof = ColumnProfile((1, 1, 1))
    assert monomial_of_class(prof, ((0,), (1,), (2,))) == (3, 0, 0)  # z0³
    prof = ColumnProfile((3, 0, 0))
    assert monomial_of_class(prof, ((0, 1, 2), (), ())) == (1, 1, 1)  # z0z1z2


def test_monomial_of_class_validation():
    prof = ColumnProfile((2, 1, 0))
    with pytest.raises(ValueError):
        monomial_of_class(prof, ((0,), (1,), (2,)))  # sizes mismatch
    with pytest.raises(ValueError):
        monomial_of_class(prof, ((0, 0), (1,), ()))  # not a partition


def test_ci_monomial_examples():
    assert ci_monomial(ColumnProfile((2, 1, 0))) == (1, 2, 0)
    assert ci_monomial(ColumnProfile((1, 1, 1))) == (3, 0, 0)
    assert ci_monomial(ColumnProfile((3, 0, 0))) == (1, 1, 1)


def test_normalize_profile_examples():
    gamma, shifted = normalize_profile(ColumnProfile((0, 2, 1)))
    assert gamma == 1
    assert shifted.counts == (2, 1, 0)
    m = shifted.prefix_sums
    assert [m[k] - k for k in range(3)] == [0, 1, 1]  # all nonnegative, 0 attained

    gamma, shifted = normalize_profile(ColumnProfile((2, 1, 0)))
    assert gamma == 0 and shifted.counts == (2, 1, 0)

    gamma, shifted = normalize_profile(ColumnProfile((1, 1, 1, 1)))
    assert gamma == 0 and shifted.counts == (1, 1, 1, 1)


def test_normalize_profile_always_normalized():
    for n in range(1, 7):
        for prof in enumerate_profiles(n):
            gamma, shifted = normalize_profile(prof)
            assert shifted.is_normalized
            m = shifted.prefix_sums
            assert min(m[k] - k for k in range(n)) == 0


def test_interval_examples():
    assert interval_of_profile(ColumnProfile((2, 1, 0))) == (0, 1)
    assert interval_of_profile(ColumnProfile((1, 1, 1))) == (0, 0)
    assert interval_of_profile(ColumnProfile((0, 2, 1))) == (-1, 0)


def test_interval_property_exhaustive():
    # the shifted blocks tile an interval for every profile, N ≤ 8
    for n in range(1, 9):
        for prof in enumerate_profiles(n):
            alpha, beta = interval_of_profile(prof)
            assert beta - alpha <= n - 1


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moments_examples():
    prof = ColumnProfile((2, 1, 0))
    m = moments(prof, ((0, 1), (2,), ()))
    assert m == (Fraction(2, 3), Fraction(2, 3))
    prof111 = ColumnProfile((1, 1, 1))
    assert moments(prof111, ((0,), (1,), (2,))) == (0, 0)
    m = moments(prof, ((0, 2), (1,), ()))
    assert m == (Fraction(2, 3), Fraction(4, 3))


def test_moments_require_normalized_profile():
    with pytest.raises(ValueError):
        moments(ColumnProfile((0, 2, 1)), ((), (0, 1), (2,)))


def test_moment_nonnegative_when_normalized():
    for n in range(1, 6):
        for prof in enumerate_profiles(n):
            if not prof.is_normalized:
                continue
            for cls in partition_classes(prof):
                m = moments(prof, cls)
                assert m.first >= 0 and m.second >= 0


# ---------------------------------------------------------------------------
# CI coefficient vs the N!-diagonal expansion oracle
# ---------------------------------------------------------------------------


def test_ci_coefficient_examples():
    # N=3 canonical example: coefficient is ω - 1
    assert ci_coefficient([(0, 0), (0, 1), (1, 0)], 3) == CyclicPoly(3, (-1, 1, 0))
    # N=2, two modulations of the same shift: ω - 1, whose value is V(1,-1) = -2
    coeff = ci_coefficient([(0, 0), (0, 1)], 2)
    assert coeff == CyclicPoly(2, (-1, 1))
    assert abs(coeff.complex_value() - (-2)) < 1e-12


def test_ci_coefficient_full_column_is_vandermonde():
    for n in (3, 4, 5):
        support = [(0, lam) for lam in range(n)]
        coeff = ci_coefficient(support, n)
        om = np.exp(2j * np.pi / n)
        expected = np.prod([om**j - om**i for i in range(n) for j in range(i + 1, n)])
        assert abs(coeff.complex_value() - expected) < 1e-9 * abs(expected)


def test_ci_coefficient_matches_expansion_and_nonzero():
    rng = random.Random(20240810)
    ctx_cache = {}
    for n in (2, 3, 4, 5):
        ctx_cache[n] = embedding_primes(n, 1, 16)[0]
        for _ in range(100):
            support = random_support(rng, n)
            _, nsup = normalize_support(support, n)
            expansion = expand_determinant(nsup, n)
            alpha = ci_monomial(profile_of_support(nsup, n))
            assert alpha in expansion
            assert expansion[alpha] == ci_coefficient(support, n)
            # never zero: certified by a nonzero residue
            assert expansion[alpha].residue(ctx_cache[n]) != 0


def test_expansion_examples():
    # matrix [[z0, z1], [z1, ω z0]]: det = ω z0² - z1²
    out = expand_determinant([(0, 0), (1, 1)], 2)
    assert out == {(2, 0): CyclicPoly(2, (0, 1)), (0, 2): CyclicPoly(2, (-1, 0))}
    out = expand_determinant([(0, 0), (0, 1), (1, 0)], 3)
    assert out == {
        (1, 2, 0): CyclicPoly(3, (-1, 1, 0)),  # (ω - 1)·z0·z1²
        (2, 0, 1): CyclicPoly(3, (1, 0, -1)),  # (1 - ω²)·z0²·z2
        (0, 1, 2): CyclicPoly(3, (0, -1, 1)),  # (ω² - ω)·z1·z2²
    }
    assert expand_determinant([(0, 0)], 1) == {(1,): CyclicPoly(1, (1,))}


def test_expansion_dimension_guard():
    with pytest.raises(DimensionTooLargeError):
        expand_determinant([(0, i) for i in range(7)], 7)


def test_exponent_sum_conservation():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            support = random_support(rng, n)
            for alpha in expand_determinant(support, n):
                assert sum(alpha) == n


def test_expansion_against_numeric_determinant():
    # evaluating the symbolic expansion at a random window reproduces det
    rng = random.Random(99)
    nrng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for _ in range(10):
            support = sorted(random_support(rng, n))
            w = (nrng.standard_normal(n) + 1j * nrng.standard_normal(n)).astype(COMPLEX_DTYPE)
            window = Window(w, FB)
            mat = gabor_matrix(window, support)
            det = np.linalg.det(mat.astype(np.complex128))
            acc = 0j
            for alpha, coeff in expand_determinant(support, n).items():
                term = coeff.complex_value()
                for i, a in enumerate(alpha):
                    term *= complex(w[i]) ** a
                acc += term
            assert abs(acc - det) < 1e-8 * max(1.0, abs(det))


# ---------------------------------------------------------------------------
# lowest-index monomial
# ---------------------------------------------------------------------------


def test_lowest_index_examples():
    assert lowest_index_monomial([(0, 0), (0, 1), (1, 0)], 3) == (2, 0, 1)  # z0²z2
    assert lowest_index_monomial([(0, 0)], 1) == (1,)
    # one column per shift: every block contributes z0
    assert lowest_index_monomial([(k, 0) for k in range(4)], 4) == (4, 0, 0, 0)


def greedy_all_tiebreaks(support, n):
    """Every outcome of the greedy (take an entry of minimal variable index,
    delete its row and column) over every choice among minimal entries."""
    kappas = [k for k, _ in support]

    def var(r, c):
        return (r - kappas[c]) % n

    def greedy(rows, cols):
        if not rows:
            return {()}
        best = min(var(r, c) for r in rows for c in cols)
        return {
            tuple(sorted((best,) + tail))
            for r in rows
            for c in cols
            if var(r, c) == best
            for tail in greedy(rows - {r}, cols - {c})
        }

    universe = frozenset(range(n))
    return {
        tuple(indices.count(i) for i in range(n)) for indices in greedy(universe, universe)
    }


def test_lowest_index_tiebreak_independence():
    for n in range(1, 6):
        for prof in enumerate_profiles(n):
            support = [(k, l) for k, count in enumerate(prof.counts) for l in range(count)]
            assert greedy_all_tiebreaks(support, n) == {lowest_index_monomial(support, n)}


def test_lowest_index_is_alphabetically_first_in_expansion():
    rng = random.Random(13)
    for n in (2, 3, 4):
        for _ in range(25):
            support = random_support(rng, n)
            expansion = expand_determinant(support, n)
            # sorted variable tuples; alphabetical order = lex on index tuples
            def key(alpha):
                return tuple(i for i, a in enumerate(alpha) for _ in range(a))

            first = min(key(a) for a in expansion)
            assert key(lowest_index_monomial(support, n)) <= first


# ---------------------------------------------------------------------------
# uniqueness and the moment gap
# ---------------------------------------------------------------------------


def test_verify_ci_uniqueness_example():
    report = verify_ci_uniqueness(ColumnProfile((2, 1, 0)))
    assert report.passed
    assert report.class_count == 3
    assert sorted(m.second for _, _, m in report.classes) == [Fraction(2, 3), Fraction(4, 3), Fraction(3)]


def test_verify_ci_uniqueness_single_class():
    report = verify_ci_uniqueness(ColumnProfile((4, 0, 0, 0)))
    assert report.passed and report.class_count == 1


def test_verify_ci_uniqueness_n4_exhaustive():
    # all 35 compositions of 4; the normalized ones all pass
    seen = 0
    for prof in enumerate_profiles(4):
        if prof.is_normalized:
            assert verify_ci_uniqueness(prof).passed
            seen += 1
    assert seen > 0


def test_verify_ci_uniqueness_reports_a_wrong_canonical_class(monkeypatch):
    # with a non-canonical class taken for the canonical one, its monomial is hit twice,
    # the true CI monomial has a smaller first moment and the true class no larger second
    profile = ColumnProfile((2, 1, 1, 0))
    canonical = monomials.canonical_class
    wrong = ((2, 3), (1,), (0,), ())
    assert canonical(profile) != wrong
    monkeypatch.setattr(
        monomials, "canonical_class", lambda prof: wrong if prof == profile else canonical(prof)
    )
    report = verify_ci_uniqueness(profile)
    assert not report.passed and report.ci_class_hits == 2
    assert not report.first_moment_minimal and not report.second_moment_strict


def test_verify_ci_uniqueness_guards():
    with pytest.raises(ValueError):
        verify_ci_uniqueness(ColumnProfile((0, 2, 1)))
    with pytest.raises(BudgetExceededError):
        verify_ci_uniqueness(ColumnProfile((1,) * 6), max_classes=10)


def test_enumerate_profiles_counts():
    for n in range(1, 7):
        profs = list(enumerate_profiles(n))
        assert len(profs) == math.comb(2 * n - 1, n - 1)
        assert len(set(p.counts for p in profs)) == len(profs)


# ---------------------------------------------------------------------------
# rearrangement inequality (the equality case powering the moment gap)
# ---------------------------------------------------------------------------


def test_rearrangement_equality_case():
    # Σ n·b_n ≥ Σ σ(n)·b_n, equality iff σ preserves every block, N ≤ 7
    for n in range(2, 8):
        perms = np.array(list(itertools.permutations(range(n))))
        a = np.arange(n)
        for prof in enumerate_profiles(n):
            m = prof.prefix_sums
            b = np.empty(n, dtype=np.int64)
            for k in range(n):
                b[m[k] : m[k + 1]] = k
            base = int(a @ b)
            sums = perms @ b
            assert sums.max() <= base
            trivially = (b[perms] == b[None, :]).all(axis=1)
            assert np.array_equal(sums == base, trivially)


# ---------------------------------------------------------------------------
# translation covariance
# ---------------------------------------------------------------------------


def test_translation_covariance_modulation():
    rng = random.Random(17)
    nrng = np.random.default_rng(23)
    for n in (3, 4, 5):
        for _ in range(15):
            support = sorted(random_support(rng, n))
            gamma = rng.randrange(1, n)
            shifted = sorted(((k, (l - gamma) % n) for k, l in support))
            w = Window(
                (nrng.standard_normal(n) + 1j * nrng.standard_normal(n)).astype(COMPLEX_DTYPE), FB
            )
            d1 = np.linalg.det(gabor_matrix(w, support).astype(np.complex128))
            d2 = np.linalg.det(gabor_matrix(w, shifted).astype(np.complex128))
            assert abs(abs(d1) - abs(d2)) < 1e-9 * max(1.0, abs(d1))


def test_translation_covariance_time():
    # a fixed orientation works across all trials: translating the support by
    # (-γ, 0) matches shifting the window by +γ
    rng = random.Random(19)
    nrng = np.random.default_rng(29)
    for n in (3, 4, 5):
        for _ in range(15):
            support = sorted(random_support(rng, n))
            gamma = rng.randrange(1, n)
            shifted = sorted((((k - gamma) % n, l) for k, l in support))
            w = (nrng.standard_normal(n) + 1j * nrng.standard_normal(n)).astype(COMPLEX_DTYPE)
            w_shift = np.roll(w, -gamma)  # w'_j = w_{(j+γ) mod N}
            d1 = np.linalg.det(
                gabor_matrix(Window(w, FB), shifted).astype(np.complex128)
            )
            d2 = np.linalg.det(
                gabor_matrix(Window(w_shift, FB), support).astype(np.complex128)
            )
            assert abs(abs(d1) - abs(d2)) < 1e-9 * max(1.0, abs(d1))


# ---------------------------------------------------------------------------
# the squared-exponent polynomial
# ---------------------------------------------------------------------------


def test_q_polynomial_n2_example():
    q = q_polynomial([(0, 0), (0, 1)], 2)
    p = q.context.prime
    assert q.exponents == (1,)
    assert q.coeffs[1] == p - 2  # Q(x) = -2x


def test_q_polynomial_n3_example():
    q = q_polynomial([(0, 0), (0, 1), (1, 0)], 3)
    assert q.exponents == (2, 4, 9)
    ctx = q.context
    # coefficients are the expansion coefficients: ω-1, 1-ω², ω²-ω
    assert q.coeffs[2] == CyclicPoly(3, (-1, 1, 0)).residue(ctx)
    assert q.coeffs[4] == CyclicPoly(3, (1, 0, -1)).residue(ctx)
    assert q.coeffs[9] == CyclicPoly(3, (0, -1, 1)).residue(ctx)


def test_q_polynomial_degree_bound_and_exponents():
    rng = random.Random(31)
    for n in (3, 4):
        bound = n * (n - 1) ** 2
        for _ in range(10):
            support = random_support(rng, n)
            q = q_polynomial(support, n)
            assert q
            assert q.degree <= bound
            prof = profile_of_support(support, n)
            allowed = set()
            for cls in partition_classes(prof):
                alpha = monomial_of_class(prof, cls)
                allowed.add(sum(i * i * a for i, a in enumerate(alpha)))
            assert set(q.exponents) <= allowed


def scalar_q_value(support, n, ctx, t):
    """The determinant at z_j = t^(j²): one Gabor matrix and one det_mod."""
    entries = np.array([pow(t, j * j, ctx.prime) for j in range(n)], dtype=np.int64)
    mat = gabor_matrix(Window(entries, ResidueBackend(ctx)), sorted(support))
    return det_mod(mat.tolist(), ctx.prime)


def q_value(q, t):
    return sum(c * pow(t, e, q.context.prime) for e, c in enumerate(q.coeffs)) % q.context.prime


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_q_eval_points_match_per_point_determinants(n):
    rng = random.Random(100 + n)
    ctx = embedding_primes(n, 1, 20)[0]
    count = n * (n - 1) ** 2 + 5
    for _ in range(2):
        support = random_support(rng, n)
        batched = monomials._q_eval_points(support, n, ctx, count).tolist()
        assert batched == [scalar_q_value(support, n, ctx, t) for t in range(count)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_q_polynomial_interpolates_scalar_determinants_wide_prime(n):
    ctx = embedding_primes(n, 1, 32)[0]
    rng = random.Random(200 + n)
    support = random_support(rng, n)
    q = q_polynomial(support, n, min_bits=32)
    assert q.context == ctx
    # deg Q < count, so agreeing at the count grid points makes Q the interpolant
    count = n * (n - 1) ** 2 + 5
    for t in range(count):
        assert q_value(q, t) == scalar_q_value(support, n, ctx, t)


@pytest.mark.parametrize("n", [5, 6])
def test_q_polynomial_int64_row_sums_near_2_31(n):
    # under a 30-bit prime a product of two residues is near 2**60, so a row
    # sum over k = N(N-1)² + 5 unreduced products would overflow int64
    ctx = embedding_primes(n, 1, 30)[0]
    assert 1 << 30 < ctx.prime < 1 << 31
    rng = random.Random(250 + n)
    support = random_support(rng, n)
    q = q_polynomial(support, n, min_bits=30)
    assert q.context == ctx
    count = n * (n - 1) ** 2 + 5
    for t in list(range(count)) + [count, 2 * count + 1] + [rng.randrange(count, ctx.prime) for _ in range(3)]:
        assert q_value(q, t) == scalar_q_value(support, n, ctx, t)


@pytest.mark.parametrize(
    "support",
    [[(0, 0), (0, 1)], [(0, 0), (0, 1), (1, 0), (2, 2)], [(0, 0), (0, 1), (0, 1)], [(0, 0), (0, 1), (3, 1)]],
    ids=["short", "long", "duplicate", "duplicate-mod-n"],
)
def test_q_polynomial_refuses_support_not_n_distinct_cells(support):
    with pytest.raises(ValueError, match="support must consist of 3 distinct indices"):
        q_polynomial(support, 3)


# the interpolation point counts k = N(N-1)² + 5 of N = 3..6, each under a
# 20-bit, a 30-bit and a wide (Python-int) prime
INTERPOLATION_KEYS = [
    (n * (n - 1) ** 2 + 5, embedding_primes(n, 1, bits)[0].prime) for n in (3, 4, 5, 6) for bits in (20, 30, 40)
]


@pytest.mark.parametrize("k, p", INTERPOLATION_KEYS)
def test_interpolation_matrix_inverts_vandermonde(k, p):
    m = monomials._interpolation_matrix(k, p)
    assert m.shape == (k, k) and m.dtype == backends.residue_dtype(p)
    vandermonde = np.array([[pow(t, e, p) for e in range(k)] for t in range(k)], dtype=object)
    assert ((m.astype(object).dot(vandermonde) % p) == np.eye(k, dtype=np.int64)).all()
    assert monomials._interpolation_matrix(k, p) is m


def test_cached_interpolation_tables_are_read_only():
    ctx = embedding_primes(3, 1, 20)[0]
    matrix, powers = monomials._interpolation_matrix(17, ctx.prime), monomials._point_powers(3, ctx.prime, 17)
    assert powers.tolist() == [[pow(t, j * j, ctx.prime) for j in range(3)] for t in range(17)]
    for table in (matrix, powers):
        with pytest.raises(ValueError):
            table[0, 0] = 7
    assert monomials._point_powers(3, ctx.prime, 17) is powers


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_interpolation_round_trips_coefficients(data):
    k, p = data.draw(st.sampled_from(INTERPOLATION_KEYS))
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    ys = [0] * k
    for t in range(k):
        for c in reversed(coeffs):
            ys[t] = (ys[t] * t + c) % p
    assert monomials._interpolate_mod(ys, p) == coeffs


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_q_polynomial_off_grid_points(n):
    rng = random.Random(300 + n)
    support = random_support(rng, n)
    q = q_polynomial(support, n)
    # Q is defined on the sorted support, whatever order the caller uses
    assert q_polynomial(support[::-1], n).coeffs == q.coeffs
    count = n * (n - 1) ** 2 + 5
    for t in [count, count + 1, 2 * count + 3] + [rng.randrange(count, q.context.prime) for _ in range(3)]:
        assert q_value(q, t) == scalar_q_value(support, n, q.context, t)


def test_q_polynomial_one_batched_determinant_per_prime(monkeypatch):
    calls = []
    kernel = monomials.det_batch_mod

    def counted(mats, p):
        calls.append(p)
        return kernel(mats, p)

    def forbidden(*args, **kwargs):
        raise AssertionError("Q must not build per-point matrices")

    monkeypatch.setattr(monomials, "det_batch_mod", counted)
    monkeypatch.setattr(operators, "gabor_matrix", forbidden)
    monkeypatch.setattr(operators, "Window", forbidden)
    monkeypatch.setattr(backends, "det_mod", forbidden)
    q = q_polynomial([(0, 0), (0, 1), (1, 0)], 3)
    assert calls == [q.context.prime]


def test_q_polynomial_escalates_when_q_vanishes(monkeypatch):
    calls = []
    kernel = monomials.det_batch_mod

    def vanish_first(mats, p):
        calls.append(p)
        dets = kernel(mats, p)
        return dets * 0 if len(calls) == 1 else dets

    monkeypatch.setattr(monomials, "det_batch_mod", vanish_first)
    q = q_polynomial([(0, 0), (0, 1), (1, 0)], 3)
    primes = [ctx.prime for ctx in embedding_primes(3, 2)]
    assert calls == primes
    assert q.context.prime == primes[1] and q.exponents == (2, 4, 9)


def test_q_exponent_is_moment_identity():
    # substituting z_n -> x^(n²) sends a monomial to x^(N·E[X²])
    for prof in enumerate_profiles(4):
        for cls in partition_classes(prof):
            alpha = monomial_of_class(prof, cls)
            exponent = sum(i * i * a for i, a in enumerate(alpha))
            assert exponent == 4 * monomial_moments(alpha).second


# ---------------------------------------------------------------------------
# cyclic polynomials and rendering
# ---------------------------------------------------------------------------


def test_cyclic_poly_algebra():
    x = CyclicPoly.monomial(4, 1)
    assert (x * x * x * x) == CyclicPoly.one(4)
    a = CyclicPoly(4, (1, 2, 0, 0))
    b = CyclicPoly(4, (0, 0, 1, 1))
    assert a * b == CyclicPoly(4, (2, 0, 1, 3))  # (1+2x)(x²+x³) with x⁴ = 1
    assert (a - a) == CyclicPoly(4)
    assert not CyclicPoly(4)
    with pytest.raises(ValueError):
        a * CyclicPoly(3, (1, 0, 0))


def test_cyclic_poly_evaluation_is_homomorphism():
    import random as pyrandom

    rng = pyrandom.Random(5)
    ctx = embedding_primes(6, 1, 8)[0]
    for _ in range(50):
        a = CyclicPoly(6, [rng.randint(-4, 4) for _ in range(6)])
        b = CyclicPoly(6, [rng.randint(-4, 4) for _ in range(6)])
        assert (a * b).residue(ctx) == a.residue(ctx) * b.residue(ctx) % ctx.prime
        assert (a + b).residue(ctx) == (a.residue(ctx) + b.residue(ctx)) % ctx.prime
        lhs = (a * b).complex_value()
        rhs = a.complex_value() * b.complex_value()
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_cyclic_poly_residue_and_complex():
    ctx = embedding_primes(3, 1, 8)[0]
    omega_poly = CyclicPoly(3, (-1, 1, 0))
    om = ctx.root_of_unity(3)
    assert omega_poly.residue(ctx) == (om - 1) % ctx.prime
    assert abs(omega_poly.complex_value() - (np.exp(2j * np.pi / 3) - 1)) < 1e-12


def test_rendering():
    assert str(CyclicPoly(3, (-1, 1, 0))) == "-1 + ω"
    assert str(CyclicPoly(3, (0, -1, 1))) == "-ω + ω^2"
    assert str(CyclicPoly(3)) == "0"
    assert monomial_str((1, 2, 0)) == "z0*z1^2"
    assert monomial_str((0, 0, 0)) == "1"
