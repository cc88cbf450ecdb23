import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaborglp.backends import (
    COMPLEX_DTYPE,
    FloatBackend,
    ResidueBackend,
    embed_rational_complex,
    embedding_primes,
)
from gaborglp.operators import Window, gabor_matrix
from gaborglp.verify import (
    SupportEnumeration,
    _scan_chunk_float,
    check_support,
    columns_to_support,
    fourier_minor_check,
    verify_glp,
    write_witness_csv,
)
from gaborglp.windows import ones_window, ones_window_exact, random_window

FB = FloatBackend()


def cwin(*entries):
    return Window(np.array(entries, dtype=COMPLEX_DTYPE), FB)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_exhaustive_enumeration_matches_combinations():
    enum = SupportEnumeration(3, "exhaustive")
    got = [tuple(row) for chunk in enum.chunks(17) for row in chunk]
    assert got == list(itertools.combinations(range(9), 3))
    assert enum.total() == math.comb(9, 3)


def test_sampled_enumeration_reproducible_and_distinct():
    a = SupportEnumeration(4, "sampled", count=300, seed=5)
    b = SupportEnumeration(4, "sampled", count=300, seed=5)
    c = SupportEnumeration(4, "sampled", count=300, seed=6)
    la, lb, lc = list(a.supports()), list(b.supports()), list(c.supports())
    assert la == lb
    assert la != lc
    assert len(set(la)) == 300
    assert all(len(set(s)) == 4 and list(s) == sorted(s) for s in la)


def test_sampled_enumeration_validation():
    with pytest.raises(ValueError):
        SupportEnumeration(2, "sampled", count=0, seed=1)
    with pytest.raises(ValueError):
        SupportEnumeration(2, "sampled", count=10, seed=None)
    with pytest.raises(ValueError):
        SupportEnumeration(2, "sampled", count=7, seed=1)  # only C(4,2)=6 exist
    with pytest.raises(ValueError):
        SupportEnumeration(2, "bogus")


def test_columns_to_support():
    assert columns_to_support((0, 5, 15), 4) == ((0, 0), (1, 1), (3, 3))


# ---------------------------------------------------------------------------
# single-support checks
# ---------------------------------------------------------------------------


def test_check_support_equal_columns_dependent():
    verdict = check_support(cwin(1, 1), [(0, 0), (1, 0)])
    assert not verdict.independent
    assert verdict.witness is not None


def test_check_support_independent_example():
    # det [[1,2],[2,-1]] = -5
    verdict = check_support(cwin(1, 2), [(0, 0), (1, 1)])
    assert verdict.independent
    assert abs(verdict.det_modulus - 5.0) < 1e-12


def test_check_support_complex_dependent_example():
    # w = (1, i): det = 1·(-1) - i·i = 0
    verdict = check_support(cwin(1, 1j), [(0, 0), (1, 1)])
    assert not verdict.independent
    mat = gabor_matrix(cwin(1, 1j), verdict.support).matrix.astype(np.complex128)
    wit = verdict.witness
    residual = np.abs(mat @ wit).max()
    assert residual <= 1e-8 * np.abs(mat).max() * np.abs(wit).max() * 2


def test_check_support_permutation_invariance():
    rng = random.Random(3)
    w = cwin(1, 2, 3j)
    support = [(0, 1), (2, 0), (1, 1)]
    base = check_support(w, support).independent
    for perm in itertools.permutations(support):
        assert check_support(w, list(perm)).independent == base


def test_check_support_exact_escalation():
    w = ones_window_exact(2)
    verdict = check_support(w, [(0, 0), (1, 0)])
    assert not verdict.independent
    assert len(verdict.residues) == 3  # three primes agree on zero
    assert all(r == 0 for r in verdict.residues.values())
    ind = check_support(w, [(0, 0), (0, 1)])
    assert ind.independent


def test_check_support_validation():
    with pytest.raises(ValueError):
        check_support(cwin(1, 2), [(0, 0)])
    with pytest.raises(ValueError):
        check_support(cwin(1, 2), [(0, 0), (0, 0)])


# ---------------------------------------------------------------------------
# verify_glp
# ---------------------------------------------------------------------------


def test_verify_glp_n2_independent_window():
    # all six 2×2 determinants: -4, -3, -5, 5, 3, -4
    w = cwin(1, 2)
    dets = []
    for cols in itertools.combinations(range(4), 2):
        support = columns_to_support(cols, 2)
        mat = gabor_matrix(w, support).matrix.astype(np.complex128)
        dets.append(complex(np.linalg.det(mat)))
    assert np.allclose(dets, [-4, -3, -5, 5, 3, -4])
    report = verify_glp(w, SupportEnumeration(2, "exhaustive"))
    assert report.supports_tested == 6
    assert not report.dependent
    assert report.verdict == "glp-certified"


def test_verify_glp_n2_ones_window():
    report = verify_glp(ones_window(2), SupportEnumeration(2, "exhaustive"))
    assert len(report.dependent) >= 1
    assert ((0, 0), (1, 0)) in [d.support for d in report.dependent]
    assert report.verdict == "dependent-found"


def test_verify_glp_constructed_n4(exact_window_4):
    report = verify_glp(exact_window_4, SupportEnumeration(4, "exhaustive"))
    assert report.supports_tested == 1820
    assert not report.dependent
    assert report.primes_used == [exact_window_4.backend.prime]


def test_verify_glp_exact_dependent_reports_primes():
    report = verify_glp(ones_window_exact(2), SupportEnumeration(2, "exhaustive"))
    assert report.dependent
    for dep in report.dependent:
        assert len(dep.residues) == 3
        assert all(r == 0 for r in dep.residues.values())
    assert len(report.primes_used) == 3


def test_verify_glp_worker_count_invariance(exact_window_4):
    enum = SupportEnumeration(4, "exhaustive")
    r1 = verify_glp(exact_window_4, enum, workers=1, chunk_size=300)
    r2 = verify_glp(exact_window_4, enum, workers=2, chunk_size=300)
    d1, d2 = r1.to_dict(), r2.to_dict()
    assert d1 == d2


def test_verify_glp_float_worker_count_invariance():
    w = random_window(3, 7)
    enum = SupportEnumeration(3, "exhaustive")
    r1 = verify_glp(w, enum, workers=1, chunk_size=19)
    r2 = verify_glp(w, enum, workers=2, chunk_size=19)
    assert r1.to_dict() == r2.to_dict()


def test_verify_glp_monotone_sampled_after_exhaustive(exact_window_4):
    full = verify_glp(exact_window_4, SupportEnumeration(4, "exhaustive"))
    assert not full.dependent
    sampled = verify_glp(exact_window_4, SupportEnumeration(4, "sampled", count=250, seed=11))
    assert not sampled.dependent
    assert sampled.verdict == "glp-on-sample"
    assert sampled.supports_tested == 250


def test_verify_glp_deterministic_reports(exact_window_4):
    enum = SupportEnumeration(4, "sampled", count=100, seed=3)
    r1 = verify_glp(exact_window_4, enum)
    r2 = verify_glp(exact_window_4, enum)
    assert r1.to_dict() == r2.to_dict()


def assert_matches_scalar_reference(window):
    """verify_glp's batched escalation agrees with check_support, support by support."""
    n = window.n
    report = verify_glp(window, SupportEnumeration(n, "exhaustive"))
    expected, evaluated = {}, set()
    for cols in itertools.combinations(range(n * n), n):
        verdict = check_support(window, columns_to_support(cols, n))
        evaluated.update(verdict.residues)
        if not verdict.independent:
            expected[verdict.support] = verdict.residues
    assert {d.support: d.residues for d in report.dependent} == expected
    assert report.primes_used == sorted(evaluated)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_escalation_matches_scalar_on_ones_window(n):
    assert_matches_scalar_reference(ones_window_exact(n))


gaussian_rationals = st.tuples(
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


@given(
    st.integers(2, 4).flatmap(lambda n: st.lists(gaussian_rationals, min_size=n, max_size=n)),
    st.integers(4, 10),
)
@settings(max_examples=15, deadline=None)
def test_batched_escalation_matches_scalar_on_rational_windows(rationals, min_bits):
    # small primes make minors that are nonzero over C vanish at the first
    # prime, so escalation resolves some of them and leaves others dependent
    n = len(rationals)
    ctxs = embedding_primes(math.lcm(n, 4), 3, min_bits)
    images = [[embed_rational_complex(c, re, im) for re, im in rationals] for c in ctxs]
    assume(all(any(img) for img in images))
    entries = np.array(images[0], dtype=np.int64)
    window = Window(entries, ResidueBackend(ctxs[0]), rational_entries=tuple(rationals))
    assert_matches_scalar_reference(window)


def test_float_zero_rule_is_strict_in_the_batch_scan():
    # the minor diag(1, eps) sits exactly at the threshold and counts as nonzero
    cols = np.array([[1, 0], [0, FB.eps]], dtype=COMPLEX_DTYPE)
    tested, failures, _ = _scan_chunk_float(np.array([[0, 1]]), cols, FB)
    assert tested == 1 and failures == []


# ---------------------------------------------------------------------------
# backend agreement on rational-complex windows
# ---------------------------------------------------------------------------


def test_backend_agreement_on_rational_windows():
    rng = random.Random(2024)
    agreements = 0
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        L = math.lcm(n, 4)
        ctx = embedding_primes(L, 1, 16)[0]
        rationals = tuple(
            (
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
            )
            for _ in range(n)
        )
        if all(re == 0 and im == 0 for re, im in rationals):
            continue
        entries = np.array(
            [embed_rational_complex(ctx, re, im) for re, im in rationals], dtype=np.int64
        )
        if not entries.any():
            continue
        exact_w = Window(entries, ResidueBackend(ctx), rational_entries=rationals)
        float_w = Window(
            np.array([complex(re) + 1j * complex(im) for re, im in rationals], dtype=COMPLEX_DTYPE),
            FB,
        )
        support = sorted(rng.sample([(a, b) for a in range(n) for b in range(n)], n))
        ve = check_support(exact_w, support)
        vf = check_support(float_w, support)
        assert ve.independent == vf.independent, (rationals, support)
        agreements += 1
    assert agreements >= 150


# ---------------------------------------------------------------------------
# witnesses and CSV export
# ---------------------------------------------------------------------------


def test_float_witness_validity():
    w = ones_window(3)  # translates coincide, so many supports are dependent
    report = verify_glp(w, SupportEnumeration(3, "exhaustive"))
    assert report.dependent
    for dep in report.dependent:
        mat = gabor_matrix(w, dep.support).matrix.astype(np.complex128)
        wit = np.array(dep.witness)
        assert np.linalg.norm(wit) > 0.5  # unit-ish singular vector
        residual = np.linalg.norm(mat @ wit)
        assert residual <= 1e-8 * np.linalg.norm(mat) * np.linalg.norm(wit)


def test_witness_csv(tmp_path):
    report = verify_glp(ones_window(2), SupportEnumeration(2, "exhaustive"))
    path = tmp_path / "witnesses.csv"
    write_witness_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,support,backend,determinant"
    assert len(lines) == 1 + len(report.dependent)
    assert any("0,0;1,0" in line for line in lines[1:])

    exact_report = verify_glp(ones_window_exact(2), SupportEnumeration(2, "exhaustive"))
    path2 = tmp_path / "witnesses_exact.csv"
    write_witness_csv(exact_report, path2)
    body = path2.read_text().strip().splitlines()[1:]
    assert all("exact" in line for line in body)
    assert all(line.count(":") >= 3 for line in body)  # prime:residue triples


# ---------------------------------------------------------------------------
# Fourier minor checks
# ---------------------------------------------------------------------------


def test_fourier_minor_check_p2():
    report = fourier_minor_check(2)
    assert report.passed
    assert report.minors_tested == 5  # 4 entries + 1 full determinant


def test_fourier_minor_check_p3():
    report = fourier_minor_check(3)
    assert report.passed
    assert report.minors_tested == 19  # 9 + 9 + 1


def test_fourier_minor_check_p5():
    report = fourier_minor_check(5)
    assert report.passed
    assert report.minors_tested == sum(math.comb(5, k) ** 2 for k in range(1, 6))


def test_fourier_minor_check_guards():
    with pytest.raises(ValueError):
        fourier_minor_check(4)
    with pytest.raises(ValueError):
        fourier_minor_check(11)


def test_full_verification_against_independent_construction(float_window_4):
    # build every minor straight from the definition (explicit loops, cmath
    # phases, LAPACK determinants) and compare verdicts over all supports
    import cmath

    n = 4
    w = [complex(z) for z in float_window_4.entries]

    def column(kappa, lam):
        return [cmath.exp(2j * cmath.pi * j * lam / n) * w[(j - kappa) % n] for j in range(n)]

    report = verify_glp(float_window_4, SupportEnumeration(n, "exhaustive"))
    assert not report.dependent
    for cols in itertools.combinations(range(n * n), n):
        mat = np.array([column(c // n, c % n) for c in cols]).T
        det = np.linalg.det(mat)
        assert abs(det) > 1e-8 * np.abs(mat).max()  # agrees: all independent
        ours = gabor_matrix(float_window_4, columns_to_support(cols, n)).matrix
        assert np.allclose(ours.astype(np.complex128), mat, atol=1e-14)


def test_verify_glp_with_wide_prime():
    # primes past the int64 batching limit run the kernel on Python ints
    from gaborglp.windows import power_window_root_of_unity

    w = power_window_root_of_unity(4, min_bits=32)
    assert w.backend.prime >= 1 << 32
    report = verify_glp(w, SupportEnumeration(4, "sampled", count=40, seed=2), num_primes=1)
    assert report.supports_tested == 40
    assert not report.dependent
