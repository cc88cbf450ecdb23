import csv
import hashlib
import io
import itertools
import json
import math
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaborglp.backends import (
    COMPLEX_DTYPE,
    FloatBackend,
    ResidueBackend,
    det_batch_mod,
    det_batch_nonzero_mod,
    det_mod,
    embed_rational_complex,
    embedding_primes,
)
from gaborglp import backends
from gaborglp import verify as verify_module
from gaborglp.cli import _write
from gaborglp.monomials import q_polynomial
from gaborglp.operators import Window, gabor_matrix, system_matrix
from gaborglp.verify import (
    DEFAULT_CHUNK,
    SupportEnumeration,
    VerificationReport,
    _escalate,
    _embeddings,
    _exact_windows,
    _leaves,
    _dets_float,
    _minors_mod,
    _orbit_members,
    _scan_chunk_exact,
    _scan_chunk_float,
    _unrank,
    fourier_minor_check,
    verify_glp,
    write_witness_csv,
)
from gaborglp.windows import (
    ones_window,
    ones_window_exact,
    power_window_generic,
    power_window_root_of_unity,
    power_window_root_of_unity_float,
    random_window,
)
from oracles import check_support, det_float_right_looking, same_bits

FB = FloatBackend()


def cwin(*entries):
    return Window(np.array(entries, dtype=COMPLEX_DTYPE), FB)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def columns_to_support(cols, n):
    return tuple((int(c) // n, int(c) % n) for c in cols)


def dependent_supports(report):
    """The report's dependent supports, as tuples of (κ, λ) cells."""
    return [columns_to_support(cols, report.n) for cols in report.dependent]


def written(report):
    """The report as the CLI writes it, read back."""
    return json.loads("".join(_write(report.to_columns())))


def translates(support, n):
    """All N² translates of a support, as sorted tuples (with repeats)."""
    return [
        tuple(sorted(((c // n + a) % n) * n + (c % n + b) % n for c in support))
        for a in range(n)
        for b in range(n)
    ]


def representative_blocks(n, size=DEFAULT_CHUNK):
    """The exact exhaustive scan's blocks of orbit representatives and their
    orbit sizes: `_leaves` over the walk's leaf tasks, under the first
    embedding of `ones_window_exact(n)` (the blocks do not depend on it)."""
    first = _embeddings(ones_window_exact(n), 1)[0]
    for task in SupportEnumeration(n, "exhaustive").chunks(size, first):
        r, y, weights, _ = _leaves(task, first)
        yield np.column_stack([task[0][r], y]), weights


def test_exhaustive_enumeration_matches_combinations():
    # orbit representatives expand to every support exactly once
    orbits = {}
    for n in range(1, 6):
        chunks = list(representative_blocks(n, 97))
        members = [tuple(map(int, r)) for reps, _ in chunks for r in _orbit_members(reps)]
        assert sorted(members) == list(itertools.combinations(range(n * n), n))
        reps = [tuple(map(int, row)) for reps, _ in chunks for row in reps]
        weights = [int(w) for _, ws in chunks for w in ws]
        assert sum(weights) == SupportEnumeration(n, "exhaustive").total() == math.comb(n * n, n)
        for rep, weight in zip(reps, weights):
            assert rep == min(translates(rep, n))
            assert weight == len(set(translates(rep, n)))
        orbits[n] = len(reps)
    assert orbits[4] == 122 and orbits[5] == 2130


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exhaustive_chunks_without_an_embedding_are_combinations(n):
    # the float scan's stream: every support by rank, in blocks of at most
    # size // N rows (at least one)
    for size in (1, 7, 97, DEFAULT_CHUNK) if n <= 3 else (97, DEFAULT_CHUNK):
        blocks = list(SupportEnumeration(n, "exhaustive").chunks(size))
        assert all(0 < len(rows) <= max(1, size // n) for rows in blocks)
        rows = [tuple(row) for block in blocks for row in block.tolist()]
        assert rows == list(itertools.combinations(range(n * n), n))


@pytest.mark.parametrize("n", [0, -2])
def test_enumeration_refuses_n_below_1(n):
    for kwargs in ({}, {"mode": "sampled", "count": 1, "seed": 1}):
        with pytest.raises(ValueError, match=f"N must be at least 1, got {n}"):
            SupportEnumeration(n, **kwargs)


def test_orbits_at_the_full_mask_width():
    # N = 8 uses all 64 bits of a support mask; N = 9 would need 81
    with pytest.raises(ValueError):
        SupportEnumeration(9, "exhaustive")
    reps, weights = next(representative_blocks(8, 300))
    members = _orbit_members(reps)
    assert len(members) == weights.sum()
    start = 0
    for rep, weight in zip(reps.tolist(), weights.tolist()):
        orbit = set(translates(rep, 8))
        assert tuple(rep) == min(orbit) and weight == len(orbit)
        assert {tuple(m) for m in members[start : start + weight].tolist()} == orbit
        start += weight


@pytest.mark.parametrize("n, size", [(5, 1), (6, 97), (6, DEFAULT_CHUNK)])
def test_exhaustive_blocks_are_bounded_and_increasing(n, size):
    # blocks hold at most `size` rows, and representatives rise strictly
    # across blocks, so no orbit is listed twice
    blocks = list(representative_blocks(n, size))
    assert all(len(reps) <= size for reps, _ in blocks)
    reps = [tuple(row) for block, _ in blocks for row in block.tolist()]
    assert reps == sorted(set(reps))
    assert len(reps) == {5: 2130, 6: 54192}[n]
    assert sum(int(weights.sum()) for _, weights in blocks) == math.comb(n * n, n)


# sha256 over the exact exhaustive blocks of `chunks(DEFAULT_CHUNK, embedding)`,
# each block's representatives then their orbit sizes as int64 bytes
REPRESENTATIVE_BLOCKS = {
    2: "843bddb2c20ad2479b9e7f7147891b677b1a1a494d47da47b94cc4e3ddf3c402",
    3: "a98f7a41f9cbfca969d16f0b0c47b0616599049fc3c5ba475174bffa1287117a",
    4: "fcade853af67a7caccf9d65f4cd449559da28f9766d1d865a27a67058adb28f7",
    5: "d3ad1bfd9dacb8ac4695a509bb85d58ed11e6ece1c233ac994801d11f94ec444",
    6: "c83463b05d48fb4d5b821bc9b1e95d18be360fa95cd6d970e5ada86c3aa664d4",
    7: "09916acd39d79b0a983a28a0c436295d70b0f951fe935ee2b4b1020c6d173fd0",
}


@pytest.mark.parametrize("n", sorted(REPRESENTATIVE_BLOCKS))
def test_representative_blocks_are_pinned(n):
    # the least-translate test looks only at translates Λ-e with e + c₁ ∈ Λ;
    # the blocks are those of the test over every translate that contains 0
    digest = hashlib.sha256()
    for reps, weights in representative_blocks(n):
        digest.update(reps.astype(np.int64).tobytes())
        digest.update(weights.astype(np.int64).tobytes())
    assert digest.hexdigest() == REPRESENTATIVE_BLOCKS[n]


def test_least_translates_pass_the_difference_bound():
    # a least translate {0 < c₁ < …} has every column difference ≥ c₁, so
    # growing rows under that bound drops no representative
    for n in range(1, 6):
        for s in itertools.combinations(range(n * n), n):
            if s[0] == 0 and s == min(translates(s, n)):
                diffs = [(x // n - y // n) % n * n + (x - y) % n for x in s for y in s if x != y]
                assert min(diffs, default=0) >= min(s[1:], default=0)


def test_unrank_equals_combinations_order():
    for m, k in [(1, 1), (4, 2), (9, 3), (16, 4), (25, 5)]:
        rows = _unrank(np.arange(math.comb(m, k)), m, k)
        assert list(map(tuple, rows.tolist())) == list(itertools.combinations(range(m), k))
    for m, k in [(64, 8), (81, 9), (196, 14)]:  # C(196, 14) > 2**63: ranks are Python ints
        last = math.comb(m, k) - 1
        ranks = np.array([0, 1, last - 1, last], dtype=np.int64 if last < 2**63 else object)
        rows = _unrank(ranks, m, k).tolist()
        head, tail = list(range(k - 1)), list(range(m - k + 1, m))
        assert rows == [head + [k - 1], head + [k], [m - k - 1, *tail], [m - k, *tail]]


def test_sampled_enumeration_reproducible_and_distinct():
    def draws(enum, size=64):
        return [tuple(map(int, row)) for rows in enum.chunks(size) for row in rows]

    a = SupportEnumeration(4, "sampled", count=300, seed=5)
    b = SupportEnumeration(4, "sampled", count=300, seed=5)
    c = SupportEnumeration(4, "sampled", count=300, seed=6)
    la, lb, lc = draws(a), draws(b), draws(c)
    assert la == lb
    assert la != lc
    assert len(set(la)) == 300
    assert all(len(set(s)) == 4 and list(s) == sorted(s) for s in la)
    # the whole stream is in `combinations` order, across blocks too
    for size in (1, 64, DEFAULT_CHUNK):
        stream = draws(a, size)
        assert stream == la and all(s < t for s, t in zip(stream, stream[1:]))


@pytest.mark.parametrize("n, size", [(4, 1), (4, 64), (8, 100), (14, 1000)])
def test_sampled_blocks_are_bounded_like_exhaustive_ones(n, size):
    # a block holds at most size // N rows (at least one), as in exhaustive
    # mode, so that its minors hold at most size·N entries
    enum = SupportEnumeration(n, "sampled", count=300, seed=5)
    blocks = list(enum.chunks(size))
    assert all(len(rows) <= max(1, size // n) for rows in blocks)
    assert sum(map(len, blocks)) == 300


def test_sampled_enumeration_validation():
    with pytest.raises(ValueError):
        SupportEnumeration(2, "sampled", count=0, seed=1)
    with pytest.raises(ValueError):
        SupportEnumeration(2, "sampled", count=10, seed=None)
    with pytest.raises(ValueError):
        SupportEnumeration(2, "sampled", count=7, seed=1)  # only C(4,2)=6 exist
    with pytest.raises(ValueError):
        SupportEnumeration(2, "bogus")


# ---------------------------------------------------------------------------
# the scalar oracle (tests/oracles.py)
# ---------------------------------------------------------------------------


def test_check_support_equal_columns_dependent():
    independent, entry = check_support(cwin(1, 1), [(0, 0), (1, 0)])
    assert not independent
    assert "witness" in entry


def test_check_support_independent_example():
    # det [[1,2],[2,-1]] = -5
    independent, entry = check_support(cwin(1, 2), [(0, 0), (1, 1)])
    assert independent
    assert abs(entry["det_modulus"] - 5.0) < 1e-12


def test_check_support_complex_dependent_example():
    # w = (1, i): det = 1·(-1) - i·i = 0
    independent, entry = check_support(cwin(1, 1j), [(0, 0), (1, 1)])
    assert not independent
    mat = gabor_matrix(cwin(1, 1j), entry["support"]).astype(np.complex128)
    wit = np.array(entry["witness"]) @ [1, 1j]
    residual = np.abs(mat @ wit).max()
    assert residual <= 1e-8 * np.abs(mat).max() * np.abs(wit).max() * 2


def test_check_support_permutation_invariance():
    rng = random.Random(3)
    w = cwin(1, 2, 3j)
    support = [(0, 1), (2, 0), (1, 1)]
    independent, _ = check_support(w, support)
    for perm in itertools.permutations(support):
        assert check_support(w, list(perm))[0] == independent


def test_check_support_exact_escalation():
    w = ones_window_exact(2)
    independent, entry = check_support(w, [(0, 0), (1, 0)])
    assert not independent
    assert len(entry["residues"]) == 3  # three primes agree on zero
    assert all(r == 0 for r in entry["residues"].values())
    independent, _ = check_support(w, [(0, 0), (0, 1)])
    assert independent


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
        mat = gabor_matrix(w, support).astype(np.complex128)
        dets.append(complex(np.linalg.det(mat)))
    assert np.allclose(dets, [-4, -3, -5, 5, 3, -4])
    report = verify_glp(w, SupportEnumeration(2, "exhaustive"))
    assert report.supports_tested == 6
    assert not len(report.dependent)
    assert report.verdict == "glp-certified"


def test_verify_glp_n2_ones_window():
    report = verify_glp(ones_window(2), SupportEnumeration(2, "exhaustive"))
    assert len(report.dependent) >= 1
    assert ((0, 0), (1, 0)) in dependent_supports(report)
    assert report.verdict == "dependent-found"


def test_verify_glp_constructed_n4(exact_window_4):
    report = verify_glp(exact_window_4, SupportEnumeration(4, "exhaustive"))
    assert report.supports_tested == 1820
    assert not len(report.dependent)
    assert report.primes_used == [exact_window_4.backend.prime]


def test_verify_glp_exact_dependent_reports_primes():
    report = verify_glp(ones_window_exact(2), SupportEnumeration(2, "exhaustive"))
    assert len(report.dependent)
    for dep in written(report)["dependent_supports"]:
        assert len(dep["residues"]) == 3
        assert all(r == 0 for r in dep["residues"].values())
    assert len(report.primes_used) == 3


def test_report_holds_the_scan_arrays():
    # the 50,005 dependent supports of exact ones at N = 5 stay one (D, N)
    # int64 array, about 2 MB, not a Python record per support
    tracemalloc.start()
    try:
        report = verify_glp(ones_window_exact(5), SupportEnumeration(5, "exhaustive"))
        held = tracemalloc.get_traced_memory()[0]
        assert report.dependent.shape == (50_005, 5)
        del report
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 4 * 2**20


def test_verify_glp_worker_count_invariance(exact_window_4, exact_window_5):
    enum = SupportEnumeration(4, "exhaustive")
    r1 = verify_glp(exact_window_4, enum, workers=1, chunk_size=300)
    r2 = verify_glp(exact_window_4, enum, workers=2, chunk_size=300)
    d1, d2 = written(r1), written(r2)
    assert d1 == d2
    # small blocks split the candidates that share a prefix (0, c₁, c₂)
    enum = SupportEnumeration(5, "exhaustive")
    blocks = [reps for reps, _ in representative_blocks(5, 50)]
    assert any((a[-1, :3] == b[0, :3]).all() for a, b in zip(blocks, blocks[1:]))
    r1 = verify_glp(exact_window_5, enum, workers=1, chunk_size=50)
    r2 = verify_glp(exact_window_5, enum, workers=2, chunk_size=50)
    assert r1.supports_tested == math.comb(25, 5) and written(r1) == written(r2)


def test_verify_glp_worker_count_invariance_with_dependent_orbits():
    # stabilized orbits of the ones window expand to their members in the workers
    enum = SupportEnumeration(4, "exhaustive")
    r1 = verify_glp(ones_window_exact(4), enum, workers=1, chunk_size=50)
    r2 = verify_glp(ones_window_exact(4), enum, workers=2, chunk_size=50)
    assert len(r1.dependent) and written(r1) == written(r2)


def test_verify_glp_float_worker_count_invariance():
    w = random_window(3, 7)
    enum = SupportEnumeration(3, "exhaustive")
    r1 = verify_glp(w, enum, workers=1, chunk_size=19)
    r2 = verify_glp(w, enum, workers=2, chunk_size=19)
    assert written(r1) == written(r2)


def test_verify_glp_monotone_sampled_after_exhaustive(exact_window_4):
    full = verify_glp(exact_window_4, SupportEnumeration(4, "exhaustive"))
    assert not len(full.dependent)
    sampled = verify_glp(exact_window_4, SupportEnumeration(4, "sampled", count=250, seed=11))
    assert not len(sampled.dependent)
    assert sampled.verdict == "glp-on-sample"
    assert sampled.supports_tested == 250


@pytest.mark.parametrize(
    "make, n, dependent",
    [(make, n, d) for make in (ones_window_exact, ones_window) for n, d in ((3, 57), (4, 1564))]
    + [(power_window_root_of_unity, 4, 0), (power_window_root_of_unity_float, 4, 0)],
)
def test_sampling_every_support_reports_what_exhaustive_mode_does(make, n, dependent):
    # the enumeration strategy never changes a verdict: sampled mode over all
    # C(N², N) supports scans plain rows where the exact exhaustive scan shares
    # one verdict per orbit, and both feed the float scan the same rows
    window, total = make(n), math.comb(n * n, n)
    full = verify_glp(window, SupportEnumeration(n, "exhaustive"), chunk_size=97)
    sampled = verify_glp(window, SupportEnumeration(n, "sampled", count=total, seed=7))
    assert full.supports_tested == sampled.supports_tested == total
    assert np.array_equal(full.dependent, sampled.dependent)
    assert full.primes_used == sampled.primes_used
    if window.backend.kind == "float":
        assert same_bits(full.det_modulus, sampled.det_modulus)
        assert same_bits(full.witness, sampled.witness)
    assert len(full.dependent) == dependent


def test_verify_glp_deterministic_reports(exact_window_4):
    enum = SupportEnumeration(4, "sampled", count=100, seed=3)
    r1 = verify_glp(exact_window_4, enum)
    r2 = verify_glp(exact_window_4, enum)
    assert written(r1) == written(r2)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_size", [4, DEFAULT_CHUNK])
def test_verify_glp_refuses_a_scan_that_misses_supports(monkeypatch, exact_window_4, workers, chunk_size):
    # the weights of a lost representative are missing from the count: the
    # walk loses the first candidate, (0, 1, 2, 3) of weight 4, which is one
    # whole leaf task when a task holds one candidate (chunk_size 4)
    walk = verify_module._walk

    def drop_one(n, size, embedding):
        tasks = walk(n, size, embedding)
        *parents, leaves = next(tasks)
        if len(leaves) > 1:
            yield *parents, leaves[1:]
        yield from tasks

    monkeypatch.setattr(verify_module, "_walk", drop_one)
    with pytest.raises(RuntimeError, match="covered 1816 of 1820 supports"):
        verify_glp(exact_window_4, SupportEnumeration(4, "exhaustive"), workers, chunk_size=chunk_size)


def assert_matches_scalar_reference(window):
    """verify_glp's batched escalation agrees with the scalar oracle: its
    `dependent_supports` equal the oracle's entries for the dependent
    supports, entry for entry and in order."""
    n = window.n
    report = verify_glp(window, SupportEnumeration(n, "exhaustive"))
    verdicts = [
        check_support(window, columns_to_support(cols, n))
        for cols in itertools.combinations(range(n * n), n)
    ]
    expected = [entry for independent, entry in verdicts if not independent]
    assert written(report)["dependent_supports"] == expected
    primes = set().union(*(map(int, entry["residues"]) for _, entry in verdicts))
    assert report.primes_used == sorted(primes)


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
    # prime, so escalation resolves some of them and leaves others dependent;
    # a later prime under which the window vanishes is passed over
    n = len(rationals)
    ctx = embedding_primes(math.lcm(n, 4), 1, min_bits)[0]
    entries = np.array([embed_rational_complex(ctx, re, im) for re, im in rationals])
    assume(entries.any())  # a window is nonzero under its own prime
    window = Window(entries, ResidueBackend(ctx), rational_entries=tuple(rationals))
    assert_matches_scalar_reference(window)


@pytest.mark.parametrize(
    "rationals",
    [
        ((Fraction(29), Fraction(0)), (Fraction(0), Fraction(29))),  # vanishes mod 29
        ((Fraction(1, 29), Fraction(0)), (Fraction(0), Fraction(1, 29))),  # no image mod 29
    ],
)
def test_escalation_passes_over_primes_without_an_image(rationals):
    ctxs = embedding_primes(4, 4, 4)
    assert [c.prime for c in ctxs] == [17, 29, 37, 41]
    entries = np.array([embed_rational_complex(ctxs[0], re, im) for re, im in rationals])
    window = Window(entries, ResidueBackend(ctxs[0]), rational_entries=rationals)
    # the window is a multiple of (1, i), so these two minors vanish over C
    report = verify_glp(window, SupportEnumeration(2, "exhaustive"))
    dependent = [((0, 0), (1, 1)), ((0, 1), (1, 0))]
    assert dependent_supports(report) == dependent
    residues = {"17": 0, "37": 0, "41": 0}
    assert all(d["residues"] == residues for d in written(report)["dependent_supports"])
    assert report.primes_used == [17, 37, 41]
    assert check_support(window, dependent[0])[1]["residues"] == residues


def full_enumeration_oracle(window):
    """Dependent supports and primes used, escalating over every combination."""
    n = window.n
    sel = np.array(list(itertools.combinations(range(n * n), n)))
    embeddings = [(system_matrix(w), w.backend.prime) for w in _exact_windows(window, 3)]
    # full minors, not the scan's runs of minors that share N-1 columns
    zero, used = _escalate(
        lambda i, rows: det_batch_nonzero_mod(
            embeddings[i][0][:, sel[rows]].transpose(1, 0, 2), embeddings[i][1]
        ),
        [p for _, p in embeddings],
    )
    return [columns_to_support(sel[k], n) for k in zero], sorted(used)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("make", [power_window_root_of_unity, ones_window_exact])
def test_orbit_scan_matches_full_enumeration(n, make):
    window = make(n)
    report = verify_glp(window, SupportEnumeration(n, "exhaustive"), chunk_size=500)
    dependent, primes_used = full_enumeration_oracle(window)
    assert report.supports_tested == math.comb(n * n, n)
    assert dependent_supports(report) == dependent
    residues = dict.fromkeys(map(str, primes_used), 0)
    assert all(d["residues"] == residues for d in written(report)["dependent_supports"])
    assert report.primes_used == primes_used


def scalar_minors(cols, p, sel):
    """det_mod of each row's minor, the columns given one per row of `cols`."""
    return [det_mod(cols[row].T.tolist(), p) for row in sel]


@pytest.mark.parametrize(
    "make, n",
    [(power_window_root_of_unity, n) for n in (4, 5, 6)] + [(ones_window_exact, n) for n in range(2, 7)],
)
def test_walk_residues_equal_full_minor_residues(make, n):
    # under every escalation prime, the walk's residue of each representative
    # is its minor's determinant: scalar det_mod up to N = 5, and the batched
    # kernel on the gathered minors at N = 6
    embeddings = _embeddings(make(n), 3)
    for sel, _ in representative_blocks(n):
        for cols, p in embeddings:
            residues = _minors_mod(cols, p, sel)
            if n <= 5:
                assert residues.tolist() == scalar_minors(cols, p, sel)
            else:
                assert (residues == det_batch_mod(cols[sel].transpose(0, 2, 1), p)).all()


def test_walk_residues_just_below_int64_products():
    # primes of 2**30 or more, and below 2**31: the largest primes whose
    # residue products the walk takes in int64
    embeddings = _embeddings(power_window_root_of_unity(5, min_bits=30), 3)
    assert all(2**30 <= p < 2**31 and cols.dtype == np.int64 for cols, p in embeddings)
    for sel, _ in representative_blocks(5):
        for cols, p in embeddings:
            assert _minors_mod(cols, p, sel).tolist() == scalar_minors(cols, p, sel)


def test_wide_prime_scan_finds_every_zero_residue():
    # the walk on Python ints, with zero residues and shared prefixes, under
    # three primes of 2**32 or more
    wide = verify_glp(ones_window_exact(4, min_bits=32), SupportEnumeration(4, "exhaustive"))
    narrow = verify_glp(ones_window_exact(4), SupportEnumeration(4, "exhaustive"))
    assert len(wide.primes_used) == 3 and all(p >= 2**32 for p in wide.primes_used)
    assert len(wide.dependent) == 1564
    assert np.array_equal(wide.dependent, narrow.dependent)


@pytest.mark.parametrize("make", [power_window_root_of_unity, ones_window_exact])
def test_walk_residues_do_not_depend_on_row_order(make):
    # shuffling a chunk's rows breaks its shared prefixes but changes no residue
    embeddings = _embeddings(make(5), 3)
    rng = np.random.default_rng(5)
    for sel, _ in representative_blocks(5, 700):
        perm = rng.permutation(len(sel))
        for cols, p in embeddings:
            assert (_minors_mod(cols, p, sel[perm]) == _minors_mod(cols, p, sel)[perm]).all()
        scans = [_scan_chunk_exact(sel[o], embeddings) for o in (slice(None), perm)]
        (tested, (rows,), used), (tested2, (rows2,), used2) = scans
        assert (tested, used) == (tested2, used2)
        assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, rows2.tolist()))


@pytest.mark.parametrize("chunk_size", [97, DEFAULT_CHUNK])
def test_walk_steps_once_per_grown_row(monkeypatch, exact_window_5, chunk_size):
    # below the last depth, one Laplace step per row that the walk grows, and
    # at the last depth one cofactor dot per representative, on its parent's
    # minors; the rows grown are counted here from every prefix under the
    # difference bound.  No step's products hold more than chunk_size entries.
    n, nn = 5, 25
    steps = {}
    kernel, last = verify_module.laplace_step_mod, verify_module.last_step_mod

    def counted(coords, cols, d, p):
        steps[p, d] = steps.get((p, d), 0) + len(cols)
        assert len(cols) * math.comb(n, d + 1) * (d + 1) <= chunk_size
        return kernel(coords, cols, d, p)

    def counted_last(coords, parent, cols, p):
        steps[p, n - 1] = steps.get((p, n - 1), 0) + len(cols)
        assert len(cols) * n <= chunk_size and coords.shape[1] == n and len(parent) == len(cols)
        return last(coords, parent, cols, p)

    def sep(x, y):
        return min((x // n - y // n) % n * n + (x - y) % n, (y // n - x // n) % n * n + (y - x) % n)

    def grown(k):  # rows (0, c₁, …) of k columns with room left and every difference ≥ c₁
        return sum(
            t[0] == 0
            and all(c <= nn - n + j for j, c in enumerate(t))
            and all(sep(x, y) >= t[1] for x, y in itertools.combinations(t, 2))
            for t in itertools.combinations(range(nn), k)
        )

    monkeypatch.setattr(verify_module, "laplace_step_mod", counted)
    monkeypatch.setattr(verify_module, "last_step_mod", counted_last)
    report = verify_glp(exact_window_5, SupportEnumeration(n, "exhaustive"), chunk_size=chunk_size)
    [p] = report.primes_used
    assert [steps[p, d] for d in range(n)] == [grown(k) for k in range(1, n)] + [2130]
    assert [grown(k) for k in range(1, n)] == [1, 12, 89, 531]


@pytest.mark.parametrize(
    "make, n",
    [(ones_window_exact, n) for n in range(1, 7)] + [(power_window_root_of_unity, n) for n in (4, 5, 6)],
)
def test_walk_minors_equal_the_kernel_over_the_same_blocks(make, n):
    # the walk's blocks do not depend on the window, and its minors under the
    # first prime, one per representative parents[r] + y, are `_minors_mod`'s
    # over them; at N = 1 the root is a leaf, at N = 2 a leaf's c₁ is its new
    # column, and blocks of 97 split the intermediate steps
    first = _embeddings(make(n), 1)[0]
    enum = SupportEnumeration(n, "exhaustive")
    for size in (97, DEFAULT_CHUNK) if n <= 5 else (DEFAULT_CHUNK,):
        tasks = list(enum.chunks(size, first))
        walked = [_leaves(task, first) for task in tasks]
        blocks = list(representative_blocks(n, size))
        assert len(walked) == len(blocks)
        for task, (r, y, weights, minors), (reps, ws) in zip(tasks, walked, blocks):
            sel = np.column_stack([task[0][r], y])
            assert np.array_equal(sel, reps) and np.array_equal(weights, ws)
            assert np.array_equal(minors, _minors_mod(*first, sel))


@pytest.mark.parametrize("make, zeros", [(power_window_root_of_unity, 0), (ones_window_exact, 102)])
def test_leaf_scan_escalates_only_the_first_prime_zeros(monkeypatch, make, zeros):
    # the leaf tasks build column rows, and escalate, only for the
    # representatives zero at the first prime: none for the constructed
    # window, 102 of 122 for `ones` at N = 4, whose orbits hold its 1,564
    # dependent supports
    escalated = []
    scan = verify_module._scan_chunk_exact

    def counted(sel, embeddings, first=None):
        escalated.append(len(sel))
        assert first is not None and not first.any()
        return scan(sel, embeddings, first)

    monkeypatch.setattr(verify_module, "_scan_chunk_exact", counted)
    report = verify_glp(make(4), SupportEnumeration(4, "exhaustive"), chunk_size=97)
    assert len(escalated) > 1 and sum(escalated) == zeros
    assert len(report.dependent) == (1564 if zeros else 0)


def test_every_exact_determinant_runs_on_the_laplace_step(monkeypatch):
    # one exact kernel: Q(x), the Fourier check and the exact scan each
    # reach laplace_step_mod, wherever a module holds it
    calls = []
    kernel = backends.laplace_step_mod

    def counted(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("gaborglp") and hasattr(module, "laplace_step_mod"):
            monkeypatch.setattr(module, "laplace_step_mod", counted)
    for run in (
        lambda: q_polynomial([(0, 0), (0, 1), (1, 0)], 3),
        lambda: fourier_minor_check(3),
        lambda: verify_glp(power_window_root_of_unity(4), SupportEnumeration(4, "exhaustive")),
    ):
        calls.clear()
        run()
        assert calls


@pytest.mark.parametrize("n", [3, 4])
def test_float_scan_tests_every_orbit_member(n):
    # the scan's moduli and batched witnesses equal, bit for bit, those that
    # the scalar oracle computes for each support on its own, and the written
    # report lists the oracle's entries
    window = ones_window(n)
    report = verify_glp(window, SupportEnumeration(n, "exhaustive"), chunk_size=7)
    rows, entries = [], []
    for cols in itertools.combinations(range(n * n), n):
        independent, entry = check_support(window, columns_to_support(cols, n))
        if not independent:
            rows.append(list(cols))
            entries.append(entry)
    assert report.supports_tested == math.comb(n * n, n)
    assert report.dependent.tolist() == rows
    assert same_bits(report.det_modulus, np.array([e["det_modulus"] for e in entries]))
    witnesses = [[complex(re, im) for re, im in e["witness"]] for e in entries]
    assert same_bits(report.witness, np.array(witnesses))
    assert written(report)["dependent_supports"] == entries


@given(
    st.integers(1, 4),
    st.sampled_from([COMPLEX_DTYPE, np.complex128]),
    st.sampled_from([7, 64, DEFAULT_CHUNK]),
    st.sampled_from(["exhaustive", "sampled", "shuffled", "repeated", "one"]),
    st.integers(0, 10**6),
)
@settings(max_examples=50, deadline=None)
def test_float_prefix_walk_equals_right_looking(n, dtype, size, order, seed):
    # the left-looking walk shares each column prefix; its determinants equal,
    # bit for bit, right-looking elimination of each gathered matrix, for rows
    # in `combinations` order cut at block borders, sorted sampled rows,
    # shuffled rows, repeated rows and stacks of one
    rng = np.random.default_rng(seed)
    nn = n * n
    cols = rng.standard_normal((n, nn)) + 1j * rng.standard_normal((n, nn))
    cols[0, 0] = 0  # rows that start at column 0 swap at their first pivot
    if nn > 1:
        cols[:, 1] = 0  # a zero column: a zero pivot, and a division by one after it
    if nn > 3:
        cols[:, 3] = cols[:, 2]  # a repeated column: singular, with rounding noise
    cols = cols.astype(dtype)
    sampled = SupportEnumeration(n, "sampled", count=min(300, math.comb(nn, n)), seed=seed)
    rows = np.concatenate(list(sampled.chunks()))
    twice = rng.integers(0, len(rows), 2 * len(rows))
    blocks = {
        "exhaustive": itertools.islice(SupportEnumeration(n, "exhaustive").chunks(size), 40),
        "sampled": sampled.chunks(size),
        "shuffled": [rows[rng.permutation(len(rows))]],
        "repeated": [rows[np.sort(twice)], rows[twice]],
        "one": rows[:40, None],
    }[order]
    for sel in blocks:
        before = cols.copy()
        dets = _dets_float(cols, sel)
        assert dets.dtype == dtype and same_bits(cols, before)
        assert same_bits(dets, det_float_right_looking(cols[:, sel].transpose(1, 0, 2)))


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            st.permutations(range(n * n)).map(lambda cells: cells[:n]),
            st.integers(0, n - 1),
            st.integers(0, n - 1),
        )
    ),
    st.integers(3, 6),
)
@settings(max_examples=60, deadline=None)
def test_minor_vanishes_alike_on_a_translation_orbit(case, min_bits):
    # G of Λ+(a,b) is π(a,b)·G_Λ times a diagonal of ω-powers and a
    # permutation, so its determinant is a unit times that of G_Λ mod p
    entries, cells, a, b = case
    n = len(entries)
    assume(any(entries))
    support = columns_to_support(cells, n)
    shifted = [(k + a, l + b) for k, l in support]
    for ctx in embedding_primes(n, 3, min_bits):
        window = Window(np.array(entries), ResidueBackend(ctx))
        dets = [det_mod(gabor_matrix(window, s).tolist(), ctx.prime) for s in (support, shifted)]
        assert (dets[0] == 0) == (dets[1] == 0)


def test_float_zero_rule_is_strict_in_the_batch_scan():
    # the minor diag(1, eps) sits exactly at the threshold and counts as nonzero
    cols = np.array([[1, 0], [0, FB.eps]], dtype=COMPLEX_DTYPE)
    tested, (rows, moduli, witnesses), _ = _scan_chunk_float(np.array([[0, 1]]), cols, FB)
    assert tested == 1 and rows.shape == (0, 2) and len(moduli) == len(witnesses) == 0


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize(
    "make",
    [
        lambda: random_window(4, 3),
        lambda: power_window_generic(4, math.pi),
        lambda: power_window_root_of_unity_float(4),
    ],
    ids=["random", "pi", "constructed"],
)
def test_float_zero_rule_scale_from_column_maxima(make, scale, monkeypatch):
    # the scale that the batch scan hands the zero rule, taken from per-column maxima,
    # equals the largest |entry| of each matrix of the stack; both are long-double
    # abs values, so no signed zero or NaN tells equal values apart
    window = make()
    cols = system_matrix(replace(window, entries=window.entries * scale))
    sel = _unrank(np.arange(math.comb(16, 4)), 16, 4)
    scales = []

    def record(dets, s):
        scales.append(s)
        return FloatBackend.is_zero(FB, dets, s)

    monkeypatch.setattr(FB, "is_zero", record)
    _scan_chunk_float(sel, cols, FB)
    stack = np.abs(cols[:, sel].transpose(1, 0, 2)).max(axis=(1, 2))
    assert scales[0].dtype == stack.dtype == np.longdouble
    assert np.array_equal(scales[0], stack)


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
        exact_independent, _ = check_support(exact_w, support)
        float_independent, _ = check_support(float_w, support)
        assert exact_independent == float_independent, (rationals, support)
        agreements += 1
    assert agreements >= 150


# ---------------------------------------------------------------------------
# witnesses and CSV export
# ---------------------------------------------------------------------------


def test_float_witness_validity():
    w = ones_window(3)  # translates coincide, so many supports are dependent
    report = verify_glp(w, SupportEnumeration(3, "exhaustive"))
    assert len(report.dependent)
    for support, wit in zip(dependent_supports(report), report.witness):
        mat = gabor_matrix(w, support).astype(np.complex128)
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


def _csv_reference(report) -> str:
    """`write_witness_csv`'s rows as `csv.writer` writes them from per-entry text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "support", "backend", "determinant"])
    if report.backend == "exact":
        dets = ["|".join(f"{p}:0" for p in report.primes_used)] * len(report.dependent)
    else:
        dets = map(repr, report.det_modulus.tolist())
    for cols, det in zip(report.dependent.tolist(), dets):
        support = ";".join(f"{c // report.n},{c % report.n}" for c in cols)
        writer.writerow([report.n, support, report.backend, det])
    return buf.getvalue()


def test_witness_csv_matches_csv_writer(tmp_path):
    n = 3
    rows = _unrank(np.arange(5), n * n, n)
    special = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324])
    report = VerificationReport(
        n, "float", "user", "exhaustive", 84, rows, special,
        np.full((5, n), complex(-0.0, math.nan)), [], 0.0,
    )
    exact = verify_glp(ones_window_exact(n, 31), SupportEnumeration(n, "exhaustive"))
    for case in (report, exact, replace(exact, dependent=exact.dependent[:0])):
        path = tmp_path / "witnesses.csv"
        write_witness_csv(case, path)
        assert path.read_bytes().decode() == _csv_reference(case)


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


def test_fourier_check_reads_rows_and_columns_apart(monkeypatch):
    # the DFT is symmetric, so only a broken symmetry shows which subset of a
    # failure indexes rows: zero row j = 2, column λ = 1 under every prime
    embeddings = verify_module._embeddings

    def zeroed(window, num_primes):
        out = embeddings(window, num_primes)
        for cols, _ in out:
            cols[1, 2] = 0  # the column π(0,1)·1, row 2
        return out

    monkeypatch.setattr(verify_module, "_embeddings", zeroed)
    report = fourier_minor_check(5)
    assert ((2,), (1,)) in report.failures and ((1,), (2,)) not in report.failures
    for cols, q in zeroed(ones_window_exact(5), 3):
        dft = cols[:5].T
        assert all(det_mod(dft[np.ix_(r, c)].tolist(), q) == 0 for r, c in report.failures)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fourier_walk_residues_equal_scalar_minors(p):
    # the check's walk over row subsets gives every minor of every order,
    # (row subset, column subset) in `combinations` order, under every prime
    for cols, q in _embeddings(ones_window_exact(p), 3):
        dft = cols[:p].T
        for order in range(1, p + 1):
            subsets = list(itertools.combinations(range(p), order))
            minors = [det_mod(dft[np.ix_(r, c)].tolist(), q) for r in subsets for c in subsets]
            assert _minors_mod(dft, q, np.array(subsets)).tolist() == minors


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
    assert not len(report.dependent)
    for cols in itertools.combinations(range(n * n), n):
        mat = np.array([column(c // n, c % n) for c in cols]).T
        det = np.linalg.det(mat)
        assert abs(det) > 1e-8 * np.abs(mat).max()  # agrees: all independent
        ours = gabor_matrix(float_window_4, columns_to_support(cols, n))
        assert np.allclose(ours.astype(np.complex128), mat, atol=1e-14)


def test_verify_glp_with_wide_prime():
    # primes past the int64 batching limit run the kernel on Python ints
    from gaborglp.windows import power_window_root_of_unity

    w = power_window_root_of_unity(4, min_bits=32)
    assert w.backend.prime >= 1 << 32
    report = verify_glp(w, SupportEnumeration(4, "sampled", count=40, seed=2), num_primes=1)
    assert report.supports_tested == 40
    assert not len(report.dependent)
