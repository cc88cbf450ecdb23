"""Acceptance gate: every criterion prints one PASS/FAIL line (run with -s).

The checks certify, at desk scale, the headline properties of root-of-unity
power windows and of the monomial machinery that proves them: exhaustive
general-linear-position certification for N = 4, 5, 6, sampled certification
for N = 7, 8, uniqueness of the consecutive-index monomial, oracle agreement
for its coefficient, the degree/exponent structure of the squared-exponent
polynomial, frame tightness, erasure recovery, the STFT support bound, and
DFT minor checks in prime dimensions.
"""

import os
import random

import numpy as np
import pytest

from gaborglp import (
    SupportEnumeration,
    decode,
    encode,
    erase,
    fourier_minor_check,
    frame_operator_defect,
    power_window_root_of_unity,
    power_window_root_of_unity_float,
    random_window,
    support_bound_check,
    verify_glp,
)
from gaborglp.codec import (
    ErasurePattern,
    InsufficientPacketsError,
    RankDeficientError,
    random_erasure,
)
from gaborglp.monomials import (
    ci_coefficient,
    ci_monomial,
    enumerate_profiles,
    expand_determinant,
    monomial_of_class,
    normalize_support,
    partition_classes,
    profile_of_support,
    q_polynomial,
    verify_ci_uniqueness,
)
from gaborglp.windows import ones_window

WORKERS = min(4, os.cpu_count() or 1)


def gate(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_01_constructed_window_n4(exact_window_4):
    report = verify_glp(exact_window_4, SupportEnumeration(4, "exhaustive"), workers=1)
    ok = (
        report.supports_tested == 1820
        and not report.dependent
        and report.elapsed_seconds <= 10.0
    )
    gate(
        "criterion 1 (N=4 exhaustive exact, single-threaded)",
        ok,
        f"{report.supports_tested} supports, {len(report.dependent)} dependent, "
        f"{report.elapsed_seconds:.2f}s (limit 10s)",
    )


def test_criterion_02_constructed_window_n5(exact_window_5):
    report = verify_glp(exact_window_5, SupportEnumeration(5, "exhaustive"), workers=1)
    ok = (
        report.supports_tested == 53_130
        and not report.dependent
        and report.elapsed_seconds <= 60.0
    )
    gate(
        "criterion 2 (N=5 exhaustive exact)",
        ok,
        f"{report.supports_tested} supports, {len(report.dependent)} dependent, "
        f"{report.elapsed_seconds:.2f}s (limit 60s)",
    )


def test_criterion_03_constructed_window_n6():
    window = power_window_root_of_unity(6)
    report = verify_glp(window, SupportEnumeration(6, "exhaustive"), workers=WORKERS)
    ok = (
        report.supports_tested == 1_947_792
        and not report.dependent
        and report.elapsed_seconds <= 1800.0
    )
    gate(
        "criterion 3 (N=6 exhaustive exact, parallel)",
        ok,
        f"{report.supports_tested} supports, {len(report.dependent)} dependent, "
        f"{report.elapsed_seconds:.1f}s with {WORKERS} workers (limit 1800s)",
    )


@pytest.mark.parametrize("n,seed", [(7, 70001), (8, 80001)])
def test_criterion_04_sampled_n7_n8(n, seed):
    window = power_window_root_of_unity(n)
    enum = SupportEnumeration(n, "sampled", count=100_000, seed=seed)
    report = verify_glp(window, enum, workers=WORKERS)
    ok = (
        report.supports_tested == 100_000
        and not report.dependent
        and report.elapsed_seconds <= 300.0
    )
    gate(
        f"criterion 4 (N={n}, 1e5 sampled supports)",
        ok,
        f"{report.supports_tested} sampled, {len(report.dependent)} dependent, "
        f"{report.elapsed_seconds:.1f}s (limit 300s)",
    )


def test_criterion_05_ci_uniqueness_exhaustive():
    checked = 0
    failed = 0
    for n in range(1, 7):
        for prof in enumerate_profiles(n):
            if not prof.is_normalized:
                continue
            checked += 1
            if not verify_ci_uniqueness(prof).passed:
                failed += 1
    gate(
        "criterion 5 (CI uniqueness, all normalized profiles N≤6)",
        failed == 0 and checked > 0,
        f"{checked} profiles checked, {failed} failures",
    )


def test_criterion_06_oracle_equivalence():
    rng = random.Random(606060)
    mismatches = 0
    zeros = 0
    total = 0
    for n in (2, 3, 4, 5):
        from gaborglp.backends import embedding_primes

        ctx = embedding_primes(n, 1, 16)[0]
        cells = [(a, b) for a in range(n) for b in range(n)]
        for _ in range(100):
            support = rng.sample(cells, n)
            _, nsup = normalize_support(support, n)
            expansion = expand_determinant(nsup, n)
            alpha = ci_monomial(profile_of_support(nsup, n))
            coeff = ci_coefficient(support, n)
            total += 1
            if expansion.get(alpha) != coeff:
                mismatches += 1
            if coeff.residue(ctx) == 0:
                zeros += 1
    gate(
        "criterion 6 (CI coefficient matches N!-diagonal oracle, nonzero)",
        mismatches == 0 and zeros == 0,
        f"{total} supports, {mismatches} mismatches, {zeros} zero coefficients",
    )


def test_criterion_07_q_polynomial_properties():
    rng = random.Random(707070)
    bad = []
    total = 0
    for n in (3, 4, 5, 6):
        bound = n * (n - 1) ** 2
        cells = [(a, b) for a in range(n) for b in range(n)]
        for _ in range(100):
            support = rng.sample(cells, n)
            q = q_polynomial(support, n)
            prof = profile_of_support(support, n)
            allowed = set()
            for cls in partition_classes(prof):
                alpha = monomial_of_class(prof, cls)
                allowed.add(sum(i * i * a for i, a in enumerate(alpha)))
            total += 1
            if not q or q.degree > bound or not set(q.exponents) <= allowed:
                bad.append((n, support))
    gate(
        "criterion 7 (Q nonzero, deg ≤ N(N-1)², exponents are N·E[X²])",
        not bad,
        f"{total} supports checked, {len(bad)} violations",
    )


def test_criterion_08_tightness():
    worst = 0.0
    for n in range(2, 13):
        for seed in range(100):
            w = random_window(n, seed=1000 * n + seed)
            norm2 = float((np.abs(w.entries) ** 2).sum())
            ratio = frame_operator_defect(w) / (n * norm2)
            worst = max(worst, ratio)
    gate(
        "criterion 8 (frame tightness, 100 windows per N in 2..12)",
        worst <= 1e-10,
        f"worst defect / (N·‖w‖²) = {worst:.2e} (limit 1e-10)",
    )


def test_criterion_09_erasure_recovery():
    worst = 0.0
    trials_run = 0
    for n in (4, 5, 6):
        window = power_window_root_of_unity_float(n)
        erasures = n * n - n
        for trial in range(500):
            rng = np.random.default_rng([n, trial])
            f = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
            packets = encode(f, window)
            pattern = random_erasure(n, erasures, seed=trial)
            survivors = erase(packets, pattern)
            recovered = decode(survivors, window)
            err = float(
                np.sqrt((np.abs(recovered - f.astype(recovered.dtype)) ** 2).sum())
                / np.sqrt((np.abs(f) ** 2).sum())
            )
            worst = max(worst, err)
            trials_run += 1
            # one packet fewer must always fail
            try:
                decode(survivors[: n - 1], window)
                underdetermined_ok = False
            except InsufficientPacketsError:
                underdetermined_ok = True
            assert underdetermined_ok

    # the non-GLP all-ones window exhibits a genuine rank-deficient failure
    w2 = ones_window(2)
    f = np.array([1.0, 2.0])
    survivors = erase(encode(f, w2), ErasurePattern(((0, 0), (1, 0))))
    try:
        decode(survivors, w2)
        rank_failure = False
    except RankDeficientError:
        rank_failure = True

    gate(
        "criterion 9 (erasure recovery, 500 trials per N in 4..6)",
        worst <= 1e-8 and rank_failure and trials_run == 1500,
        f"max relative error {worst:.2e} (limit 1e-8); "
        f"|K'|=N-1 always errors; ones-window rank failure observed={rank_failure}",
    )


def test_criterion_10_support_bound():
    violations = 0
    for n in (4, 5):
        window = power_window_root_of_unity_float(n)
        bound = n * n - n + 1
        for trial in range(1000):
            rng = np.random.default_rng([10, n, trial])
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            check = support_bound_check(f, window)
            if check.nonzero_count < bound:
                violations += 1
    gate(
        "criterion 10 (STFT support ≥ N²-N+1, 1000 signals per N in {4,5})",
        violations == 0,
        f"{violations} violations in 2000 trials",
    )


def test_criterion_11_fourier_minors():
    results = {p: fourier_minor_check(p) for p in (2, 3, 5, 7)}
    ok = all(r.passed for r in results.values())
    detail = ", ".join(f"p={p}: {r.minors_tested} minors" for p, r in results.items())
    gate("criterion 11 (DFT minors nonzero for p in {2,3,5,7})", ok, detail)


def test_criterion_12_random_windows_full_measure():
    failures = []
    for seed in range(50):
        w = random_window(4, seed=42000 + seed)
        report = verify_glp(w, SupportEnumeration(4, "exhaustive"))
        if report.dependent:
            failures.append(seed)
    gate(
        "criterion 12 (50 Gaussian windows at N=4 pass float GLP)",
        not failures,
        f"{50 - len(failures)}/50 windows certified; failing seeds: {failures or 'none'}",
    )
