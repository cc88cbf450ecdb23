"""General-linear-position verification.

A window is in general linear position (GLP) when every N-element subset of
its N² time-frequency shifts is linearly independent, i.e. every N×N minor
of the full system matrix is nonzero.  This module enumerates supports
(exhaustively or by seeded sampling), evaluates the minors in batches, and
aggregates a deterministic report.

Soundness convention for the exact backend: a nonzero residue mod p proves
the minor nonzero; a zero residue is only "zero mod p" and is escalated
across `num_primes` independent primes — a support is reported dependent
only when every prime agrees.  Reports are bit-identical regardless of the
worker count.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from multiprocessing import Pool

import numpy as np

from .backends import (
    DEFAULT_NUM_PRIMES,
    det_batch_float,
    det_batch_nonzero_mod,
    det_float,
    det_mod,
    embedding_primes,
)
from .operators import TimeFreqIndex, Window, gabor_matrix, system_matrix

DEFAULT_CHUNK = 65_536


@dataclass(frozen=True)
class SupportEnumeration:
    """Stream of size-N supports, as sorted tuples of column indices.

    Columns are numbered 0..N²-1 in lexicographic (κ,λ) order.  Exhaustive
    mode yields all C(N², N) combinations in lexicographic order; sampled
    mode yields `count` distinct supports drawn reproducibly from `seed`.
    """

    n: int
    mode: str = "exhaustive"  # "exhaustive" | "sampled"
    count: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled":
            if not self.count or self.count < 1:
                raise ValueError("sampled mode requires count >= 1")
            if self.seed is None:
                raise ValueError("sampled mode requires a seed")
            if self.count > self.total_available():
                raise ValueError("cannot sample more supports than exist")

    def total_available(self) -> int:
        return math.comb(self.n * self.n, self.n)

    def total(self) -> int:
        return self.total_available() if self.mode == "exhaustive" else int(self.count)

    def supports(self):
        if self.mode == "exhaustive":
            yield from itertools.combinations(range(self.n * self.n), self.n)
        else:
            rng = random.Random(self.seed)
            seen: set[tuple[int, ...]] = set()
            cols = range(self.n * self.n)
            while len(seen) < self.count:
                s = tuple(sorted(rng.sample(cols, self.n)))
                if s not in seen:
                    seen.add(s)
                    yield s

    def chunks(self, size: int = DEFAULT_CHUNK):
        it = self.supports()
        while True:
            block = list(itertools.islice(it, size))
            if not block:
                return
            yield np.array(block, dtype=np.int64)


def columns_to_support(cols, n: int) -> tuple[TimeFreqIndex, ...]:
    return tuple((int(c) // n, int(c) % n) for c in cols)


# ---------------------------------------------------------------------------
# single-support check
# ---------------------------------------------------------------------------


@dataclass
class SupportVerdict:
    support: tuple[TimeFreqIndex, ...]
    independent: bool
    residues: dict[int, int] | None = None  # exact backend: prime -> det residue
    det_modulus: float | None = None  # float backend
    witness: np.ndarray | None = field(default=None, repr=False)


def _exact_windows(window: Window, num_primes: int) -> list[Window]:
    """The window re-embedded under the `num_primes` smallest usable primes."""
    ctx = window.backend.context
    if num_primes <= 1:
        return [window]
    # a window without a re-embedding recipe raises here: escalation is
    # never dropped silently
    ctxs = embedding_primes(ctx.order, num_primes, min_bits=ctx.prime.bit_length() - 1)
    ctxs = [c for c in ctxs if c.prime != ctx.prime]
    return [window] + [window.reembed(c) for c in ctxs[: num_primes - 1]]


def _float_witness(matrix: np.ndarray) -> np.ndarray:
    """Numerical null vector of the columns (least singular direction)."""
    _, _, vh = np.linalg.svd(np.asarray(matrix, dtype=np.complex128))
    return np.conj(vh[-1])


def check_support(
    window: Window, support, num_primes: int = DEFAULT_NUM_PRIMES
) -> SupportVerdict:
    """Verdict for one support; ordering of the support does not matter."""
    n = window.n
    support = tuple(sorted((int(k) % n, int(l) % n) for k, l in support))
    if len(support) != n or len(set(support)) != n:
        raise ValueError(f"support must consist of {n} distinct indices")
    if window.backend.kind == "exact":
        residues: dict[int, int] = {}
        for w in _exact_windows(window, num_primes):
            mat = gabor_matrix(w, support).matrix
            r = det_mod(mat.tolist(), w.backend.prime)
            residues[w.backend.prime] = r
            if r != 0:
                return SupportVerdict(support, True, residues=residues)
        return SupportVerdict(support, False, residues=residues)
    mat = gabor_matrix(window, support).matrix
    det = det_float(mat)
    modulus = float(abs(complex(det)))
    if window.backend.is_zero(det, np.abs(mat).max()):
        return SupportVerdict(support, False, det_modulus=modulus, witness=_float_witness(mat))
    return SupportVerdict(support, True, det_modulus=modulus)


# ---------------------------------------------------------------------------
# batch engine (shared by in-process and worker paths)
# ---------------------------------------------------------------------------


def _exact_payload(window: Window, num_primes: int):
    wins = _exact_windows(window, num_primes)
    return [(system_matrix(w), w.backend.prime) for w in wins]


def _escalate(minors, primes: list[int]) -> tuple[np.ndarray, list[int]]:
    """The one escalation rule: positions of the minors zero under every prime.

    `minors(i, rows)` stacks the selected minors (all of them for
    `rows = slice(None)`) embedded under the i-th prime.  The kernel sees
    every minor under the first prime and, under each further prime, only the
    minors still zero.  Also returns the primes under which at least one
    minor was evaluated.
    """
    rows = slice(None)
    used: list[int] = []
    for i, p in enumerate(primes):
        zero = np.flatnonzero(~det_batch_nonzero_mod(minors(i, rows), p))
        rows = zero if i == 0 else rows[zero]
        used.append(p)
        if not rows.size:
            break
    return rows, used


def _scan_chunk_exact(sel: np.ndarray, embeddings) -> tuple[int, list, list[int]]:
    primes = [p for _, p in embeddings]
    dependent, used = _escalate(
        lambda i, rows: embeddings[i][0][:, sel[rows]].transpose(1, 0, 2), primes
    )
    zeros = dict.fromkeys(primes, 0)
    failures = [(tuple(int(c) for c in sel[row]), dict(zeros)) for row in dependent]
    return len(sel), failures, used


def _scan_chunk_float(sel: np.ndarray, cols: np.ndarray, backend) -> tuple[int, list, list[int]]:
    mats = cols[:, sel].transpose(1, 0, 2)
    dets = det_batch_float(mats)
    flagged = backend.is_zero(dets, np.abs(mats).max(axis=(1, 2)))
    failures = []
    for row in np.nonzero(flagged)[0]:
        colsel = tuple(int(c) for c in sel[row])
        mat = mats[row]
        det = det_float(mat)
        if backend.is_zero(det, np.abs(mat).max()):
            failures.append((colsel, float(abs(complex(det))), _float_witness(mat)))
    return len(sel), failures, []


_WORKER: dict = {}


def _worker_init(kind, payload):
    _WORKER["kind"] = kind
    _WORKER["payload"] = payload


def _worker_scan(sel: np.ndarray):
    if _WORKER["kind"] == "exact":
        return _scan_chunk_exact(sel, _WORKER["payload"])
    return _scan_chunk_float(sel, *_WORKER["payload"])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class DependentSupport:
    support: tuple[TimeFreqIndex, ...]
    residues: dict[int, int] | None = None
    det_modulus: float | None = None
    witness: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        out: dict = {"support": [list(idx) for idx in self.support]}
        if self.residues is not None:
            out["residues"] = {str(p): r for p, r in self.residues.items()}
        if self.det_modulus is not None:
            out["det_modulus"] = self.det_modulus
        if self.witness is not None:
            out["witness"] = [[float(z.real), float(z.imag)] for z in self.witness]
        return out


@dataclass
class VerificationReport:
    n: int
    backend: str
    window_kind: str
    mode: str
    supports_tested: int
    dependent: list[DependentSupport]
    primes_used: list[int]
    elapsed_seconds: float
    sample_count: int | None = None
    sample_seed: int | None = None

    @property
    def verdict(self) -> str:
        if self.dependent:
            return "dependent-found"
        return "glp-certified" if self.mode == "exhaustive" else "glp-on-sample"

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "backend": self.backend,
            "window_kind": self.window_kind,
            "mode": self.mode,
            "supports_tested": self.supports_tested,
            "dependent": len(self.dependent),
            "dependent_supports": [d.to_dict() for d in self.dependent],
            "primes_used": self.primes_used,
            "verdict": self.verdict,
        }
        if self.sample_count is not None:
            out["sample_count"] = self.sample_count
            out["sample_seed"] = self.sample_seed
        return out


def verify_glp(
    window: Window,
    enumeration: SupportEnumeration,
    workers: int = 1,
    num_primes: int = DEFAULT_NUM_PRIMES,
    chunk_size: int = DEFAULT_CHUNK,
    progress=None,
) -> VerificationReport:
    """Test linear independence of every enumerated support.

    The result is a pure function of (window, enumeration, backend, primes);
    workers only partition the stream of supports, and failures are re-sorted
    at the end, so the report does not depend on the worker count.
    """
    n = window.n
    if enumeration.n != n:
        raise ValueError("enumeration dimension does not match the window")
    start = time.perf_counter()
    exact = window.backend.kind == "exact"
    if exact:
        payload = _exact_payload(window, num_primes)
    else:
        payload = (system_matrix(window), window.backend)

    tested = 0
    raw_failures: list = []
    primes_used: list[int] = []

    def absorb(result):
        nonlocal tested
        count, failures, primes_hit = result
        tested += count
        raw_failures.extend(failures)
        for p in primes_hit:
            if p not in primes_used:
                primes_used.append(p)
        if progress:
            progress(tested)

    if workers <= 1:
        for sel in enumeration.chunks(chunk_size):
            if exact:
                absorb(_scan_chunk_exact(sel, payload))
            else:
                absorb(_scan_chunk_float(sel, *payload))
    else:
        kind = "exact" if exact else "float"
        with Pool(workers, initializer=_worker_init, initargs=(kind, payload)) as pool:
            for result in pool.imap(_worker_scan, enumeration.chunks(chunk_size)):
                absorb(result)

    dependent = []
    for fail in sorted(raw_failures, key=lambda f: f[0]):
        support = columns_to_support(fail[0], n)
        if exact:
            dependent.append(DependentSupport(support, residues=fail[1]))
        else:
            dependent.append(DependentSupport(support, det_modulus=fail[1], witness=fail[2]))

    elapsed = time.perf_counter() - start
    return VerificationReport(
        n=n,
        backend=window.backend.kind,
        window_kind=window.kind,
        mode=enumeration.mode,
        supports_tested=tested,
        dependent=dependent,
        primes_used=sorted(primes_used),
        elapsed_seconds=elapsed,
        sample_count=enumeration.count if enumeration.mode == "sampled" else None,
        sample_seed=enumeration.seed if enumeration.mode == "sampled" else None,
    )


def write_witness_csv(report: VerificationReport, path) -> None:
    """One CSV row per dependent support: n, support, backend, determinant data."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "support", "backend", "determinant"])
        for dep in report.dependent:
            support = ";".join(f"{k},{l}" for k, l in dep.support)
            if dep.residues is not None:
                det = "|".join(f"{p}:{r}" for p, r in sorted(dep.residues.items()))
            else:
                det = repr(dep.det_modulus)
            writer.writerow([report.n, support, report.backend, det])


# ---------------------------------------------------------------------------
# Fourier minor spot-checks (prime dimensions)
# ---------------------------------------------------------------------------


@dataclass
class FourierCheckReport:
    p: int
    minors_tested: int
    failures: list[tuple]
    primes_used: list[int]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "minors_tested": self.minors_tested,
            "failures": [list(map(list, f)) for f in self.failures],
            "primes_used": self.primes_used,
            "passed": self.passed,
        }


def fourier_minor_check(
    p: int,
    min_bits: int = 20,
    num_primes: int = DEFAULT_NUM_PRIMES,
    max_p: int = 7,
) -> FourierCheckReport:
    """Exhaustively verify that every square minor of the p×p DFT matrix is
    nonzero, for prime p (an instance check of Chebotarev's theorem).

    The number of minors is C(2p, p) - 1, so p is capped at `max_p`.
    """
    from .backends import is_prime

    if not is_prime(p):
        raise ValueError("dimension must be prime")
    if p > max_p:
        raise ValueError(f"exhaustive minor check capped at p = {max_p}")
    start = time.perf_counter()
    ctxs = embedding_primes(p, num_primes, min_bits)
    # the contexts have order p, so each root is the image of ω
    tables = [
        np.array([[pow(c.root, j * k, c.prime) for k in range(p)] for j in range(p)])
        for c in ctxs
    ]
    tested = 0
    failures = []
    primes_used: set[int] = set()
    for order in range(1, p + 1):
        subsets = np.array(list(itertools.combinations(range(p), order)))
        rows = np.repeat(subsets, len(subsets), axis=0)
        cols = np.tile(subsets, (len(subsets), 1))
        zero, used = _escalate(
            lambda i, sel: tables[i][rows[sel][:, :, None], cols[sel][:, None, :]],
            [c.prime for c in ctxs],
        )
        tested += len(rows)
        failures.extend((tuple(map(int, rows[k])), tuple(map(int, cols[k]))) for k in zero)
        primes_used.update(used)
    elapsed = time.perf_counter() - start
    return FourierCheckReport(p, tested, failures, sorted(primes_used), elapsed)
