"""General-linear-position verification.

A window is in general linear position (GLP) when every N-element subset of
its N² time-frequency shifts is linearly independent, i.e. every N×N minor
of the full system matrix is nonzero.  This module enumerates supports
(exhaustively or by seeded sampling), evaluates the minors in batches, and
lists each dependent support in a deterministic report as a `SupportVerdict`,
the record `check_support` returns for a single support.  The scans return
dependent members as arrays, which `verify_glp` sorts and converts once.

Exhaustive mode checks one support per translation orbit.  As π(a,b)·π(κ,λ)
= ω^c·π(κ+a, λ+b), the matrix of Λ+(a,b) is π(a,b) times the matrix of Λ
times a diagonal of powers of ω and a permutation, so whether the minor
vanishes is constant on the orbit, over ℂ and mod every embedding prime.
Representatives grow column by column under a necessary bound, then pass
an exact test (`_representatives`).  The exact scan runs the kernel on
representatives and reports every member of a dependent orbit; the float
scan tests every member, since rounding makes float moduli and witnesses
differ across an orbit.  The depth-first walk emits siblings, which share
their first N-1 columns, as one run of rows; the exact scan hands the
kernel each run's shared prefix once and every row's last column, and
gets the verdicts back in row order (`_runs_nonzero`).

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
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import Pool

import numpy as np

from .backends import (
    DEFAULT_MIN_BITS,
    DEFAULT_NUM_PRIMES,
    det_batch_float,
    det_batch_nonzero_mod,
    det_float,
    det_mod,
    det_prefix_mod,
    embedding_primes,
    is_prime,
)
from .operators import TimeFreqIndex, Window, gabor_matrix, system_matrix

DEFAULT_CHUNK = 65_536


@dataclass(frozen=True)
class SupportEnumeration:
    """Stream of size-N supports, as rows of sorted column indices.

    Columns are numbered 0..N²-1 in lexicographic (κ,λ) order.  Exhaustive
    mode covers all C(N², N) supports by one representative per translation
    orbit (see `_representatives`); sampled mode draws `count` distinct
    supports reproducibly from `seed`.
    """

    n: int
    mode: str = "exhaustive"  # "exhaustive" | "sampled"
    count: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exhaustive" and self.n > 8:
            raise ValueError("exhaustive mode needs N ≤ 8: a support mask has N² ≤ 64 bits")
        if self.mode == "sampled":
            if not self.count or self.count < 1:
                raise ValueError("sampled mode requires count >= 1")
            if self.seed is None:
                raise ValueError("sampled mode requires a seed")
            if self.count > math.comb(self.n * self.n, self.n):
                raise ValueError("cannot sample more supports than exist")

    def total(self) -> int:
        return math.comb(self.n * self.n, self.n) if self.mode == "exhaustive" else int(self.count)

    def _draws(self):
        rng = random.Random(self.seed)
        seen: set[tuple[int, ...]] = set()
        cols = range(self.n * self.n)
        while len(seen) < self.count:
            s = tuple(sorted(rng.sample(cols, self.n)))
            if s not in seen:
                seen.add(s)
                yield s

    def chunks(self, size: int = DEFAULT_CHUNK):
        """Blocks of at most `size` rows, as (supports, weights) arrays.

        A row stands for `weight` supports: an exhaustive row is an orbit
        representative weighted by its orbit size, a sampled row is one drawn
        support of weight 1.  `_orbit_members` expands a block.
        """
        if self.mode == "exhaustive":
            yield from _representatives(self.n, size)
            return
        it = self._draws()
        while block := list(itertools.islice(it, size)):
            yield np.array(block, dtype=np.int64), np.ones(len(block), dtype=np.int64)


def _mask(cells: np.ndarray, n: int) -> np.ndarray:
    """uint64 masks of the supports in the rows of `cells`, column 0 in the highest
    bit: the lexicographically smaller of two equal-size supports has the larger mask."""
    return np.bitwise_or.reduce(np.uint64(1) << (n * n - 1 - cells).astype(np.uint64), axis=-1)


def _shifted(masks: np.ndarray, n: int, e: np.ndarray) -> np.ndarray:
    """Masks of the supports Λ-e, from the masks of Λ: rotate the rows of the
    N×N bit grid by κ_e, then the bits within each row by λ_e."""
    k, b = np.divmod(np.asarray(e).astype(np.uint64), n)
    x = ((masks << k * n) | (masks >> (n - k) * n)) & ((1 << n * n) - 1)
    low = sum(1 << (r * n) for r in range(n)) * ((np.uint64(1) << (n - b)) - 1)
    return ((x & low) << b) | ((x & ~low) >> (n - b))


def _representatives(n: int, size: int):
    """Blocks of (orbit representatives, orbit sizes) covering every support.

    A representative is the lexicographically least member Λ = {0 < c₁ < …}
    of its orbit: no Λ-e, e ∈ Λ (its translates that contain 0), is smaller;
    the e with Λ-e = Λ form its stabilizer.  As Λ-y sorts as (0, min col(x-y),
    …), every difference col(x-y), x ≠ y, is ≥ c₁, so rows grow a column y at
    a time while `low`, y's least difference from the row, is ≥ c₁; depth
    first in slices of size // N rows, so a block's minors hold ≤ `size`·N entries.
    A full row's Λ-e can equal Λ or sort below it only if its next column is c₁,
    that is e + c₁ ∈ Λ, so the exact test shifts only by the e in Λ ∩ (Λ-c₁)."""
    nn, step, col = n * n, max(1, size // n), np.arange(n * n)
    diff = (col[:, None] // n - col // n) % n * n + (col[:, None] - col) % n  # col(x-y)
    sep = np.minimum(diff, diff.T).astype(np.uint8)

    def grow(rows, low):
        d = rows.shape[1]
        if d == n:
            own = _mask(rows, n)
            near = own & _shifted(own, n, rows[:, min(1, n - 1)])  # Λ ∩ (Λ-c₁); c₁ = 0 at N = 1
            r, j = np.nonzero((near[:, None] >> (nn - 1 - rows).astype(np.uint64)) & np.uint64(1))
            masks, own_r = _shifted(own[r], n, rows[r, j]), own[r]
            least = np.bincount(r[masks > own_r], minlength=len(rows)) == 0
            yield rows[least], nn // np.bincount(r[masks == own_r], minlength=len(rows))[least]
            return
        c1 = rows[:, 1:2] if d > 1 else col  # a row of one column takes y as c₁
        r, y = np.nonzero((low >= c1) & (col > rows[:, -1:]) & (col <= nn - n + d))
        for s in range(0, len(r), step):
            rs, ys = r[s : s + step], y[s : s + step]
            yield from grow(np.column_stack([rows[rs], ys]), np.minimum(low[rs], sep[ys]))

    yield from grow(np.zeros((1, 1), np.int64), sep[:1])


def _orbit_members(reps: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The supports that the rows of a chunk stand for: the distinct
    translates of each representative (weight > 1), sorted row by row; a
    chunk of weight-1 rows stands for itself."""
    if not (weights > 1).any():
        return reps
    n = reps.shape[1]
    masks = np.sort(_shifted(_mask(reps, n)[:, None], n, np.arange(n * n)), axis=1)
    masks = masks[np.diff(masks, axis=1, prepend=np.uint64(0)) != 0]
    bits = np.unpackbits(masks.astype("<u8").view(np.uint8), bitorder="little")
    return n * n - 1 - np.flatnonzero(bits).reshape(-1, n)[:, ::-1] % 64


# ---------------------------------------------------------------------------
# single-support check
# ---------------------------------------------------------------------------


@dataclass
class SupportVerdict:
    """The verdict on one support, from `check_support` or, for a dependent
    support, from `verify_glp`; `to_dict` writes it as a report entry."""

    support: tuple[TimeFreqIndex, ...]
    independent: bool
    residues: dict[int, int] | None = None  # exact backend: prime -> det residue
    det_modulus: float | None = None  # float backend
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


def _exact_windows(window: Window, num_primes: int) -> list[Window]:
    """The window re-embedded under the smallest usable primes, `num_primes`
    in all; a prime under which it has no nonzero image is passed over."""
    if num_primes < 1:
        raise ValueError(f"the number of primes must be at least 1, got {num_primes}")
    ctx = window.backend.context
    wins, count = [window], 1
    while len(wins) < num_primes:
        c = embedding_primes(ctx.order, count, min_bits=ctx.prime.bit_length() - 1)[-1]
        count += 1
        if c.prime != ctx.prime:
            # no re-embedding recipe raises ValueError: escalation is never dropped silently
            with suppress(ArithmeticError):
                wins.append(window.reembed(c))
    return wins


def _float_witness(mats: np.ndarray) -> np.ndarray:
    """Numerical null vectors (least singular directions) of a stack of matrices.
    The SVDs run on slices of 4,096 matrices, which bounds their workspace; an
    empty stack takes one empty SVD."""
    mats = np.asarray(mats, dtype=np.complex128)
    vh = [np.linalg.svd(mats[s : s + 4096])[2][:, -1] for s in range(0, max(len(mats), 1), 4096)]
    return np.conj(np.concatenate(vh))


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
            mat = gabor_matrix(w, support)
            r = det_mod(mat.tolist(), w.backend.prime)
            residues[w.backend.prime] = r
            if r != 0:
                return SupportVerdict(support, True, residues=residues)
        return SupportVerdict(support, False, residues=residues)
    mat = gabor_matrix(window, support)
    det = det_float(mat)
    modulus = float(abs(complex(det)))
    if window.backend.is_zero(det, np.abs(mat).max()):
        witness = _float_witness(mat[None])[0]
        return SupportVerdict(support, False, det_modulus=modulus, witness=witness)
    return SupportVerdict(support, True, det_modulus=modulus)


# ---------------------------------------------------------------------------
# batch engine
# ---------------------------------------------------------------------------


def _escalate(nonzero, primes: list[int]) -> tuple[np.ndarray, list[int]]:
    """The one escalation rule: positions of the minors zero under every prime.

    `nonzero(i, rows)` gives the verdicts of the selected minors (all of them
    for `rows = slice(None)`) under the i-th prime.  Every minor is tested
    under the first prime and, under each further prime, only the minors
    still zero.  Also returns the primes under which at least one minor was
    evaluated.
    """
    rows = slice(None)
    used: list[int] = []
    for i, p in enumerate(primes):
        zero = np.flatnonzero(~nonzero(i, rows))
        rows = zero if i == 0 else rows[zero]
        used.append(p)
        if not rows.size:
            break
    return rows, used


def _runs_nonzero(cols: np.ndarray, p: int, sel: np.ndarray) -> np.ndarray:
    """Nonzero verdicts mod p of the minors of `cols` on the column rows `sel`.

    A row whose first N-1 columns equal those of the row before it extends
    that row's run, and a run's rows share the prefix of its head: the kernel
    eliminates each run's prefix once and replays it on every row's last
    column.  Any order of rows is sound; the depth-first order of
    `_representatives` makes runs long.
    """
    head = np.ones(len(sel), dtype=bool)
    head[1:] = (sel[1:, :-1] != sel[:-1, :-1]).any(axis=1)
    prefixes = cols[:, sel[head, :-1]].transpose(1, 0, 2)
    return det_prefix_mod(prefixes, p, cols[:, sel[:, -1]], np.cumsum(head) - 1) != 0


def _scan_chunk_exact(chunk: tuple, embeddings) -> tuple:
    """Escalate the rows of a (supports, weights) chunk; the dependent
    members come back as one array of column rows."""
    sel, weights = chunk
    dependent, used = _escalate(
        lambda i, rows: _runs_nonzero(*embeddings[i], sel[rows]),
        [p for _, p in embeddings],
    )
    return int(weights.sum()), (_orbit_members(sel[dependent], weights[dependent]),), used


def _scan_chunk_float(chunk: tuple, cols: np.ndarray, backend) -> tuple:
    """Scan every member of a (supports, weights) chunk (float moduli are not
    orbit invariant); the dependent members come back as arrays of their
    column rows, determinants and witnesses, empty ones for an empty chunk."""
    sel, weights = chunk
    members = _orbit_members(sel, weights)
    found = []
    for start in range(0, max(len(members), 1), DEFAULT_CHUNK):
        mats = cols[:, members[start : start + DEFAULT_CHUNK]].transpose(1, 0, 2)
        dets = det_batch_float(mats)
        rows = np.flatnonzero(backend.is_zero(dets, np.abs(mats).max(axis=(1, 2))))
        found.append((members[start + rows], dets[rows], _float_witness(mats[rows])))
    return int(weights.sum()), tuple(map(np.concatenate, zip(*found))), []


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    n: int
    backend: str
    window_kind: str
    mode: str
    supports_tested: int
    dependent: list[SupportVerdict]
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
    if workers < 1:
        raise ValueError(f"the number of workers must be at least 1, got {workers}")
    start = time.perf_counter()
    kind = window.backend.kind
    if kind == "exact":
        embeddings = [(system_matrix(w), w.backend.prime) for w in _exact_windows(window, num_primes)]
        scan = partial(_scan_chunk_exact, embeddings=embeddings)
    else:
        scan = partial(_scan_chunk_float, cols=system_matrix(window), backend=window.backend)

    tested = 0
    found: list[tuple] = []
    primes_used: set[int] = set()
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        for count, arrays, primes_hit in (pool.imap if pool else map)(
            scan, enumeration.chunks(chunk_size)
        ):
            tested += count
            found.append(arrays)
            primes_used.update(primes_hit)
            if progress:
                progress(tested)
    if tested != enumeration.total():
        raise RuntimeError(f"the scan covered {tested} of {enumeration.total()} supports")

    cols, *data = map(np.concatenate, zip(*found))
    order = np.lexsort(cols.T[::-1])
    supports = [tuple(map(tuple, s)) for s in np.stack(np.divmod(cols[order], n), -1).tolist()]
    used = sorted(primes_used)
    if kind == "exact":
        # a dependent row is zero under every prime
        dependent = [SupportVerdict(s, False, dict.fromkeys(used, 0)) for s in supports]
    else:
        # |d| of the complex128 rounding of d: a long-double abs rounds the last bit differently
        moduli = np.abs(data[0][order].astype(np.complex128)).tolist()
        dependent = [
            SupportVerdict(s, False, det_modulus=m, witness=w)
            for s, m, w in zip(supports, moduli, data[1][order])
        ]

    elapsed = time.perf_counter() - start
    return VerificationReport(
        n=n,
        backend=kind,
        window_kind=window.kind,
        mode=enumeration.mode,
        supports_tested=tested,
        dependent=dependent,
        primes_used=used,
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


def fourier_minor_check(p: int, min_bits: int = DEFAULT_MIN_BITS) -> FourierCheckReport:
    """Exhaustively verify that every square minor of the p×p DFT matrix is
    nonzero, for prime p (an instance check of Chebotarev's theorem).

    The number of minors is C(2p, p) - 1, so p is capped at 7.
    """
    if not is_prime(p):
        raise ValueError("dimension must be prime")
    if p > 7:
        raise ValueError("exhaustive minor check capped at p = 7")
    ctxs = embedding_primes(p, DEFAULT_NUM_PRIMES, min_bits)
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
            lambda i, sel: det_batch_nonzero_mod(
                tables[i][rows[sel][:, :, None], cols[sel][:, None, :]], ctxs[i].prime
            ),
            [c.prime for c in ctxs],
        )
        tested += len(rows)
        failures.extend((tuple(map(int, rows[k])), tuple(map(int, cols[k]))) for k in zero)
        primes_used.update(used)
    return FourierCheckReport(p, tested, failures, sorted(primes_used))
