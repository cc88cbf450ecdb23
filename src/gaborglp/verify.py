"""General-linear-position verification.

A window is in general linear position (GLP) when every N-element subset of
its N² time-frequency shifts is linearly independent, i.e. every N×N minor
of the full system matrix is nonzero.  This module enumerates supports
(exhaustively or by seeded sampling, both in `combinations` order), evaluates
the minors in batches, and lists each dependent support in a deterministic
report.  The scans return dependent members as arrays, which `verify_glp` sorts
and the report keeps; `to_dict` and `write_witness_csv` write them out in bulk.

Exhaustive mode checks one support per translation orbit.  As π(a,b)·π(κ,λ)
= ω^c·π(κ+a, λ+b), the matrix of Λ+(a,b) is π(a,b) times the matrix of Λ
times a diagonal of powers of ω and a permutation, so whether the minor
vanishes is constant on the orbit, over ℂ and mod every embedding prime.
Representatives grow column by column under a necessary bound, then pass
an exact test (`_representatives`).  The exact scan runs the kernel on
representatives and reports every member of a dependent orbit; the float
scan tests every member, since rounding makes float moduli and witnesses
differ across an orbit.  The exact scan walks each block's rows column
by column (`_minors_mod`): a prefix of d+1 columns gets its C(N, d+1)
maximal minors by one Laplace step from its parent prefix, and rows in
depth-first order share long prefixes, so they share work at every depth.

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
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool

import numpy as np

from .backends import (
    DEFAULT_MIN_BITS,
    DEFAULT_NUM_PRIMES,
    det_batch_float,
    embedding_primes,
    is_prime,
    laplace_step_mod,
    residue_dtype,
)
from .operators import Window, system_matrix
from .windows import ones_window_exact

DEFAULT_CHUNK = 65_536


@dataclass(frozen=True)
class SupportEnumeration:
    """Stream of size-N supports, as rows of sorted column indices.

    Columns are numbered 0..N²-1 in lexicographic (κ,λ) order.  Exhaustive
    mode covers all C(N², N) supports by one representative per translation
    orbit (see `_representatives`); sampled mode unranks `count` distinct
    ranks drawn from `seed`.  Both yield rows in `itertools.combinations` order.
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

    def chunks(self, size: int = DEFAULT_CHUNK):
        """Blocks of at most max(1, `size` // N) rows, as (supports, weights) arrays.

        A row stands for `weight` supports: an exhaustive row is an orbit
        representative weighted by its orbit size, a sampled row is one drawn
        support of weight 1.  `_orbit_members` expands a block.
        """
        if self.mode == "exhaustive":
            yield from _representatives(self.n, size)
            return
        total, step = math.comb(self.n * self.n, self.n), max(1, size // self.n)
        rng, ranks = random.Random(self.seed), set()  # Floyd's; `random.sample` needs len < 2**63
        for j in range(total - self.count, total):
            r = rng.randrange(j + 1)
            ranks.add(j if r in ranks else r)
        ranks = np.array(sorted(ranks), dtype=np.int64 if total < 2**63 else object)
        for block in np.split(ranks, range(step, self.count, step)):
            yield _unrank(block, self.n * self.n, self.n), np.ones(len(block), dtype=np.int64)


def _unrank(ranks: np.ndarray, m: int, k: int) -> np.ndarray:
    """The k-subsets of range(m) of the given ranks in `combinations` order, as rows: element i
    is the last x whose count below[x] of subsets with a smaller element i fits the rank left."""
    rows, prev = np.empty((len(ranks), k), dtype=np.int64), np.full(len(ranks), -1)
    for i in range(k):
        counts = (math.comb(m - 1 - y, k - 1 - i) for y in range(m))
        below = np.array([0, *itertools.accumulate(counts)], dtype=ranks.dtype)
        ranks = ranks + below[prev + 1]
        rows[:, i] = prev = np.searchsorted(below, ranks, side="right") - 1
        ranks = ranks - below[prev]
    return rows


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
# batch engine
# ---------------------------------------------------------------------------


def _exact_windows(window: Window, num_primes: int) -> list[Window]:
    """The window re-embedded under the smallest usable primes, `num_primes`
    in all; a prime under which it has no nonzero image is passed over."""
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


def _embeddings(window: Window, num_primes: int) -> list[tuple[np.ndarray, int]]:
    """(system matrix with one row per column, prime) under each prime of `_exact_windows`."""
    return [(system_matrix(w).T.copy(), w.backend.prime) for w in _exact_windows(window, num_primes)]


def _float_witness(mats: np.ndarray) -> np.ndarray:
    """Numerical null vectors (least singular directions) of a stack of matrices.
    The SVDs run on slices of 4,096 matrices, which bounds their workspace; an
    empty stack takes one empty SVD."""
    mats = np.asarray(mats, dtype=np.complex128)
    vh = [np.linalg.svd(mats[s : s + 4096])[2][:, -1] for s in range(0, max(len(mats), 1), 4096)]
    return np.conj(np.concatenate(vh))


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


def _minors_mod(cols: np.ndarray, p: int, sel: np.ndarray) -> np.ndarray:
    """Residues mod p of the minors on the rows `sel` of reduced columns `cols`: row r of d columns
    of n entries has C(n, d) minors, on row subsets t in `combinations` order, at r·C(n, d) + t.

    A row's first d+1 columns are a new prefix unless the row before has
    them too.  At depth d each new prefix takes one Laplace step from its
    parent's maximal minors.  Any order of rows is sound; the depth-first
    order of `_representatives` makes prefixes repeat.
    """
    first = (np.diff(sel, axis=0, prepend=-1) != 0).argmax(axis=1)  # depth of a row's first new column
    coords = np.ones((1, 1), dtype=residue_dtype(p))  # the one empty prefix
    for d in range(sel.shape[1]):
        new = first <= d
        # the parent: the last prefix of d columns up to the row (index -1 at d = 0: the empty one)
        coords = laplace_step_mod(coords[np.cumsum(first < d)[new] - 1], cols[sel[new, d]], d, p)
    return coords.ravel()


def _scan_chunk_exact(chunk: tuple, embeddings) -> tuple:
    """Escalate the rows of a (supports, weights) chunk; the dependent
    members come back as one array of column rows."""
    sel, weights = chunk
    dependent, used = _escalate(
        lambda i, rows: _minors_mod(*embeddings[i], sel[rows]) != 0,
        [p for _, p in embeddings],
    )
    return int(weights.sum()), (_orbit_members(sel[dependent], weights[dependent]),), used


def _scan_chunk_float(chunk: tuple, cols: np.ndarray, backend) -> tuple:
    """Scan every member of a (supports, weights) chunk (float moduli are not
    orbit invariant); the dependent members come back as arrays of their
    column rows, determinant moduli and witnesses, empty ones for an empty
    chunk.  A modulus is |d| of the complex128 rounding of d: a long-double
    abs rounds the last bit differently."""
    sel, weights = chunk
    members = _orbit_members(sel, weights)
    found = []
    for start in range(0, max(len(members), 1), DEFAULT_CHUNK):
        mats = cols[:, members[start : start + DEFAULT_CHUNK]].transpose(1, 0, 2)
        dets = det_batch_float(mats)
        rows = np.flatnonzero(backend.is_zero(dets, np.abs(mats).max(axis=(1, 2))))
        moduli = np.abs(dets[rows].astype(np.complex128))
        found.append((members[start + rows], moduli, _float_witness(mats[rows])))
    return int(weights.sum()), tuple(map(np.concatenate, zip(*found))), []


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    """The result of `verify_glp`.  `dependent` holds the sorted column rows
    (D, N) of the dependent supports; each is zero under every prime in
    `primes_used` (exact), or has the modulus `det_modulus[i]` and the null
    vector `witness[i]` (float; both None under the exact backend)."""

    n: int
    backend: str
    window_kind: str
    mode: str
    supports_tested: int
    dependent: np.ndarray
    det_modulus: np.ndarray | None
    witness: np.ndarray | None
    primes_used: list[int]
    elapsed_seconds: float
    sample_count: int | None = None
    sample_seed: int | None = None

    @property
    def verdict(self) -> str:
        if len(self.dependent):
            return "dependent-found"
        return "glp-certified" if self.mode == "exhaustive" else "glp-on-sample"

    def _entries(self) -> list[dict]:
        """One `dependent_supports` entry per row; exact entries share one
        `residues` dict."""
        supports = np.stack(np.divmod(self.dependent, self.n), -1).tolist()
        if self.backend == "exact":
            residues = dict.fromkeys(map(str, self.primes_used), 0)
            return [{"support": s, "residues": residues} for s in supports]
        witnesses = np.stack([self.witness.real, self.witness.imag], -1).tolist()
        return [
            {"support": s, "det_modulus": m, "witness": w}
            for s, m, w in zip(supports, self.det_modulus.tolist(), witnesses)
        ]

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "backend": self.backend,
            "window_kind": self.window_kind,
            "mode": self.mode,
            "supports_tested": self.supports_tested,
            "dependent": len(self.dependent),
            "dependent_supports": self._entries(),
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
    for name, value in (("workers", workers), ("primes", num_primes)):
        if value < 1:
            raise ValueError(f"the number of {name} must be at least 1, got {value}")
    start = time.perf_counter()
    kind = window.backend.kind
    if kind == "exact":
        scan = partial(_scan_chunk_exact, embeddings=_embeddings(window, num_primes))
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
    moduli, witnesses = (d[order] for d in data) if data else (None, None)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        n=n,
        backend=kind,
        window_kind=window.kind,
        mode=enumeration.mode,
        supports_tested=tested,
        dependent=cols[order],
        det_modulus=moduli,
        witness=witnesses,
        primes_used=sorted(primes_used),
        elapsed_seconds=elapsed,
        sample_count=enumeration.count if enumeration.mode == "sampled" else None,
        sample_seed=enumeration.seed if enumeration.mode == "sampled" else None,
    )


def write_witness_csv(report: VerificationReport, path) -> None:
    """One CSV row per dependent support: n, support, backend, and the zero
    residue under each prime (exact) or the determinant modulus (float)."""
    cells = np.stack(np.divmod(report.dependent, report.n), -1).tolist()
    supports = [";".join(f"{k},{l}" for k, l in s) for s in cells]
    if report.backend == "exact":
        dets = itertools.repeat("|".join(f"{p}:0" for p in report.primes_used))
    else:
        dets = map(repr, report.det_modulus.tolist())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "support", "backend", "determinant"])
        writer.writerows((report.n, s, report.backend, d) for s, d in zip(supports, dets))


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
    embeddings = _embeddings(ones_window_exact(p, min_bits), DEFAULT_NUM_PRIMES)
    # columns π(0,λ)·1 = (ω^(jλ))_j, λ < p, of the all-ones window: the DFT matrix.  The walk
    # runs over its rows, so minor r·s + c is on (row subset r, column subset c).
    tables = [(c[:p].T, q) for c, q in embeddings]
    tested, failures, primes_used = 0, [], set()
    for order in range(1, p + 1):
        subsets = np.array(list(itertools.combinations(range(p), order)))
        zero, used = _escalate(
            lambda i, sel: _minors_mod(*tables[i], subsets)[sel] != 0, [q for _, q in tables]
        )
        tested += len(subsets) ** 2
        r, c = np.divmod(zero, len(subsets))
        failures += zip(map(tuple, subsets[r].tolist()), map(tuple, subsets[c].tolist()))
        primes_used.update(used)
    return FourierCheckReport(p, tested, failures, sorted(primes_used))
