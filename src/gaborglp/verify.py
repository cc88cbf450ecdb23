"""General-linear-position verification.

A window is in general linear position (GLP) when every N-element subset of
its N² time-frequency shifts is linearly independent, i.e. every N×N minor
of the full system matrix is nonzero.  This module enumerates supports
(exhaustively or by seeded sampling, both in `combinations` order), evaluates
the minors in batches, and lists each dependent support in a deterministic
report.  The scans return dependent members as arrays, which `verify_glp` sorts
and the report keeps; `to_columns` and `write_witness_csv` hand them to
`table.fill` as columns, so no record is built per dependent support.

The exact exhaustive scan checks one support per translation orbit; orbits
and their weights belong to it alone.  As π(a,b)·π(κ,λ) = ω^c·π(κ+a, λ+b),
the matrix of Λ+(a,b) is π(a,b) times the matrix of Λ times a diagonal of
powers of ω and a permutation, so whether the minor vanishes is constant on
the orbit, over ℂ and mod every embedding prime.
Representatives grow column by column, depth first, under a necessary
bound (`_walk`); a full row then passes an exact test on its support mask
(`_leaves`).  Under the exact backend the walk is the scan: every grown row
carries the maximal minors of its columns mod the first prime, one Laplace
step from its parent's, so rows share the work of their common prefix at
every depth.  The walk stops at rows of N-1 columns; each slice of their
candidate columns is a task that a worker finishes: the least test, each
representative's minor as one dot of its column with its parent's signed
cofactors, then column rows, escalation and orbit expansion for the minors
zero at the first prime only.  Blocks and reports do not depend on the
worker count.  The exact scan reports every member of a dependent orbit.
Every other scan reads plain blocks of column rows by rank (`_unrank`): the
float scan tests every support, since rounding makes float moduli and
witnesses differ across an orbit, and sampled mode tests its draws.
`_minors_mod` walks given rows column by column: sampled rows,
representatives under the further escalation primes, and the DFT check.

Soundness convention for the exact backend: a nonzero residue mod p proves
the minor nonzero; a zero residue is only "zero mod p" and is escalated
across `num_primes` independent primes — a support is reported dependent
only when every prime agrees.  Reports are bit-identical regardless of the
worker count.
"""

from __future__ import annotations

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
    last_step_mod,
    residue_dtype,
)
from .operators import Window, system_matrix
from .table import Table, fill
from .windows import ones_window_exact

DEFAULT_CHUNK = 65_536


@dataclass(frozen=True)
class SupportEnumeration:
    """Stream of size-N supports, as rows of sorted column indices.

    Columns are numbered 0..N²-1 in lexicographic (κ,λ) order.  Exhaustive
    mode covers all C(N², N) supports, sampled mode `count` distinct ranks
    drawn from `seed`; both yield rows in `itertools.combinations` order.
    """

    n: int
    mode: str = "exhaustive"  # "exhaustive" | "sampled"
    count: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"N must be at least 1, got {self.n}")
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

    def chunks(self, size: int = DEFAULT_CHUNK, embedding=None):
        """Blocks of at most max(1, `size` // N) column rows, unranked from every
        rank below C(N², N) in turn or from the sorted draws; the float scan
        tests each row.  Only the exact exhaustive scan shares a verdict across
        a translation orbit: under an `embedding` (columns, prime), exhaustive
        blocks are the leaf tasks of `_walk`, which `_leaves` finishes with
        their minors and orbit sizes."""
        if self.mode == "exhaustive" and embedding is not None:
            yield from _walk(self.n, size, embedding)
            return
        nn, step = self.n * self.n, max(1, size // self.n)
        total = math.comb(nn, self.n)
        if self.mode == "exhaustive":
            blocks = (np.arange(s, min(s + step, total)) for s in range(0, total, step))
        else:
            rng, ranks = random.Random(self.seed), set()  # Floyd's; `random.sample` needs len < 2**63
            for j in range(total - self.count, total):
                r = rng.randrange(j + 1)
                ranks.add(j if r in ranks else r)
            ranks = np.array(sorted(ranks), dtype=np.int64 if total < 2**63 else object)
            blocks = np.split(ranks, range(step, self.count, step))
        for block in blocks:
            yield _unrank(block, nn, self.n)


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


def _walk(n: int, size: int, embedding):
    """The leaf tasks of the depth-first walk over orbit representatives.

    A representative is the lexicographically least member Λ = {0 < c₁ < …}
    of its orbit: no Λ-e, e ∈ Λ (its translates that contain 0), is smaller.
    As Λ-y sorts as (0, min col(x-y), …), every difference col(x-y), x ≠ y, is
    ≥ c₁, so rows grow a column y at a time while `low`, y's least difference
    from the row, is ≥ c₁; depth first in slices of size // N rows.  A grown
    row carries its mask and its C(N, d) minors under the `embedding`
    (columns, prime): one `laplace_step_mod` from its parent's, on sub-slices
    whose products hold ≤ `size` entries (one row's, if more).  A slice of
    rows of N-1 columns is a leaf task (parents, masks, minors, leaves), of
    candidates parents[r] + y for r·N² + y in `leaves`; `_leaves` finishes it.
    """
    nn, step, col = n * n, max(1, size // n), np.arange(n * n)
    diff = (col[:, None] // n - col // n) % n * n + (col[:, None] - col) % n  # col(x-y)
    sep, bit = np.minimum(diff, diff.T).astype(np.uint8), _mask(col[:, None], n)
    cols, p = embedding

    def minors(coords, r, y, d):
        per = max(1, size // (math.comb(n, d + 1) * (d + 1)))
        steps = [
            laplace_step_mod(coords[r[s : s + per]], cols[y[s : s + per]], d, p)
            for s in range(0, len(r), per)
        ]
        # int32 holds every residue below 2**31, in half the memory of the steps' int64
        return np.concatenate(steps, dtype=np.int32 if p < 2**31 else None, casting="same_kind")

    def grow(rows, masks, low, coords, grown):
        d = rows.shape[1]
        for s in range(0, len(grown), step):
            rs, ys = np.divmod(grown[s : s + step], nn)
            if d == n - 1:  # a task holds the slice's parents and its candidates, r·N² + y
                part = slice(rs[0], rs[-1] + 1)
                leaves = (grown[s : s + step] - rs[0] * nn).astype(np.int32)
                yield rows[part], masks[part], coords[part], leaves
                continue
            new, new_low = np.column_stack([rows[rs], ys]), np.minimum(low[rs], sep[ys])
            c1 = new[:, 1:2] if d else col  # a row of one column takes y as c₁
            ok = (new_low >= c1) & (col > new[:, -1:]) & (col <= nn - n + d + 1)
            grown_minors = minors(coords, rs, ys, d)
            yield from grow(new, masks[rs] | bit[ys], new_low, grown_minors, np.flatnonzero(ok))

    # every representative starts with column 0: the one candidate of the empty row
    root = np.zeros((1, 0), np.int64), np.zeros(1, np.uint64), np.full((1, nn), nn, np.uint8)
    yield from grow(*root, np.ones((1, 1), dtype=residue_dtype(p)), np.zeros(1, np.intp))


def _leaves(task, embedding):
    """The representatives parents[r] + y of a leaf task of `_walk`, as (r, y),
    with their orbit sizes and their minors under the walk's `embedding`, by
    `last_step_mod`.  The e with Λ-e = Λ form a row's stabilizer, e = 0 among
    them.  A full row's Λ-e can equal Λ or sort below it only if its next
    column is c₁, that is e + c₁ ∈ Λ, so the exact test shifts only by the
    e ≠ 0 in Λ ∩ (Λ-c₁), lowest bit first, until a translate is smaller."""
    parents, masks, coords, leaves = task
    n = parents.shape[1] + 1
    nn = n * n
    r, y = np.divmod(leaves, nn)
    own = masks[r] | _mask(y[:, None], n)
    # Λ ∩ (Λ-c₁) without the column 0 of Λ, its highest bit; c₁ = y below N = 3
    near = (own ^ np.uint64(1 << (nn - 1))) & _shifted(own, n, parents[r, 1] if n > 2 else y)
    least, fixed = np.ones(len(own), bool), np.zeros(len(own), np.intp)
    i = np.flatnonzero(near)
    bits, own_i = near[i], own[i]
    while i.size:
        rest = bits & (bits - np.uint64(1))
        # the column of the lowest bit: frexp of a power of two 2**b is exact, exponent b + 1
        shifted = _shifted(own_i, n, nn - np.frexp((bits ^ rest).astype(np.float64))[1])
        least[i[shifted > own_i]] = False
        fixed[i] += shifted == own_i
        keep = (shifted <= own_i) & (rest != 0)
        i, bits, own_i = i[keep], rest[keep], own_i[keep]
    r, y = r[least], y[least]
    return r, y, nn // (1 + fixed[least]), last_step_mod(coords, r, embedding[0][y], embedding[1])


def _orbit_members(reps: np.ndarray) -> np.ndarray:
    """The distinct translates of each representative, sorted row by row."""
    if not len(reps):  # most leaf tasks have no dependent representative
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
    parent's maximal minors.  Any order of rows is sound; rows in
    `combinations` order make prefixes repeat.  This serves sampled rows,
    the escalation primes after the first and the DFT check; exhaustive
    rows get their first-prime minors from `_walk`.
    """
    first = (np.diff(sel, axis=0, prepend=-1) != 0).argmax(axis=1)  # depth of a row's first new column
    coords = np.ones((1, 1), dtype=residue_dtype(p))  # the one empty prefix
    for d in range(sel.shape[1]):
        new = first <= d
        # the parent: the last prefix of d columns up to the row (index -1 at d = 0: the empty one)
        coords = laplace_step_mod(coords[np.cumsum(first < d)[new] - 1], cols[sel[new, d]], d, p)
    return coords.ravel()


def _scan_chunk_exact(sel: np.ndarray, embeddings, first=None) -> tuple:
    """Escalate the column rows `sel`, taking their residues under the first
    prime from `first` where given; the dependent rows come back as one array."""
    if first is None:
        first = _minors_mod(*embeddings[0], sel)
    dependent, used = _escalate(
        lambda i, rows: (first if i == 0 else _minors_mod(*embeddings[i], sel[rows])) != 0,
        [p for _, p in embeddings],
    )
    return len(sel), (sel[dependent],), used


def _scan_leaves(task: tuple, embeddings) -> tuple:
    """Finish a leaf task of the walk under the first prime, escalate the
    representatives zero there, the only ones whose column rows are built,
    and expand the dependent ones to their orbits."""
    r, y, weights, first = _leaves(task, embeddings[0])
    zero = first == 0
    sel = np.column_stack([task[0][r[zero]], y[zero]])
    _, (dependent,), used = _scan_chunk_exact(sel, embeddings, first[zero])
    return int(weights.sum()), (_orbit_members(dependent),), used


def _scan_chunk_float(sel: np.ndarray, cols: np.ndarray, backend) -> tuple:
    """Test every column row of `sel` in one `det_batch_float` stack: float
    moduli and witnesses differ across a translation orbit, so no verdict is
    shared.  The dependent rows come back with their determinant moduli and
    witnesses.  A modulus is |d| of the complex128 rounding of d: a
    long-double abs rounds the last bit differently."""
    mats = cols[:, sel].transpose(1, 0, 2)
    dets = det_batch_float(mats)
    # the largest |entry| of each matrix, from per-column maxima: `max` picks the same values
    rows = np.flatnonzero(backend.is_zero(dets, np.abs(cols).max(axis=0)[sel].max(axis=1)))
    moduli = np.abs(dets[rows].astype(np.complex128))
    return len(sel), (sel[rows], moduli, _float_witness(mats[rows])), []


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

    def _cells(self) -> list[list[np.ndarray]]:
        """The support of each entry as columns: per cell, its κ and its λ."""
        k, l = np.divmod(self.dependent, self.n)
        return [[k[:, i], l[:, i]] for i in range(self.n)]

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

    def _entry_columns(self) -> dict:
        """A `dependent_supports` entry whose leaves are columns over all
        entries; the residues, zero under every prime, stay constants."""
        if self.backend == "exact":
            residues = dict.fromkeys(map(str, self.primes_used), 0)
            return {"support": self._cells(), "residues": residues}
        w = self.witness
        return {
            "support": self._cells(),
            "det_modulus": self.det_modulus,
            "witness": [[w.real[:, i], w.imag[:, i]] for i in range(self.n)],
        }

    def _fields(self, entries) -> dict:
        out = {
            "n": self.n,
            "backend": self.backend,
            "window_kind": self.window_kind,
            "mode": self.mode,
            "supports_tested": self.supports_tested,
            "dependent": len(self.dependent),
            "dependent_supports": entries,
            "primes_used": self.primes_used,
            "verdict": self.verdict,
        }
        if self.sample_count is not None:
            out["sample_count"] = self.sample_count
            out["sample_seed"] = self.sample_seed
        return out

    def to_dict(self) -> dict:
        """The report as plain data, one dict per dependent support."""
        return self._fields(self._entries())

    def to_columns(self) -> dict:
        """`to_dict()` with `dependent_supports` as a `Table` of the entries'
        leaf columns, which the report writer fills without building them."""
        return self._fields(Table(self._entry_columns(), len(self.dependent)))


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
    if kind == "float":
        scan = partial(_scan_chunk_float, cols=system_matrix(window), backend=window.backend)
        chunks = enumeration.chunks(chunk_size)
    else:  # exhaustive chunks are the walk's leaf tasks, which the workers finish
        embeddings = _embeddings(window, num_primes)
        exhaustive = enumeration.mode == "exhaustive"
        scan = partial(_scan_leaves if exhaustive else _scan_chunk_exact, embeddings=embeddings)
        chunks = enumeration.chunks(chunk_size, embeddings[0])

    tested = 0
    found: list[tuple] = []
    primes_used: set[int] = set()
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        for count, arrays, primes_hit in (pool.imap if pool else map)(scan, chunks):
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
    residue under each prime (exact) or the determinant modulus (float).  The
    rows are the bytes of `csv.writer`: the support quoted, CRLF row ends."""
    parts = [f'{report.n},"']
    for k, l in report._cells():
        parts += [k, ",", l, ";"]
    parts[-1] = f'",{report.backend},'
    if report.backend == "exact":
        parts[-1] += "|".join(f"{p}:0" for p in report.primes_used) + "\r\n"
    else:
        parts += [report.det_modulus, "\r\n"]
    with open(path, "w", newline="") as fh:
        fh.write("n,support,backend,determinant\r\n")
        # floats by `repr`, as `csv` writes them
        fh.writelines(fill(parts, len(report.dependent), {}))


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
        subsets = _unrank(np.arange(math.comb(p, order)), p, order)
        zero, used = _escalate(
            lambda i, sel: _minors_mod(*tables[i], subsets)[sel] != 0, [q for _, q in tables]
        )
        tested += len(subsets) ** 2
        r, c = np.divmod(zero, len(subsets))
        failures += zip(map(tuple, subsets[r].tolist()), map(tuple, subsets[c].tolist()))
        primes_used.update(used)
    return FourierCheckReport(p, tested, failures, sorted(primes_used))
