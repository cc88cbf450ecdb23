"""Scalar arithmetic backends.

Every certification in this package ultimately asks whether some cyclotomic
determinant is zero.  Two interchangeable backends answer that question:

* exact: cyclotomic integers are evaluated in a prime field GF(p) chosen with
  p ≡ 1 (mod L), sending the primitive L-th root of unity to a residue u of
  exact multiplicative order L.  The map is a ring homomorphism, so a nonzero
  residue certifies that the complex value is nonzero.  A zero residue only
  means "zero mod this prime"; callers escalate zero verdicts across several
  independent primes (see `embedding_primes`) before reporting dependence.
  Exact determinants come from one kernel, `laplace_step_mod`, which appends
  a column to the maximal minors of each matrix's first d columns by Laplace
  expansion, with no pivot, division or sign bookkeeping.  `det_batch_mod`
  serves Q(x) only and takes n steps a matrix.  The exhaustive verify scan
  takes one step per row that its depth-first walk grows, and its last step,
  `last_step_mod`, is one dot per orbit representative with the signed
  cofactors of its parent; sampled rows, escalation and the DFT check take
  one step per distinct column prefix.  Either way minors that share a
  prefix share its work.  `residue_dtype` decides the width, and
  `reduce_mod` reduces by a floor division.

* float: extended-precision complex arithmetic (80-bit long double where the
  platform provides it, i.e. a 64-bit mantissa) with an explicit relative
  zero tolerance.  A determinant counts as zero when |det| is strictly below
  eps times the matrix's max entry modulus (`FloatBackend.is_zero`); the
  extended mantissa keeps elimination noise on genuinely singular systems
  far below that threshold.  Float determinants come from one kernel,
  `pivot_step_float`, a column appended to the left-looking, partially
  pivoted elimination of each matrix's first d columns; `det_batch_float`
  takes n steps a matrix, and the float verify scan one step per distinct
  column prefix.  The results equal right-looking elimination's bit for bit.

The package itself calls neither scalar determinant, `det_mod` nor
`det_float`, nor `det_batch_float`, nor the zero test `det_batch_nonzero_mod`.
All four stay: the tests take them as reference kernels and verdict oracles,
and the benchmark's tracer (`perfbench/tracer.py`) looks each one up by name.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# 80-bit extended precision on x86 Linux; harmlessly degrades to complex128
# on platforms whose long double is an alias for double.
COMPLEX_DTYPE = np.clongdouble
REAL_DTYPE = np.longdouble

DEFAULT_MIN_BITS = 20
DEFAULT_EPS = 1e-8
DEFAULT_NUM_PRIMES = 3

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class SearchBoundExceededError(RuntimeError):
    """Prime search exhausted its candidate budget (misconfiguration)."""


def is_prime(n: int) -> bool:
    """Deterministic primality test for desk-scale integers."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization; adequate for the orders used here."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class CyclotomicContext:
    """A prime field hosting an exact root of unity of order `order`.

    `prime` ≡ 1 (mod `order`) and `root` has multiplicative order exactly
    `order` mod `prime`, so `root` plays the role of e^(2πi/order).
    """

    order: int
    prime: int
    root: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be positive")
        if (self.prime - 1) % self.order != 0:
            raise ValueError("prime must be ≡ 1 (mod order)")
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if not 0 < self.root < self.prime:
            raise ValueError("root out of range")
        if pow(self.root, self.order, self.prime) != 1:
            raise ValueError("root does not have order dividing `order`")
        for q in factorize(self.order):
            if pow(self.root, self.order // q, self.prime) == 1:
                raise ValueError("root has order strictly dividing `order`")

    def root_of_unity(self, d: int) -> int:
        """Residue of exact multiplicative order d, for any divisor d of order."""
        if d < 1 or self.order % d != 0:
            raise ValueError(f"{d} does not divide the context order {self.order}")
        return pow(self.root, self.order // d, self.prime)

    def inverse(self, value: int) -> int:
        return pow(value % self.prime, self.prime - 2, self.prime)


def _element_of_order(p: int, order: int) -> int:
    """Residue of exact order `order` mod p; requires order | p-1."""
    if order == 1:
        return 1
    cofactor = (p - 1) // order
    checks = [order // q for q in factorize(order)]
    for g in range(2, p):
        u = pow(g, cofactor, p)
        if u == 1:
            continue
        if all(pow(u, c, p) != 1 for c in checks):
            return u
    raise ArithmeticError(f"no element of order {order} mod {p}")  # unreachable for prime p


@functools.lru_cache
def embedding_primes(
    order: int, count: int, min_bits: int = DEFAULT_MIN_BITS
) -> tuple[CyclotomicContext, ...]:
    """The `count` smallest primes p ≥ 2**min_bits with p ≡ 1 (mod order),
    ascending, each with a root of exact order `order`.

    Dirichlet guarantees such primes exist; the candidate ceiling only guards
    against misconfiguration.  Results are cached, hence an immutable tuple.
    """
    if order < 1 or min_bits < 1:
        raise ValueError("order and min_bits must be positive")
    out: list[CyclotomicContext] = []
    floor = max(1 << min_bits, 3)
    k = max((floor - 2) // order, 0) + 1 if order > 1 else floor - 1
    budget = 1 << 24
    while len(out) < count and budget > 0:
        p = k * order + 1
        if p >= floor and is_prime(p):
            out.append(CyclotomicContext(order, p, _element_of_order(p, order)))
        k += 1
        budget -= 1
    if len(out) < count:
        raise SearchBoundExceededError(f"could not find {count} primes ≡ 1 (mod {order})")
    return tuple(out)


def embed_rational_complex(
    ctx: CyclotomicContext, re: Fraction | int, im: Fraction | int = 0
) -> int:
    """Residue image of the Gaussian rational re + im*i.

    Requires 4 | ctx.order so that i has an image of exact order 4.  Raises
    ZeroDivisionError when p divides a denominator: there is no image then.
    """
    re, im = Fraction(re), Fraction(im)
    p = ctx.prime
    if re.denominator % p == 0 or im.denominator % p == 0:
        raise ZeroDivisionError(f"{p} divides a denominator of {re} + {im}i")
    val = re.numerator * ctx.inverse(re.denominator) % p
    if im:
        if ctx.order % 4 != 0:
            raise ValueError("embedding i requires the context order to be divisible by 4")
        i_img = ctx.root_of_unity(4)
        val = (val + im.numerator * ctx.inverse(im.denominator) % p * i_img) % p
    return val


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


# no caller in the package: the tests' scalar reference, and a traced benchmark target
def det_mod(rows, p: int) -> int:
    """Exact determinant mod p by fraction-free Gaussian elimination.

    Accepts any nested sequence of ints; uses Python integers throughout, so
    there is no overflow constraint on p.
    """
    m = [[int(x) % p for x in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1 % p
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        a = m[col][col]
        det = det * a % p
        inv = pow(a, p - 2, p)
        for r in range(col + 1, n):
            f = m[r][col] * inv % p
            if f:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[col])]
    return det % p


def residue_dtype(p: int) -> np.dtype:
    """The one array type for arithmetic on residues mod p: int64 where
    products of two residues fit (p < 2**31), Python ints (dtype object) for
    wider primes, where int64 products would overflow.  Residues are stored
    as int64, so p must be below 2**63."""
    if p >= 1 << 63:
        raise ValueError(f"residues are int64, so the prime must be below 2**63, got {p}")
    return np.dtype(object if p >= 1 << 31 else np.int64)


@functools.lru_cache
def _expansion(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index tables of a Laplace step from the d×d to the (d+1)×(d+1) minors of n-row
    matrices, row subsets in `itertools.combinations` order: subset t is `rows[t]`, `rest[t, j]`
    ranks it without its j-th row among the d-subsets, and `sign[j]` = (-1)^(j+d)."""
    rank = {s: i for i, s in enumerate(itertools.combinations(range(n), d))}
    subsets = list(itertools.combinations(range(n), d + 1))
    rows = np.array(subsets, dtype=np.intp)
    rest = np.array([[rank[s[:j] + s[j + 1 :]] for j in range(d + 1)] for s in subsets], dtype=np.intp)
    sign = np.array([(-1) ** (j + d) for j in range(d + 1)], dtype=np.int64)
    for table in (rows, rest, sign):
        table.setflags(write=False)
    return rows, rest, sign


def reduce_mod(a: np.ndarray, p: int) -> np.ndarray:
    """`a % p` of an array (floor semantics, object arrays too) as a - a // p * p, built in the
    quotient's memory: numpy divides int64 by a scalar with a multiply and a shift, several times
    as fast as it takes a remainder."""
    q = a // p
    q *= p
    return np.subtract(a, q, out=q)


def laplace_step_mod(coords: np.ndarray, cols: np.ndarray, d: int, p: int) -> np.ndarray:
    """The C(n, d+1) minors mod p of R matrices after one more column: row r of `coords` holds
    the reduced C(n, d) minors P of matrix r's first d columns (row subsets in `combinations`
    order), row r of `cols` (R, n) is its next column x, and the minor on the rows
    T = (t_0 < … < t_d) is Σ_j (-1)^(j+d)·x[t_j]·P[T∖t_j].  Products are reduced before the
    signed sum where d+1 of them could overflow it, so the sum fits int64 wherever
    `residue_dtype` is int64."""
    rows, rest, sign = _expansion(cols.shape[1], d)
    prod = np.take(np.asarray(coords, dtype=residue_dtype(p)), rest, axis=1)
    prod *= np.take(cols, rows, axis=1)
    if (d + 1) * (p - 1) ** 2 >= 1 << 63:
        prod = reduce_mod(prod, p)
    return reduce_mod(prod @ sign, p)


def last_step_mod(coords: np.ndarray, parent: np.ndarray, cols: np.ndarray, p: int) -> np.ndarray:
    """`laplace_step_mod` at d = n-1, per parent: matrix k is parent[k] (its reduced n minors are
    that row of `coords`) and column cols[k], and its determinant is the dot of cols[k] with the
    parent's signed cofactors, taken once a parent.  As there, products are reduced before the sum
    where n of them could overflow it."""
    _, rest, sign = _expansion(cols.shape[1], cols.shape[1] - 1)
    cof = np.take(np.asarray(coords, dtype=residue_dtype(p)), rest[0], axis=1) * sign
    if cols.shape[1] * (p - 1) ** 2 >= 1 << 63:
        return reduce_mod(reduce_mod(np.take(cof, parent, axis=0) * cols, p).sum(axis=1), p)
    return reduce_mod(np.einsum("rj,rj->r", np.take(cof, parent, axis=0), cols), p)


def det_batch_mod(mats: np.ndarray, p: int) -> np.ndarray:
    """Exact determinants mod p of a stack of (B, n, n) integer matrices:
    n Laplace steps from the one empty minor, a column at a time."""
    m = reduce_mod(np.asarray(mats, dtype=residue_dtype(p)), p)
    if m.shape[1] != m.shape[2]:
        raise ValueError("matrices must be square")
    coords = np.ones((len(m), 1), dtype=m.dtype)
    for d in range(m.shape[2]):
        coords = laplace_step_mod(coords, m[:, :, d], d, p)
    return coords[:, 0]


# no caller in the package: the tests' full-minor oracle, and a traced benchmark target
def det_batch_nonzero_mod(mats: np.ndarray, p: int) -> np.ndarray:
    """Zero/nonzero verdicts for a stack of matrices mod p (any prime)."""
    return det_batch_mod(mats, p) != 0


# no caller in the package: the float kernel on a stack of one, and a traced benchmark target
def det_float(mat: np.ndarray) -> complex:
    """Determinant of one complex matrix: `det_batch_float` on a stack of one."""
    return det_batch_float(np.asarray(mat)[None])[0]


def pivot_step_float(state: tuple, cols: np.ndarray) -> tuple:
    """One more column of R left-looking partially pivoted eliminations: `state` holds, for each
    column k < d so far, the multipliers (n-k-1, R) and pivot rows (R,), then the determinants
    (R,); column r of `cols` (n, R) extends prefix r.  It replays the prefix's row swaps and
    updates in order, then pivots on its largest modulus from row d down: each entry takes the
    operations, in the order, of right-looking elimination, so the results agree bit for bit."""
    mults, pivots, det = state
    x, r, d = np.array(cols, order="C"), np.arange(cols.shape[1]), len(mults)
    for k, (f, v) in enumerate(zip(mults, pivots)):
        x[k], x[v, r] = x[v, r], x[k].copy()
        # x[k : k + 1], not x[k]: numpy multiplies (1, 1) by (1,) in its scalar loop,
        # which rounds complex128 unlike the vector loop of every other shape
        x[k + 1 :] -= f * x[k : k + 1]
    v = d + np.abs(x[d:]).argmax(axis=0)
    x[d], x[v, r] = x[v, r], x[d].copy()
    # not `*=`: numpy runs an in-place product of length one as a reduction, rounding as above
    det = np.where(v > d, -det, det) * x[d]
    safe = np.where(x[d] == 0, x.dtype.type(1), x[d])
    return [*mults, x[d + 1 :] / safe], [*pivots, v], det


# no caller in the package: the float kernel on unshared stacks, and a traced benchmark target
def det_batch_float(mats: np.ndarray) -> np.ndarray:
    """Determinants of a stack of (B, n, n) complex matrices in the input dtype, where LAPACK
    would not keep extended precision: n `pivot_step_float` steps, each matrix its own prefix."""
    m = np.asarray(mats)
    if m.shape[1] != m.shape[2]:
        raise ValueError("matrices must be square")
    state = [], [], np.ones(len(m), dtype=m.dtype)
    for d in range(m.shape[2]):
        state = pivot_step_float(state, m[:, :, d].T)
    return state[2]


# ---------------------------------------------------------------------------
# backend objects
# ---------------------------------------------------------------------------


class ResidueBackend:
    """Exact backend: vectors/matrices of int64 residues in one context."""

    kind = "exact"

    def __init__(self, context: CyclotomicContext):
        self._product_dtype = residue_dtype(context.prime)
        self.context = context
        self._omega_cache: dict[int, np.ndarray] = {}

    @property
    def prime(self) -> int:
        return self.context.prime

    def omega_table(self, n: int) -> np.ndarray:
        """Powers ω^0..ω^(n-1) of the order-n root, as int64 residues."""
        if n not in self._omega_cache:
            om, p = self.context.root_of_unity(n), self.prime
            self._omega_cache[n] = np.array([pow(om, e, p) for e in range(n)], dtype=np.int64)
        return self._omega_cache[n]

    def mul(self, a, b):
        a, b = np.asarray(a, dtype=self._product_dtype), np.asarray(b, dtype=self._product_dtype)
        return reduce_mod(a * b, self.prime).astype(np.int64, copy=False)


class FloatBackend:
    """Floating backend: extended-precision complex with a relative zero tolerance."""

    kind = "float"
    dtype = np.dtype(COMPLEX_DTYPE)

    def __init__(self, eps: float = DEFAULT_EPS):
        if not 0 < eps < float("inf"):
            raise ValueError(f"eps must be positive and finite, got {eps}")
        self.eps = float(eps)
        self._omega_cache: dict[int, np.ndarray] = {}

    def omega_table(self, n: int) -> np.ndarray:
        if n not in self._omega_cache:
            ang = 2 * np.pi * np.arange(n, dtype=REAL_DTYPE) / REAL_DTYPE(n)
            self._omega_cache[n] = (np.cos(ang) + 1j * np.sin(ang)).astype(self.dtype)
        return self._omega_cache[n]

    def mul(self, a, b):
        return np.asarray(a, dtype=self.dtype) * np.asarray(b, dtype=self.dtype)

    def is_zero(self, value, scale=1.0):
        """The float zero rule |value| < eps·scale, elementwise over arrays."""
        return np.abs(value) < self.eps * scale
