"""Scalar arithmetic backends.

Every certification in this package ultimately asks whether some cyclotomic
determinant is zero.  Two interchangeable backends answer that question:

* exact: cyclotomic integers are evaluated in a prime field GF(p) chosen with
  p ≡ 1 (mod L), sending the primitive L-th root of unity to a residue u of
  exact multiplicative order L.  The map is a ring homomorphism, so a nonzero
  residue certifies that the complex value is nonzero.  A zero residue only
  means "zero mod this prime"; callers escalate zero verdicts across several
  independent primes (see `embedding_primes`) before reporting dependence.

* float: extended-precision complex arithmetic (80-bit long double where the
  platform provides it, i.e. a 64-bit mantissa) with an explicit relative
  zero tolerance.  A determinant counts as zero when |det| is strictly below
  eps times the matrix's max entry modulus (`FloatBackend.is_zero`); the
  extended mantissa keeps elimination noise on genuinely singular systems
  far below that threshold.
"""

from __future__ import annotations

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


def embedding_primes(
    order: int, count: int, min_bits: int = DEFAULT_MIN_BITS
) -> list[CyclotomicContext]:
    """The `count` smallest primes p ≥ 2**min_bits with p ≡ 1 (mod order),
    ascending, each with a root of exact order `order`.

    Dirichlet guarantees such primes exist; the candidate ceiling only guards
    against misconfiguration.
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
    return out


def embed_rational_complex(
    ctx: CyclotomicContext, re: Fraction | int, im: Fraction | int = 0
) -> int:
    """Residue image of the Gaussian rational re + im*i.

    Requires 4 | ctx.order so that i has an image of exact order 4.
    """
    re, im = Fraction(re), Fraction(im)
    p = ctx.prime
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


def det_batch_nonzero_mod(mats: np.ndarray, p: int) -> np.ndarray:
    """Vectorized zero/nonzero verdicts for a stack of matrices mod p.

    mats: (B, n, n) int64 residues.  Uses division-free elimination
    (row_i <- a*row_i - f*row_k), which scales determinants by nonzero
    factors only, so "det != 0" is preserved.  Products of residues fit in
    int64 for p < 2**31; wider primes run the same elimination on Python ints.
    """
    m = np.ascontiguousarray(np.asarray(mats, dtype=np.int64) % p)
    if p >= 1 << 31:
        m = m.astype(object)
    B, n, n2 = m.shape
    if n != n2:
        raise ValueError("matrices must be square")
    ok = np.ones(B, dtype=bool)
    idx = np.arange(B)
    for k in range(n):
        col = m[:, k:, k]
        nz = col != 0
        ok &= nz.any(axis=1)
        piv = nz.argmax(axis=1)
        rows_k = m[:, k, k:].copy()
        prows = m[idx, k + piv, k:].copy()
        m[idx, k + piv, k:] = rows_k
        m[:, k, k:] = prows
        if k + 1 < n:
            a = m[:, k, k][:, None, None]
            f = m[:, k + 1 :, k][:, :, None]
            m[:, k + 1 :, k:] = (a * m[:, k + 1 :, k:] - f * m[:, k : k + 1, k:]) % p
    return ok


def det_float(mat: np.ndarray) -> complex:
    """Determinant by partially pivoted elimination, in the input dtype.

    Implemented directly (instead of LAPACK) so that extended-precision
    complex matrices are supported.
    """
    m = np.array(mat, copy=True)
    n, n2 = m.shape
    if n != n2:
        raise ValueError("matrix must be square")
    det = m.dtype.type(1)
    for k in range(n):
        piv = int(np.abs(m[k:, k]).argmax()) + k
        if m[piv, k] == 0:
            return m.dtype.type(0)
        if piv != k:
            m[[k, piv]] = m[[piv, k]]
            det = -det
        det *= m[k, k]
        if k + 1 < n:
            m[k + 1 :, k:] -= (m[k + 1 :, k] / m[k, k])[:, None] * m[k, k:]
    return det


def det_batch_float(mats: np.ndarray) -> np.ndarray:
    """Determinants of a stack of complex matrices (any complex dtype)."""
    m = np.array(mats, copy=True)
    B, n, _ = m.shape
    det = np.ones(B, dtype=m.dtype)
    idx = np.arange(B)
    for k in range(n):
        piv = np.abs(m[:, k:, k]).argmax(axis=1)
        rows_k = m[:, k, k:].copy()
        prows = m[idx, k + piv, k:].copy()
        m[idx, k + piv, k:] = rows_k
        m[:, k, k:] = prows
        det[piv > 0] = -det[piv > 0]
        a = m[:, k, k]
        det *= a
        if k + 1 < n:
            safe = np.where(a == 0, m.dtype.type(1), a)
            f = (m[:, k + 1 :, k] / safe[:, None])[:, :, None]
            m[:, k + 1 :, k:] -= f * m[:, k : k + 1, k:]
    return det


# ---------------------------------------------------------------------------
# backend objects
# ---------------------------------------------------------------------------


class ResidueBackend:
    """Exact backend: vectors/matrices of int64 residues in one context."""

    kind = "exact"

    def __init__(self, context: CyclotomicContext):
        self.context = context
        self._omega_cache: dict[int, np.ndarray] = {}

    @property
    def prime(self) -> int:
        return self.context.prime

    def omega_table(self, n: int) -> np.ndarray:
        """Powers ω^0..ω^(n-1) of the order-n root, as int64 residues."""
        if n not in self._omega_cache:
            om = self.context.root_of_unity(n)
            p = self.prime
            tab = np.empty(n, dtype=np.int64)
            v = 1
            for e in range(n):
                tab[e] = v
                v = v * om % p
            self._omega_cache[n] = tab
        return self._omega_cache[n]

    def omega_powers(self, n: int, exps: np.ndarray) -> np.ndarray:
        return self.omega_table(n)[np.asarray(exps) % n]

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.prime < 1 << 31:
            return a * b % self.prime
        # int64 products would overflow for larger primes; go through Python ints
        out = [int(x) * int(y) % self.prime for x, y in zip(a.ravel(), b.ravel())]
        return np.array(out, dtype=np.int64).reshape(a.shape)


class FloatBackend:
    """Floating backend: extended-precision complex with a relative zero tolerance."""

    kind = "float"

    def __init__(self, eps: float = DEFAULT_EPS, dtype=COMPLEX_DTYPE):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)
        self.dtype = np.dtype(dtype)
        self._omega_cache: dict[int, np.ndarray] = {}

    def omega_table(self, n: int) -> np.ndarray:
        if n not in self._omega_cache:
            ang = 2 * np.pi * np.arange(n, dtype=REAL_DTYPE) / REAL_DTYPE(n)
            self._omega_cache[n] = (np.cos(ang) + 1j * np.sin(ang)).astype(self.dtype)
        return self._omega_cache[n]

    def omega_powers(self, n: int, exps: np.ndarray) -> np.ndarray:
        return self.omega_table(n)[np.asarray(exps) % n]

    def mul(self, a, b):
        return np.asarray(a, dtype=self.dtype) * np.asarray(b, dtype=self.dtype)

    def is_zero(self, value, scale=1.0):
        """The float zero rule |value| < eps·scale, elementwise over arrays."""
        return np.abs(value) < self.eps * scale
