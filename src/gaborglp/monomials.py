"""Combinatorial analysis of symbolic Gabor determinants.

Treating the window as a variable vector z = (z_0, …, z_{N-1}), the
determinant of the system matrix over a size-N support is a homogeneous
polynomial of degree N.  Its monomials are indexed by ordered partitions
(B_0, …, B_{N-1}) of the row set with |B_κ| = l_κ, where l_κ counts the
columns with time shift κ (the column profile).  This module implements:

* profiles, their canonical consecutive-block partition, and partition
  classes (coset representatives of the quotient by block-preserving
  permutations);
* the consecutive-index (CI) monomial and its coefficient, which factors as
  a phase times a product of Vandermonde determinants in roots of unity and
  is therefore never zero;
* the lowest-index monomial obtained greedily;
* moment statistics of the discrete variable taking value i with
  probability α_i/N for a monomial z^α: the CI monomial minimizes the first
  moment and strictly minimizes the second among all classes, which is what
  makes it appear uniquely in the expansion;
* the full N!-diagonal symbolic expansion (the independent oracle for all of
  the above), and the univariate polynomial obtained by substituting
  z_n -> x^(n²), whose nonvanishing drives the power-window construction,
  by one batched determinant per prime and one cached interpolation product.

Exact coefficients are elements of Z[ω] represented canonically in the group
ring Z[x]/(x^N - 1) (`CyclicPoly`); they can be reduced to residues in a
cyclotomic context or evaluated as complex numbers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .backends import (
    DEFAULT_MIN_BITS,
    DEFAULT_NUM_PRIMES,
    CyclotomicContext,
    ResidueBackend,
    det_batch_mod,
    embedding_primes,
    reduce_mod,
    residue_dtype,
)
from .operators import gabor_indices, support_cells

TimeFreqIndex = tuple[int, int]
Monomial = tuple[int, ...]  # exponent vector α with Σα = N


class DimensionTooLargeError(ValueError):
    """Request exceeds the factorial enumeration budget."""


class BudgetExceededError(ValueError):
    """Class enumeration would exceed the configured budget."""


class CyclicPoly:
    """Integer polynomial in a root of unity of order `order`.

    Elements of Z[x]/(x^order - 1); multiplication is cyclic convolution.
    A zero coefficient vector certifies the value 0; a nonzero vector may
    still evaluate to zero in Z[ω] (e.g. 1 + ω + ω² for order 3), so
    zero-ness of values is decided by residue/complex evaluation.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        self.order = order
        if coeffs is None:
            self.coeffs = (0,) * order
        else:
            coeffs = tuple(int(c) for c in coeffs)
            if len(coeffs) != order:
                raise ValueError("coefficient vector must have length `order`")
            self.coeffs = coeffs

    @classmethod
    def monomial(cls, order: int, exponent: int, coeff: int = 1) -> "CyclicPoly":
        c = [0] * order
        c[exponent % order] = coeff
        return cls(order, c)

    @classmethod
    def one(cls, order: int) -> "CyclicPoly":
        return cls.monomial(order, 0)

    def __add__(self, other: "CyclicPoly") -> "CyclicPoly":
        self._check(other)
        return CyclicPoly(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "CyclicPoly") -> "CyclicPoly":
        self._check(other)
        return CyclicPoly(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CyclicPoly":
        return CyclicPoly(self.order, [-a for a in self.coeffs])

    def __mul__(self, other) -> "CyclicPoly":
        if isinstance(other, int):
            return CyclicPoly(self.order, [other * a for a in self.coeffs])
        self._check(other)
        out = [0] * self.order
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % self.order] += a * b
        return CyclicPoly(self.order, out)

    __rmul__ = __mul__

    def _check(self, other) -> None:
        if not isinstance(other, CyclicPoly) or other.order != self.order:
            raise ValueError("operands must be cyclic polynomials of the same order")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CyclicPoly)
            and other.order == self.order
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def residue(self, ctx: CyclotomicContext) -> int:
        """Image in GF(p) under x -> root of unity of order `order`."""
        om = ctx.root_of_unity(self.order)
        p = ctx.prime
        acc, power = 0, 1
        for c in self.coeffs:
            acc = (acc + c * power) % p
            power = power * om % p
        return acc

    def complex_value(self) -> complex:
        om = np.exp(2j * np.pi / self.order)
        return complex(sum(c * om**e for e, c in enumerate(self.coeffs)))

    def __repr__(self) -> str:
        return f"CyclicPoly({self.order}, {self.coeffs})"

    def __str__(self) -> str:
        terms = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                terms.append(f"{c}")
            else:
                unit = "ω" if e == 1 else f"ω^{e}"
                if c == 1:
                    terms.append(unit)
                elif c == -1:
                    terms.append(f"-{unit}")
                else:
                    terms.append(f"{c}{unit}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


# ---------------------------------------------------------------------------
# profiles and partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnProfile:
    """Counts l_κ of support columns per time shift κ, with Σ l_κ = N."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        if sum(counts) != len(counts):
            raise ValueError("counts must sum to the dimension")

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def prefix_sums(self) -> tuple[int, ...]:
        """m_0 = 0, m_κ = l_0 + … + l_{κ-1}; length N+1 with m_N = N."""
        m = [0]
        for c in self.counts:
            m.append(m[-1] + c)
        return tuple(m)

    @property
    def is_normalized(self) -> bool:
        m = self.prefix_sums
        return all(m[k] - k >= 0 for k in range(self.n))

    def class_count(self) -> int:
        out = math.factorial(self.n)
        for c in self.counts:
            out //= math.factorial(c)
        return out


def profile_of_support(support, n: int) -> ColumnProfile:
    counts = [0] * n
    for kappa, _ in support_cells(support, n, n):
        counts[kappa] += 1
    return ColumnProfile(tuple(counts))


def canonical_partition(profile: ColumnProfile) -> list[range]:
    """Consecutive blocks A_κ = [m_κ, m_{κ+1}); empty when l_κ = 0."""
    m = profile.prefix_sums
    return [range(m[k], m[k + 1]) for k in range(profile.n)]


def partition_classes(profile: ColumnProfile) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ordered partitions (B_0, …, B_{N-1}) of {0,…,N-1} with |B_κ| = l_κ.

    These are coset representatives for the monomial classes: each class
    contributes exactly one ordered partition, enumerated in lexicographic
    order of the (sorted) blocks.
    """
    n = profile.n

    def rec(k: int, remaining: tuple[int, ...]):
        if k == n:
            yield ()
            return
        for block in itertools.combinations(remaining, profile.counts[k]):
            rest = tuple(x for x in remaining if x not in block)
            for tail in rec(k + 1, rest):
                yield (block,) + tail

    return rec(0, tuple(range(n)))


def canonical_class(profile: ColumnProfile) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(block) for block in canonical_partition(profile))


def monomial_of_class(profile: ColumnProfile, cls) -> Monomial:
    """Exponent vector of the monomial produced by an ordered partition.

    Block B_κ contributes the variable indices (b - κ) mod N for b in B_κ,
    counted with multiplicity.
    """
    n = profile.n
    cls = tuple(tuple(b) for b in cls)
    if len(cls) != n or any(len(b) != c for b, c in zip(cls, profile.counts)):
        raise ValueError("class blocks do not match the profile sizes")
    if sorted(x for b in cls for x in b) != list(range(n)):
        raise ValueError("class blocks must partition {0,…,N-1}")
    alpha = [0] * n
    for kappa, block in enumerate(cls):
        for b in block:
            alpha[(b - kappa) % n] += 1
    return tuple(alpha)


def ci_monomial(profile: ColumnProfile) -> Monomial:
    """The consecutive-index monomial: the one from the canonical partition."""
    return monomial_of_class(profile, canonical_class(profile))


def normalize_profile(profile: ColumnProfile) -> tuple[int, ColumnProfile]:
    """Cyclic shift γ making every prefix defect m_κ - κ nonnegative.

    Returns (γ, shifted profile) with l'_κ = l_{(κ+γ) mod N}.  γ is the
    smallest index attaining min_κ (m_κ - κ); after the shift the minimum
    defect is 0, attained at κ = 0.
    """
    n = profile.n
    m = profile.prefix_sums
    defects = [m[k] - k for k in range(n)]
    gamma = defects.index(min(defects))
    shifted = ColumnProfile(tuple(profile.counts[(k + gamma) % n] for k in range(n)))
    assert shifted.is_normalized
    return gamma, shifted


def normalize_support(support, n: int) -> tuple[int, list[TimeFreqIndex]]:
    """Translate Λ by (-γ, 0) so its profile is normalized; lex-sorted result."""
    support = support_cells(support, n, n)
    gamma, _ = normalize_profile(profile_of_support(support, n))
    return gamma, sorted(((k - gamma) % n, l) for k, l in support)


def interval_of_profile(profile: ColumnProfile) -> tuple[int, int]:
    """(α, β) = (min, max) of the prefix defects m_κ - κ over 0 ≤ κ < N.

    The shifted blocks A_κ - κ, read as integer sets, tile exactly the
    interval [α, β]; this function verifies that and that β - α ≤ N - 1,
    raising AssertionError on any violation (which would be a bug, not a
    data error).
    """
    n = profile.n
    m = profile.prefix_sums
    defects = [m[k] - k for k in range(n)]
    alpha, beta = min(defects), max(defects)
    union: set[int] = set()
    for k in range(n):
        union.update(range(m[k] - k, m[k + 1] - (k + 1) + 1))
    assert union == set(range(alpha, beta + 1)), "shifted blocks do not tile an interval"
    assert beta - alpha <= n - 1
    return alpha, beta


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


class MomentPair(NamedTuple):
    first: Fraction
    second: Fraction


def monomial_moments(alpha: Monomial) -> MomentPair:
    """Moments of the variable with P[X = i] = α_i / N."""
    n = len(alpha)
    e1 = Fraction(sum(i * a for i, a in enumerate(alpha)), n)
    e2 = Fraction(sum(i * i * a for i, a in enumerate(alpha)), n)
    return MomentPair(e1, e2)


def moments(profile: ColumnProfile, cls) -> MomentPair:
    """Moments of the monomial of a class of a *normalized* profile."""
    if not profile.is_normalized:
        raise ValueError("moments require a normalized profile (m_k - k >= 0)")
    return monomial_moments(monomial_of_class(profile, cls))


# ---------------------------------------------------------------------------
# the CI coefficient and the expansion oracle
# ---------------------------------------------------------------------------


def _vandermonde_in_omega(lams, n: int) -> CyclicPoly:
    out = CyclicPoly.one(n)
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            out = out * (
                CyclicPoly.monomial(n, lams[j]) - CyclicPoly.monomial(n, lams[i])
            )
    return out


def ci_coefficient(support, n: int) -> CyclicPoly:
    """Coefficient of the CI monomial in the normalized support's determinant.

    The support is translated in time to normalize its profile and sorted
    lexicographically; the coefficient is then the product over κ of
    ω^(m_κ·Σλ) · V(ω^(λ_1), …, ω^(λ_{l_κ})) with the Vandermonde V.  Under
    the lexicographic column order the block-canonical diagonal is the
    identity permutation, so the arrangement sign is +1.  The value is a
    product of nonvanishing Vandermondes in distinct roots of unity, hence
    never zero.
    """
    _, nsup = normalize_support(support, n)
    prof = profile_of_support(nsup, n)
    m = prof.prefix_sums
    out = CyclicPoly.one(n)
    for kappa in range(n):
        lams = [l for k, l in nsup if k == kappa]
        if not lams:
            continue
        out = out * CyclicPoly.monomial(n, m[kappa] * sum(lams))
        out = out * _vandermonde_in_omega(lams, n)
    return out


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def expand_determinant(support, n: int) -> dict[Monomial, CyclicPoly]:
    """Full symbolic determinant expansion by enumerating all N! diagonals.

    Returns {exponent vector: coefficient in Z[x]/(x^N-1)}, dropping
    monomials whose coefficient representative is identically zero.  The
    support is used in lexicographic column order.  This is the brute-force
    oracle against which the closed-form machinery is validated; N is capped at 6.
    """
    if n > 6:
        raise DimensionTooLargeError(f"refusing the {n}! diagonal enumeration")
    support = sorted(support_cells(support, n, n))
    acc: dict[Monomial, list[int]] = {}
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        oexp = 0
        alpha = [0] * n
        for c, (kappa, lam) in enumerate(support):
            r = perm[c]
            oexp += r * lam
            alpha[(r - kappa) % n] += 1
        key = tuple(alpha)
        coeffs = acc.setdefault(key, [0] * n)
        coeffs[oexp % n] += sign
    return {k: CyclicPoly(n, v) for k, v in acc.items() if any(v)}


def lowest_index_monomial(support, n: int) -> Monomial:
    """Greedy monomial: repeatedly take an entry with minimal variable index,
    then delete its row and column.

    Entry (r, c) carries z_{(r - κ_c) mod N}, so the entries of index v lie in
    the rows κ + v, one row per time shift κ, and picks at one index never
    compete: for v = 0..N-1 the greedy takes one column of each κ that has a
    column left and whose row κ + v is free.  The result is therefore the same
    for every choice among minimal entries.
    """
    left = list(profile_of_support(support, n).counts)
    free = [True] * n
    alpha = [0] * n
    for v in range(n):
        for kappa in range(n):
            row = (kappa + v) % n
            if left[kappa] and free[row]:
                left[kappa] -= 1
                free[row] = False
                alpha[v] += 1
    return tuple(alpha)


# ---------------------------------------------------------------------------
# uniqueness verification
# ---------------------------------------------------------------------------


@dataclass
class CIUniquenessReport:
    profile: ColumnProfile
    class_count: int
    ci_class_hits: int
    first_moment_minimal: bool
    second_moment_strict: bool
    classes: list[tuple]  # (class, monomial, MomentPair), in enumeration order

    @property
    def passed(self) -> bool:
        return self.ci_class_hits == 1 and self.first_moment_minimal and self.second_moment_strict


def verify_ci_uniqueness(
    profile: ColumnProfile, max_classes: int = 2_000_000
) -> CIUniquenessReport:
    """Check, by enumerating every partition class of a normalized profile:

    (a) exactly one class produces the CI exponent vector;
    (b) the CI monomial has minimal first moment;
    (c) every non-canonical class has strictly larger second moment.

    Each class comes back with its monomial and moments, in enumeration order.
    """
    if not profile.is_normalized:
        raise ValueError("verify_ci_uniqueness requires a normalized profile")
    if profile.class_count() > max_classes:
        raise BudgetExceededError(
            f"{profile.class_count()} classes exceed the budget of {max_classes}"
        )
    ci_alpha = ci_monomial(profile)
    ci_m = monomial_moments(ci_alpha)
    canon = canonical_class(profile)
    hits = 0
    first_ok = True
    second_ok = True
    classes = []
    for cls in partition_classes(profile):
        alpha = monomial_of_class(profile, cls)
        m = monomial_moments(alpha)
        classes.append((cls, alpha, m))
        if alpha == ci_alpha:
            hits += 1
        if m.first < ci_m.first:
            first_ok = False
        if cls != canon and m.second <= ci_m.second:
            second_ok = False
    return CIUniquenessReport(profile, len(classes), hits, first_ok, second_ok, classes)


def enumerate_profiles(n: int) -> Iterator[ColumnProfile]:
    """All column profiles for dimension n (compositions of n into n parts)."""
    for dividers in itertools.combinations(range(2 * n - 1), n - 1):
        counts = []
        prev = -1
        for d in dividers:
            counts.append(d - prev - 1)
            prev = d
        counts.append(2 * n - 2 - prev)
        yield ColumnProfile(tuple(counts))


# ---------------------------------------------------------------------------
# the squared-exponent substitution polynomial
# ---------------------------------------------------------------------------


@dataclass
class QPolynomial:
    """Q(x): the symbolic determinant with z_n replaced by x^(n²), mod p."""

    coeffs: tuple[int, ...]  # ascending powers, reduced mod context.prime
    context: CyclotomicContext
    n: int

    @property
    def degree(self) -> int:
        nz = [e for e, c in enumerate(self.coeffs) if c]
        return max(nz) if nz else -1

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(e for e, c in enumerate(self.coeffs) if c)

    def __bool__(self) -> bool:
        return any(self.coeffs)


@functools.lru_cache
def _interpolation_matrix(k: int, p: int) -> np.ndarray:
    """The inverse Vandermonde matrix at t = 0..k-1 mod p (k < p), read-only: entry (m, i) is the
    coefficient of x^m in the Lagrange basis polynomial L_i, the master polynomial ∏(x - j)
    divided synthetically by (x - i), for all i at once, over i!·(k-1-i)!·(-1)^(k-1-i)."""
    dtype = residue_dtype(p)
    master = np.array([1] + [0] * k, dtype=dtype)  # ascending coefficients
    for j in range(k):
        master[1:], master[0] = (master[:-1] - j * master[1:]) % p, -j * master[0] % p
    # row m of quot holds the x^m coefficients of every quotient; row k stays 0
    quot, roots = np.zeros((k + 1, k), dtype=dtype), np.arange(k).astype(dtype)
    for m in range(k, 0, -1):
        quot[m - 1] = (master[m] + roots * quot[m]) % p
    fact = list(itertools.accumulate(range(1, k), lambda f, j: f * j % p, initial=1))
    scale = [pow(fact[i] * fact[k - 1 - i] * (-1) ** (k - 1 - i), p - 2, p) for i in range(k)]
    out = quot[:-1] * np.array(scale, dtype=dtype) % p
    out.setflags(write=False)
    return out


def _interpolate_mod(ys, p: int) -> list[int]:
    """Ascending coefficients mod p of the polynomial through (t, ys[t]), t = 0..k-1: one product
    with the cached `_interpolation_matrix`, its terms reduced where row sums could overflow."""
    m = _interpolation_matrix(len(ys), p)
    prod = m * np.asarray(ys, dtype=m.dtype)
    if len(ys) * (p - 1) ** 2 >= 1 << 63:
        prod = reduce_mod(prod, p)
    return reduce_mod(prod.sum(axis=1), p).tolist()


@functools.lru_cache
def _point_powers(n: int, p: int, count: int) -> np.ndarray:
    """t^(j²) mod p at row t, column j, read-only (at t = 0, z_0 = 0**0 = 1)."""
    out = np.array([[pow(t, j * j, p) for j in range(n)] for t in range(count)], dtype=np.int64)
    out.setflags(write=False)
    return out


def _q_eval_points(support, n: int, ctx: CyclotomicContext, count: int) -> np.ndarray:
    """The symbolic determinant of a support of reduced cells, in any order
    (they are sorted here), at windows z_j = t^(j²), t = 0..count-1, by one
    batched determinant of the stacked Gabor matrices, whose entries index
    the cached table `_point_powers` with each column's time shift."""
    backend = ResidueBackend(ctx)
    shift, phase = gabor_indices(sorted(support), n)
    mats = backend.mul(_point_powers(n, ctx.prime, count)[:, shift], backend.omega_table(n)[phase])
    return det_batch_mod(mats, ctx.prime)


def _q_contexts(n: int, min_bits: int):
    """The `DEFAULT_NUM_PRIMES` embedding primes for Q, found only as they are needed."""
    yield from embedding_primes(n, 1, min_bits)
    yield from embedding_primes(n, DEFAULT_NUM_PRIMES, min_bits)[1:]


def q_polynomial(support, n: int, min_bits: int = DEFAULT_MIN_BITS) -> QPolynomial:
    """Coefficients of Q(x), by exact evaluation/interpolation mod p.

    The determinant with z_j = t^(j²) is evaluated at the k = N(N-1)² + 5
    points t = 0..k-1 by one `det_batch_mod` call per prime, and interpolated
    by one product with the inverse Vandermonde matrix, which (like the table
    of the t^(j²)) the first call per (k, p) builds and caches.  The 4 slack
    coefficients beyond the degree bound N(N-1)² are checked to vanish.  Q is
    a nonzero polynomial for every support; if all coefficients vanish mod the
    first prime (which a spurious-zero cascade could in principle cause), the
    computation is retried under further primes before failing.  A support
    that is not N distinct cells mod N is refused with ValueError.
    """
    support = support_cells(support, n, n)
    degree_bound = n * (n - 1) ** 2
    count = degree_bound + 5
    for ctx in _q_contexts(n, min_bits):
        if ctx.prime <= count:
            raise ValueError("prime too small for the interpolation point count")
        coeffs = _interpolate_mod(_q_eval_points(support, n, ctx, count), ctx.prime)
        if any(coeffs[degree_bound + 1 :]):
            raise AssertionError("interpolated Q exceeds its degree bound — bug")
        q = QPolynomial(tuple(coeffs[: degree_bound + 1]), ctx, n)
        if q:
            return q
    raise AssertionError("Q interpolated to zero under all escalation primes — bug")


def monomial_str(alpha: Monomial) -> str:
    """Render an exponent vector as e.g. "z0*z1^2"."""
    parts = []
    for i, a in enumerate(alpha):
        if a == 1:
            parts.append(f"z{i}")
        elif a > 1:
            parts.append(f"z{i}^{a}")
    return "*".join(parts) if parts else "1"
