"""Erasure-robust encoding and operator identification.

A signal f is encoded as its N² inner products against the time-frequency
shifts of a window.  When the window is in general linear position, any N
surviving coefficients determine f: the surviving rows of the analysis map
always have full rank N, so the (noiseless) system is solved exactly.  The
same rank fact makes the span of the shifts over a support Λ identifiable
from its action on the window precisely while |Λ| ≤ N.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .operators import TimeFreqIndex, Window, full_support, gabor_matrix, stft, support_cells


class InsufficientPacketsError(ValueError):
    """Fewer than N coefficients survive; the system is underdetermined."""


class RankDeficientError(ValueError):
    """The surviving analysis rows are singular (window is not GLP)."""


class AmbiguousOperatorError(ValueError):
    """|Λ| > N: the map H -> H·window cannot be injective."""


@dataclass(frozen=True)
class CoefficientPacket:
    kappa: int
    lam: int
    value: complex


@dataclass(frozen=True)
class ErasurePattern:
    """The decoder knows which indices survive."""

    surviving: tuple[TimeFreqIndex, ...]
    seed: int | None = None


@dataclass
class OperatorCoefficients:
    support: tuple[TimeFreqIndex, ...]
    coefficients: np.ndarray


def encode(f: np.ndarray, window: Window) -> list[CoefficientPacket]:
    """All N² packets ⟨f, π(κ,λ)·window⟩ in lexicographic order."""
    values = stft(f, window)
    return [
        CoefficientPacket(k, l, values[k, l]) for k, l in full_support(window.n)
    ]


def random_erasure(n: int, erasures: int, seed: int) -> ErasurePattern:
    """Seeded pattern keeping n² - erasures coefficients."""
    if not 0 <= erasures <= n * n:
        raise ValueError("erasure count out of range")
    rng = random.Random(seed)
    keep = rng.sample(full_support(n), n * n - erasures)
    return ErasurePattern(tuple(sorted(keep)), seed)


def erase(packets, pattern: ErasurePattern) -> list[CoefficientPacket]:
    keep = set(pattern.surviving)
    return [pkt for pkt in packets if (pkt.kappa, pkt.lam) in keep]


def _solve_consistent(A: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """Solve the consistent overdetermined system A x = b (m ≥ k).

    Row-pivoted elimination in the input dtype; for noiseless data this
    coincides with the least-squares solution.  Raises RankDeficientError
    when no usable pivot remains or the solution fails to satisfy all rows.
    """
    A = np.array(A, copy=True)
    b = np.array(b, copy=True)
    m, k = A.shape
    scale = float(np.abs(A).max()) or 1.0
    bnorm = float(np.sqrt((np.abs(b) ** 2).sum()))
    aug = np.concatenate([A, b[:, None]], axis=1)
    perm = list(range(m))
    for col in range(k):
        piv = int(np.abs(aug[col:, col]).argmax()) + col
        if abs(complex(aug[piv, col])) <= eps * scale:
            raise RankDeficientError(f"rank deficiency at column {col}")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
            perm[col], perm[piv] = perm[piv], perm[col]
        factors = aug[col + 1 :, col] / aug[col, col]
        aug[col + 1 :, col:] -= factors[:, None] * aug[col, col:]
    x = np.zeros(k, dtype=A.dtype)
    for col in range(k - 1, -1, -1):
        x[col] = (aug[col, k] - aug[col, col + 1 : k] @ x[col + 1 :]) / aug[col, col]
    residual = float(np.sqrt((np.abs(A @ x - b) ** 2).sum()))
    xnorm = float(np.sqrt((np.abs(x) ** 2).sum()))
    if residual > eps * (scale * k * xnorm + bnorm + 1.0):
        raise RankDeficientError("surviving equations are inconsistent")
    return x


def decode(packets, window: Window) -> np.ndarray:
    """Reconstruct f from surviving packets; requires at least N of them.

    Solves the surviving analysis system (rows conj(π(κ,λ)w)); for a GLP
    window any N rows have full rank, so the reconstruction is exact up to
    roundoff.
    """
    if window.backend.kind != "float":
        raise ValueError("decode requires the float backend")
    packets = list(packets)
    n = window.n
    if len(packets) < n:
        raise InsufficientPacketsError(f"need at least {n} packets, got {len(packets)}")
    dtype = window.backend.dtype
    # gabor_matrix refuses packets whose indices repeat mod N
    A = np.conj(gabor_matrix(window, [(p.kappa, p.lam) for p in packets]).T)
    b = np.array([p.value for p in packets], dtype=dtype)
    return _solve_consistent(A, b, window.backend.eps)


def identify_operator(observed: np.ndarray, support, window: Window) -> OperatorCoefficients:
    """Coefficients c with Σ c_{κλ} π(κ,λ)·window = observed, for |Λ| ≤ N.

    For |Λ| > N the shifts of the window are necessarily dependent and the
    coefficients are not determined: AmbiguousOperatorError.
    """
    if window.backend.kind != "float":
        raise ValueError("identify_operator requires the float backend")
    n = window.n
    support = support_cells(support, n, None)
    if len(support) > n:
        raise AmbiguousOperatorError(
            f"|support| = {len(support)} > {n}: identification cannot be injective"
        )
    observed = np.asarray(observed, dtype=window.backend.dtype)
    B = gabor_matrix(window, support)
    c = _solve_consistent(B, observed, window.backend.eps)
    return OperatorCoefficients(support, c)


@dataclass
class SupportBoundCheck:
    nonzero_count: int
    bound: int

    @property
    def passed(self) -> bool:
        return self.nonzero_count >= self.bound


def support_bound_check(f: np.ndarray, window: Window) -> SupportBoundCheck:
    """Count nonzero STFT coefficients and compare against N² - N + 1.

    A GLP window leaves at most N-1 zeros in the transform of any nonzero
    signal.  Float entries count as nonzero above eps·‖f‖·‖w‖ (the
    Cauchy-Schwarz scale); exact entries count as nonzero residues.
    """
    n = window.n
    values = stft(f, window)
    if window.backend.kind == "exact":
        count = int(np.count_nonzero(values))
    else:
        f = np.asarray(f)
        if not np.any(np.abs(f) > 0):
            raise ValueError("f must be nonzero")
        scale = float(
            np.sqrt((np.abs(f) ** 2).sum()) * np.sqrt((np.abs(window.entries) ** 2).sum())
        )
        count = int((np.abs(values) > window.backend.eps * scale).sum())
    return SupportBoundCheck(count, n * n - n + 1)
