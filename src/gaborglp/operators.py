"""Time-frequency shift operators and Gabor systems on C^N.

The two generators are the cyclic shift T (translate) and the modulation M;
they satisfy MT = ω TM with ω the primitive N-th root of unity, and the
shifts π(κ,λ) = M^λ T^κ for (κ,λ) in (Z/NZ)² enumerate the Weyl-Heisenberg
group modulo phases.  A window φ plus a support Λ ⊆ (Z/NZ)² yields the
N × |Λ| system matrix whose columns are π(κ,λ)φ.

Vectors are numpy arrays: int64 residues under the exact backend,
(extended-precision) complex under the float backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .backends import (
    CyclotomicContext,
    FloatBackend,
    ResidueBackend,
    embed_rational_complex,
)

# A time-frequency index is a plain (kappa, lambda) pair of residues mod N.
TimeFreqIndex = tuple[int, int]


@dataclass
class Window:
    """A nonzero length-N vector generating a Gabor system.

    `kind` records provenance: "constructed" | "random" | "user".
    Exact windows additionally carry a re-embedding recipe so zero verdicts
    can be escalated across independent primes: either `exponents` (entries
    are u**exponents in the context) or `rational_entries` (Gaussian
    rationals embedded into the field).
    """

    entries: np.ndarray
    backend: ResidueBackend | FloatBackend
    kind: str = "user"
    seed: int | None = None
    exponents: np.ndarray | None = None
    rational_entries: tuple[tuple[Fraction, Fraction], ...] | None = None

    def __post_init__(self) -> None:
        if self.backend.kind == "exact":
            self.entries = np.asarray(self.entries, dtype=np.int64) % self.backend.prime
        else:
            self.entries = np.asarray(self.entries, dtype=self.backend.dtype)
        if self.entries.ndim != 1 or len(self.entries) == 0:
            raise ValueError("window must be a nonempty vector")
        if not np.any(self.entries):
            raise ValueError("window must not be the zero vector")

    @classmethod
    def from_exponents(cls, ctx: CyclotomicContext, exponents, kind: str, seed) -> "Window":
        """The exact window with entries u**exponents, u the root of `ctx`."""
        exponents = np.asarray(exponents, dtype=np.int64)
        entries = [pow(ctx.root, int(e), ctx.prime) for e in exponents]
        return cls(entries, ResidueBackend(ctx), kind, seed, exponents)

    @property
    def n(self) -> int:
        return len(self.entries)

    def reembed(self, ctx: CyclotomicContext) -> "Window":
        """Realize the same window in another context (for prime escalation).
        Raises ArithmeticError when the window has no nonzero image there."""
        if self.backend.kind != "exact":
            raise ValueError("only exact windows can be re-embedded")
        if self.exponents is not None:
            if ctx.order != self.backend.context.order:
                raise ValueError("re-embedding requires a context of the same order")
            return Window.from_exponents(ctx, self.exponents, self.kind, self.seed)
        if self.rational_entries is not None:
            entries = [embed_rational_complex(ctx, re, im) for re, im in self.rational_entries]
            if not any(entries):
                raise ArithmeticError(f"the window vanishes mod {ctx.prime}")
            return Window(
                entries, ResidueBackend(ctx), self.kind, self.seed, None, self.rational_entries
            )
        raise ValueError(
            "window carries no re-embedding recipe, so zero verdicts cannot be escalated; "
            "use --primes 1"
        )


def translate(x: np.ndarray, kappa: int) -> np.ndarray:
    """Cyclic shift: output_j = x_{(j-kappa) mod N}."""
    return np.roll(np.asarray(x), kappa)


def modulate(x: np.ndarray, lam: int, backend) -> np.ndarray:
    """Modulation: output_j = ω^(jλ) x_j."""
    x = np.asarray(x)
    n = len(x)
    phases = backend.omega_table(n)[np.arange(n) * (lam % n) % n]
    return backend.mul(x, phases)


def tf_shift(x: np.ndarray, idx: TimeFreqIndex, backend) -> np.ndarray:
    """π(κ,λ) = M^λ T^κ applied to x."""
    kappa, lam = idx
    return modulate(translate(x, kappa), lam, backend)


def full_support(n: int) -> list[TimeFreqIndex]:
    """All of (Z/NZ)² in lexicographic (κ,λ) order — the canonical column order."""
    return [(k, l) for k in range(n) for l in range(n)]


def support_cells(support, n: int, size: int | None) -> tuple[TimeFreqIndex, ...]:
    """The cells of a support reduced mod n, in the order given.  The one rule
    for a valid support: ValueError unless the cells are non-empty, distinct
    after reduction and, where `size` is not None, `size` in number."""
    cells = tuple((int(k) % n, int(l) % n) for k, l in support)
    if not cells or len(set(cells)) != len(cells) or size not in (None, len(cells)):
        count = "one or more" if size is None else size
        raise ValueError(f"support must consist of {count} distinct indices mod {n}: {list(cells)}")
    return cells


def gabor_indices(support, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index arrays of the Gabor matrix of a support (see `support_cells`):
    G[j, c] = ω^phase[j, c] · window[shift[j, c]], where shift = (j - κ_c) mod n
    and phase = (j·λ_c) mod n."""
    kappa, lam = np.array(support_cells(support, n, None)).T
    j = np.arange(n)[:, None]
    return (j - kappa) % n, j * lam % n


def gabor_matrix(window: Window, support) -> np.ndarray:
    """System matrix with column i = π(support_i)·window, order preserved."""
    shift, phase = gabor_indices(support, window.n)
    backend = window.backend
    return backend.mul(window.entries[shift], backend.omega_table(window.n)[phase])


def system_matrix(window: Window) -> np.ndarray:
    """N × N² matrix of all shifts, columns in lexicographic (κ,λ) order."""
    return gabor_matrix(window, full_support(window.n))


def stft(f: np.ndarray, window: Window) -> np.ndarray:
    """Short-time Fourier transform: V[κ,λ] = ⟨f, π(κ,λ)·window⟩.

    Under the exact backend the Hermitian conjugation of a unimodular residue
    is inversion mod p, so the window must be unimodular (carry exponents);
    general exact windows must use the float backend instead.
    """
    n = window.n
    f = np.asarray(f)
    if len(f) != n:
        raise ValueError("dimension mismatch between f and window")
    G = system_matrix(window)
    if window.backend.kind == "exact":
        if window.exponents is None:
            raise ValueError("exact stft requires a unimodular (root-of-unity) window")
        p = window.backend.prime
        Gc = np.array([pow(int(v), p - 2, p) for v in G.ravel()], dtype=object).reshape(G.shape)
        vals = (np.asarray(f, dtype=np.int64) % p).astype(object) @ Gc % p
        return vals.astype(np.int64).reshape(n, n)
    fb = f.astype(window.backend.dtype)
    return (G.conj().T @ fb).reshape(n, n)


def frame_operator_defect(window: Window) -> float:
    """Max-norm of S - N·‖w‖²·I, where S is the frame operator of the full system.

    Zero (up to roundoff) for every window: the full Gabor system is an equal
    norm tight frame.
    """
    if window.backend.kind != "float":
        raise ValueError("frame_operator_defect requires the float backend")
    G = system_matrix(window)
    S = G @ G.conj().T
    target = window.n * (np.abs(window.entries) ** 2).sum()
    defect = np.abs(S - target * np.eye(window.n, dtype=G.dtype)).max()
    return float(defect)
