"""Window construction.

Three sources of windows:

* the explicit root-of-unity power window (1, ζ, ζ⁴, ζ⁹, …, ζ^((N-1)²)) with
  ζ of exact order (N-1)⁴, realized exactly in a cyclotomic context of order
  L = lcm(N, (N-1)⁴) so that ω and ζ coexist as powers of one residue root —
  certified to generate a system in general linear position for N ≥ 4;
* the generic power window ξ^(j²) for a numeric ξ (e.g. ξ = π), float only;
* seeded standard-complex-Gaussian random windows, float only.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .backends import (
    DEFAULT_MIN_BITS,
    REAL_DTYPE,
    CyclotomicContext,
    FloatBackend,
    ResidueBackend,
    embedding_primes,
    exact_integers,
    factorize,
)
from .operators import Window


class UnsupportedDimensionError(ValueError):
    """The root-of-unity construction needs N ≥ 4."""


def euler_phi(n: int) -> int:
    out = n
    for q in factorize(n):
        out = out // q * (q - 1)
    return out


def zeta_order(n: int) -> int:
    return (n - 1) ** 4


def power_window_root_of_unity(n: int, min_bits: int = DEFAULT_MIN_BITS) -> Window:
    """Exact window φ_j = ζ^(j²) with ζ of order (N-1)⁴, for N ≥ 4.

    For N ≤ 3 there is no such construction (the hypothesis N ≥ 4 fails);
    callers should fall back to random windows, which work for almost every
    choice since N = 2, 3 are prime.
    """
    if n < 4:
        raise UnsupportedDimensionError(
            f"root-of-unity window needs dimension ≥ 4, got {n}; use a random window"
        )
    order = zeta_order(n)
    assert math.gcd(n, order) == 1  # coprimality underpins the degree argument
    # ζ must have degree > N(N-1)² over the N-th cyclotomics for the
    # construction to certify; this holds for all N ≥ 4.
    assert euler_phi(order) > n * (n - 1) ** 2
    L = math.lcm(n, order)
    step = L // order  # ζ = u**step
    exps = [step * ((j * j) % order) % L for j in range(n)]
    return Window.from_exponents(embedding_primes(L, 1, min_bits)[0], exps, "constructed", None)


def power_window_root_of_unity_float(n: int, backend: FloatBackend | None = None) -> Window:
    """Float image of the root-of-unity window: φ_j = e^(2πi·j²/(N-1)⁴)."""
    if n < 4:
        raise UnsupportedDimensionError(f"root-of-unity window needs dimension ≥ 4, got {n}")
    backend = backend or FloatBackend()
    order = zeta_order(n)
    j = np.arange(n)
    ang = 2 * np.pi * ((j * j) % order).astype(REAL_DTYPE) / REAL_DTYPE(order)
    entries = (np.cos(ang) + 1j * np.sin(ang)).astype(backend.dtype)
    return Window(entries, backend, kind="constructed")


def power_window_generic(n: int, xi: complex, backend: FloatBackend | None = None) -> Window:
    """Float window φ_j = ξ^(j²) for a numeric ξ ≠ 0 (e.g. ξ = π)."""
    if xi == 0:
        raise ValueError("xi must be nonzero")
    backend = backend or FloatBackend()
    xi = backend.dtype.type(xi)
    entries = np.array([xi ** (j * j) for j in range(n)], dtype=backend.dtype)
    return Window(entries, backend, kind="constructed")


def random_window(n: int, seed: int, backend: FloatBackend | None = None) -> Window:
    """Seeded window with independent standard complex Gaussian coordinates."""
    backend = backend or FloatBackend()
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    return Window(z.astype(backend.dtype), backend, kind="random", seed=seed)


def ones_window(n: int, backend: FloatBackend | None = None) -> Window:
    """The all-ones window — a known non-GLP control for composite structure."""
    backend = backend or FloatBackend()
    return Window(np.ones(n, dtype=backend.dtype), backend, kind="user")


def ones_window_exact(n: int, min_bits: int = DEFAULT_MIN_BITS) -> Window:
    """Exact all-ones window (exponents all zero), for exercising escalation."""
    return Window.from_exponents(embedding_primes(n, 1, min_bits)[0], [0] * n, "user", None)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def window_to_dict(window: Window) -> dict:
    out: dict = {"n": window.n, "kind": window.kind, "backend": window.backend.kind}
    if window.seed is not None:
        out["seed"] = window.seed
    if window.backend.kind == "exact":
        ctx = window.backend.context
        out["context"] = {"order": ctx.order, "prime": ctx.prime, "root": ctx.root}
        if window.exponents is not None:
            out["exponents"] = [int(e) for e in window.exponents]
        else:
            out["entries"] = [int(e) for e in window.entries]
    else:
        out["entries"] = [[float(z.real), float(z.imag)] for z in window.entries]
    return out


def window_from_dict(data: dict) -> Window:
    kind, seed = data["kind"], data.get("seed")
    if seed is not None and type(seed) is not int:
        raise ValueError(f"the window field 'seed' must be an integer or null, got {seed!r}")
    if data["backend"] == "exact":
        fields = [data["context"][k] for k in ("order", "prime", "root")]  # TypeError if no dict
        ctx = CyclotomicContext(*exact_integers(fields, "context").tolist())
        if "exponents" in data:
            window = Window.from_exponents(ctx, data["exponents"], kind, seed)
        else:
            window = Window(data["entries"], ResidueBackend(ctx), kind, seed)
    else:
        entries = data["entries"]
        pairs = np.asarray(entries, dtype=object)  # [re, im]: a bool or a str is refused
        if pairs.shape[1:] != (2,) or any(type(v) not in (int, float) for v in pairs.flat):
            raise ValueError(f"the window field 'entries' must be [re, im] pairs, got {entries!r}")
        window = Window([complex(re, im) for re, im in pairs], FloatBackend(), kind, seed)
    if type(data["n"]) is not int or data["n"] != window.n:
        raise ValueError(f"the window field 'n' is {data['n']!r}, not its {window.n} entries")
    return window


def save_window(window: Window, path) -> None:
    with open(path, "w") as fh:
        json.dump(window_to_dict(window), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_window(path) -> Window:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return window_from_dict(data)
    except KeyError as exc:
        raise ValueError(f"window file {path} lacks the field {exc}") from exc
    except (TypeError, OverflowError) as exc:  # OverflowError: a number out of range
        raise ValueError(f"window file {path} has a malformed field: {exc}") from exc
