"""Scalar oracles: one support, or one operator, at a time from the definitions.

The package answers "is this support independent?" only through the batched
scan of `verify_glp`; the tests compare that scan, and the operator
identification of `codec`, against these references.  Float determinants
come from `det_float_right_looking`, an elimination independent of the
package's left-looking `pivot_step_float`, and are compared by `same_bits`.
"""

from __future__ import annotations

import numpy as np

from gaborglp.backends import DEFAULT_NUM_PRIMES, det_mod
from gaborglp.codec import OperatorCoefficients
from gaborglp.operators import Window, gabor_matrix, support_cells, tf_shift
from gaborglp.verify import _exact_windows


def det_float_right_looking(mats: np.ndarray) -> np.ndarray:
    """Determinants of a stack of complex matrices by right-looking partially pivoted
    elimination in the input dtype: at step k, pivot on the largest modulus of column k from
    row k down, then update every later column of the rows below at once."""
    m = np.array(mats, copy=True)
    B, n, n2 = m.shape
    if n != n2:
        raise ValueError("matrices must be square")
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
        # not in place: numpy runs an in-place product of length one as a reduction,
        # which rounds complex128 unlike the vector loop of a longer stack
        det = det * a
        if k + 1 < n:
            safe = np.where(a == 0, m.dtype.type(1), a)
            f = (m[:, k + 1 :, k] / safe[:, None])[:, :, None]
            m[:, k + 1 :, k:] -= f * m[:, k : k + 1, k:]
    return det


def same_bits(a, b) -> bool:
    """Equal float or complex values, arrays elementwise, with equal signs of zero in every
    component.  `tobytes` cannot stand in: a long-double component carries padding bytes
    that hold no value."""
    a, b = np.asarray(a), np.asarray(b)
    pairs = ((a.real, b.real), (a.imag, b.imag))
    return a.shape == b.shape and all(
        (x == y).all() and (np.signbit(x) == np.signbit(y)).all() for x, y in pairs
    )


def check_support(
    window: Window, support, num_primes: int = DEFAULT_NUM_PRIMES
) -> tuple[bool, dict]:
    """(independent, entry) for one support, in any order of its cells; the
    entry is the one `verify_glp` lists in `dependent_supports` when the
    support is dependent.

    Exact: `det_mod` of the Gabor matrix under each escalation prime of
    `_exact_windows`, stopping at the first nonzero residue.  Float:
    `det_float_right_looking` and `FloatBackend.is_zero`, with the least right singular
    vector as the witness of a zero minor.
    """
    support = tuple(sorted(support_cells(support, window.n, window.n)))
    entry: dict = {"support": [list(idx) for idx in support]}
    if window.backend.kind == "exact":
        entry["residues"] = {}
        for w in _exact_windows(window, num_primes):
            residue = det_mod(gabor_matrix(w, support).tolist(), w.backend.prime)
            entry["residues"][str(w.backend.prime)] = residue
            if residue:
                return True, entry
        return False, entry
    mat = gabor_matrix(window, support)
    det = det_float_right_looking(mat[None])[0]
    entry["det_modulus"] = float(abs(complex(det)))
    if window.backend.is_zero(det, np.abs(mat).max()):
        witness = np.conj(np.linalg.svd(mat.astype(np.complex128))[2][-1])
        entry["witness"] = [[float(z.real), float(z.imag)] for z in witness]
        return False, entry
    return True, entry


def apply_operator(coeffs: OperatorCoefficients, x: np.ndarray, window: Window) -> np.ndarray:
    """Forward map Σ c_{κλ} π(κ,λ)·x, the oracle for identification tests."""
    out = np.zeros(window.n, dtype=window.backend.dtype)
    for idx, c in zip(coeffs.support, coeffs.coefficients):
        out = out + c * tf_shift(np.asarray(x, dtype=window.backend.dtype), idx, window.backend)
    return out
