"""Scalar oracles: one support, or one operator, at a time from the definitions.

The package answers "is this support independent?" only through the batched
scan of `verify_glp`; the tests compare that scan, and the operator
identification of `codec`, against these references.
"""

from __future__ import annotations

import numpy as np

from gaborglp.backends import DEFAULT_NUM_PRIMES, det_float, det_mod
from gaborglp.codec import OperatorCoefficients
from gaborglp.operators import Window, gabor_matrix, support_cells, tf_shift
from gaborglp.verify import _exact_windows


def check_support(
    window: Window, support, num_primes: int = DEFAULT_NUM_PRIMES
) -> tuple[bool, dict]:
    """(independent, entry) for one support, in any order of its cells; the
    entry is the one `verify_glp` lists in `dependent_supports` when the
    support is dependent.

    Exact: `det_mod` of the Gabor matrix under each escalation prime of
    `_exact_windows`, stopping at the first nonzero residue.  Float:
    `det_float` and `FloatBackend.is_zero`, with the least right singular
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
    det = det_float(mat)
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
