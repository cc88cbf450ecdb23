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
from gaborglp.verify import SupportVerdict, _exact_windows


def check_support(
    window: Window, support, num_primes: int = DEFAULT_NUM_PRIMES
) -> tuple[bool, SupportVerdict]:
    """(independent, record) for one support, in any order of its cells; the
    record is the one `verify_glp` lists when the support is dependent.

    Exact: `det_mod` of the Gabor matrix under each escalation prime of
    `_exact_windows`, stopping at the first nonzero residue.  Float:
    `det_float` and `FloatBackend.is_zero`, with the least right singular
    vector as the witness of a zero minor.
    """
    support = tuple(sorted(support_cells(support, window.n, window.n)))
    if window.backend.kind == "exact":
        residues: dict[int, int] = {}
        for w in _exact_windows(window, num_primes):
            residues[w.backend.prime] = det_mod(gabor_matrix(w, support).tolist(), w.backend.prime)
            if residues[w.backend.prime]:
                return True, SupportVerdict(support, residues)
        return False, SupportVerdict(support, residues)
    mat = gabor_matrix(window, support)
    det = det_float(mat)
    modulus = float(abs(complex(det)))
    if window.backend.is_zero(det, np.abs(mat).max()):
        witness = np.conj(np.linalg.svd(mat.astype(np.complex128))[2][-1])
        return False, SupportVerdict(support, det_modulus=modulus, witness=witness)
    return True, SupportVerdict(support, det_modulus=modulus)


def apply_operator(coeffs: OperatorCoefficients, x: np.ndarray, window: Window) -> np.ndarray:
    """Forward map Σ c_{κλ} π(κ,λ)·x, the oracle for identification tests."""
    out = np.zeros(window.n, dtype=window.backend.dtype)
    for idx, c in zip(coeffs.support, coeffs.coefficients):
        out = out + c * tf_shift(np.asarray(x, dtype=window.backend.dtype), idx, window.backend)
    return out
