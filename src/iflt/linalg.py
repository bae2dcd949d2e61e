"""Dense numerical kernels: pseudo-inverse, symmetric PSD square root, norms.

All kernels are pure functions on finite float matrices and are deterministic;
rank decisions use a relative singular-value cutoff so that rank-deficient
input never raises.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidInput, NotPSD

DEFAULT_RELATIVE_CUTOFF = 1e-12
SYMMETRY_RTOL = 1e-10
NEGATIVE_EIG_RTOL = 1e-8
SMALLEST_NORMAL = np.finfo(float).tiny


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D float array or raise InvalidInput."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise InvalidInput(f"matrix must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("matrix contains non-finite entries")
    return arr


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse computed by SVD.

    Singular values at or below ``1e-12 * max(r, c) * sigma_max`` for an
    r x c matrix are treated as exactly zero, so the inverse of a
    rank-deficient (or zero) matrix is well defined and never raises.
    Singular values at or below the smallest normal float are treated as zero
    too: the reciprocal of a subnormal one overflows or nearly so, and it
    carries few significant digits. This cutoff is the package's one rank rule.

    The rule still defines D^+ where ``ortho.cascade_map`` takes a stage's
    covariance D through its Cholesky factor instead: it does so only when the
    trace of D^-1 certifies every eigenvalue above ``GRAM_RECHECK_RTOL`` times
    the largest input energy, which bounds the condition number of D by 1e5.
    This cutoff then keeps every direction, so D^-1 is D^+ up to rounding.
    """
    arr = as_matrix(a)
    if arr.size == 0:
        return np.zeros((arr.shape[1], arr.shape[0]))
    u, sv, vt = np.linalg.svd(arr, full_matrices=False)
    if sv[0] <= SMALLEST_NORMAL:
        return np.zeros((arr.shape[1], arr.shape[0]))
    keep = sv > max(DEFAULT_RELATIVE_CUTOFF * max(arr.shape) * sv[0], SMALLEST_NORMAL)
    inv = np.zeros_like(sv)
    inv[keep] = 1.0 / sv[keep]
    return (vt.T * inv) @ u.T


def sym_sqrt(e) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Requires a square matrix symmetric within ``1e-10 * ||E||_F``. Eigenvalues
    in ``[-1e-8 * ||E||_F, 0)`` are clipped to zero (empirical covariances are
    PSD only up to rounding); anything more negative raises NotPSD. The result
    S is symmetric PSD with ``S @ S`` reproducing the clipped input.
    """
    arr = as_matrix(e)
    if arr.shape[0] != arr.shape[1]:
        raise InvalidInput(f"square matrix required, got shape {arr.shape}")
    scale = float(np.linalg.norm(arr))
    if float(np.linalg.norm(arr - arr.T)) > SYMMETRY_RTOL * scale:
        raise InvalidInput("matrix is not symmetric within tolerance")
    sym = 0.5 * (arr + arr.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    if scale > 0.0 and eigvals.min() < -NEGATIVE_EIG_RTOL * scale:
        raise NotPSD(
            f"eigenvalue {eigvals.min():.3e} below -{NEGATIVE_EIG_RTOL:.0e} * ||E||_F"
        )
    eigvals = np.clip(eigvals, 0.0, None)
    # zero rounding-level eigenvalues with the pseudo-inverse's rank rule, so
    # that the root's pseudo-inverse keeps exactly the directions E^+ keeps
    if eigvals.size:
        cutoff = DEFAULT_RELATIVE_CUTOFF * arr.shape[0] * eigvals.max()
        eigvals[eigvals <= cutoff] = 0.0
    root = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    return 0.5 * (root + root.T)


def frob_norm_sq(a) -> float:
    """Squared Frobenius norm, the sum of squared entries."""
    arr = as_matrix(a)
    return float(np.sum(arr * arr))


def frob_norm(a) -> float:
    """Frobenius norm that does not overflow where the squares would: a matrix
    with an entry of 1 or more is divided by the power of two above its largest
    entry first and the norm multiplied back (exact). Nothing is scaled up."""
    arr = np.asarray(a, dtype=float)
    shift = max(0, int(np.frexp(np.abs(arr).max(initial=0.0))[1]))
    return float(np.ldexp(np.linalg.norm(np.ldexp(arr, -shift)), shift))


def root_pinv_norm_sq(a: np.ndarray, d_pinv: np.ndarray) -> float:
    """``||A (D^{1/2})^+||_F^2`` for a symmetric PSD D, read as tr(A D^+ A^T).

    ``d_pinv`` is ``pseudo_inverse(D)``; no root is formed, so the directions
    counted are the ones the pseudo-inverse's cutoff keeps.
    """
    return float(np.sum((a @ d_pinv) * a))

