"""Covariance deflation cascade producing mutually orthogonal ensembles.

Two ensembles are (empirically) orthogonal when their cross-covariance is the
zero matrix. The cascade keeps the first input unchanged and deflates every
later input against the already-produced outputs:

    w_1 = v_1
    w_i = v_i - sum_{l < i} K_il w_l,
    K_il = C(v_i, w_l) C(w_l, w_l)^+ + M_il (I - C(w_l, w_l) C(w_l, w_l)^+)

with C the empirical covariance and M_il free matrices (zero by default; any
choice preserves orthogonality since the second factor annihilates the
deflated covariance). With the 1/s sample convention the resulting
cross-covariances vanish to machine precision by construction.

If an input is an exact linear image of earlier outputs its residual is the
zero ensemble; residual norms at or below ``1e-12`` times the input scale are
snapped to exact zeros so that downstream pseudo-inverses of their covariance
are zero matrices rather than noise amplifiers.

``orthogonalize`` runs the cascade in data space and is the reference.
``cascade_map`` computes the same outputs as one block-lower-triangular map of
the stacked inputs, from their Gram matrix alone; applying a filter needs only
that map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput
from .linalg import pseudo_inverse
from .signals import Ensemble, cov

ZERO_W_RTOL = 1e-12
# Stage energies read from the Gram matrix carry rounding of about eps times
# the input energy, far above the ZERO_W_RTOL snap level; stages below this
# share of the largest input energy are re-checked in data space.
GRAM_RECHECK_RTOL = 1e-8


@dataclass(frozen=True)
class OrthoResult:
    """Cascade output: orthogonal ensembles plus the deflation matrices.

    ``k_mats[i]`` holds the matrices used to deflate input ``i`` against
    outputs ``0..i-1`` (row 0 is empty). ``zero_indices`` flags outputs that
    collapsed to the zero ensemble.
    """

    ws: tuple[Ensemble, ...]
    k_mats: tuple[tuple[np.ndarray, ...], ...]
    max_cross_residual: float
    zero_indices: tuple[int, ...]


@dataclass(frozen=True)
class CascadeMap:
    """Cascade outputs as one linear map of the stacked inputs.

    ``v`` stacks the p inputs (pn x s). Block row k of ``b`` (pn x pn, block
    lower triangular) maps ``v`` to output k: ``w_k = b[k*n:(k+1)*n] @ v``.
    ``zero_indices`` flags outputs that collapsed to the zero ensemble; their
    block rows are zero.
    """

    b: np.ndarray
    v: np.ndarray
    zero_indices: tuple[int, ...]


def _check_aligned(vs) -> None:
    if not vs:
        raise InvalidInput("need at least one ensemble")
    m, s = vs[0].m, vs[0].s
    for pos, v in enumerate(vs):
        if (v.m, v.s) != (m, s):
            raise InvalidInput(
                f"ensemble {pos} has shape {(v.m, v.s)}, expected {(m, s)}"
            )
        if not v.centered:
            raise InvalidInput(f"ensemble {pos} is not centered")


def orthogonalize(vs, m_free: dict[tuple[int, int], np.ndarray] | None = None) -> OrthoResult:
    """Run the deflation cascade over realization-aligned centered ensembles.

    Parameters
    ----------
    vs : sequence of Ensemble
    m_free : dict, optional
        Free deflation matrices keyed by (input index, output index); missing
        entries default to zero.
    """
    vs = tuple(vs)
    _check_aligned(vs)
    m_free = m_free or {}
    scale = max(float(np.linalg.norm(v.data)) for v in vs)
    ws: list[Ensemble] = []
    k_rows: list[tuple[np.ndarray, ...]] = []
    zero_indices: list[int] = []
    eye = np.eye(vs[0].m)
    for i, v in enumerate(vs):
        data = v.data.copy()
        row: list[np.ndarray] = []
        for l in range(i):
            wl = ws[l]
            eww = cov(wl, wl)
            eww_pinv = pseudo_inverse(eww)
            k = cov(v, wl) @ eww_pinv
            m_il = m_free.get((i, l))
            if m_il is not None:
                k = k + np.asarray(m_il, dtype=float) @ (eye - eww @ eww_pinv)
            row.append(k)
            data -= k @ wl.data
        if float(np.linalg.norm(data)) <= ZERO_W_RTOL * scale:
            data = np.zeros_like(data)
            zero_indices.append(i)
        elif i > 0:
            # deflation of centered data is centered in exact arithmetic;
            # restore it so tiny residuals do not fail the centered claim
            data -= data.mean(axis=1, keepdims=True)
        ws.append(Ensemble(data, centered=True))
        k_rows.append(tuple(row))
    return OrthoResult(
        ws=tuple(ws),
        k_mats=tuple(k_rows),
        max_cross_residual=cross_cov_residual(ws),
        zero_indices=tuple(zero_indices),
    )


def cascade_map(vs) -> CascadeMap:
    """The cascade of ``orthogonalize`` (free matrices zero) as a map of the inputs.

    With V the stacked inputs, E_k the selector of input k and
    G = V V^T / s their Gram matrix, output k is w_k = B_k V with

        B_k = E_k - sum_{l < k} C(v_k, w_l) C(w_l, w_l)^+ B_l,
        C(v_i, w_l) = G_i B_l^T,   C(w_k, w_k) = C(v_k, w_k),

    the last because w_k is orthogonal to the earlier outputs. This is block
    Gram-Schmidt (Golub & Van Loan, Matrix Computations, 5.2): one GEMM for G
    and one pseudo-inverse per stage instead of one per stage pair, and no
    pass over the data after G.

    A stage whose energy tr C(w_k, w_k) read from G is at most
    ``GRAM_RECHECK_RTOL`` times the largest input energy is formed in data
    space instead. It is snapped to zero by the ``ZERO_W_RTOL`` rule of
    ``orthogonalize``; if it survives, its covariances are taken from the data.
    """
    vs = tuple(vs)
    _check_aligned(vs)
    p, n, s = len(vs), vs[0].m, vs[0].s
    v = np.vstack([x.data for x in vs])
    g = (v @ v.T) / s
    max_energy = float(np.diag(g).reshape(p, n).sum(axis=1).max())
    scale = float(np.sqrt(s * max_energy))  # largest input norm, as in orthogonalize
    b = np.zeros((p * n, p * n))
    # block row l holds C(w_l, w_l)^+ B_l; block column l of h holds C(v_i, w_l)
    pinv_b = np.zeros_like(b)
    h = np.zeros_like(b)
    zero_indices: list[int] = []
    for k in range(p):
        rows = slice(k * n, (k + 1) * n)
        done = k * n  # columns of the earlier inputs
        b_k = b[rows, : done + n]
        b_k[:, done:] = np.eye(n)
        b_k[:, :done] = -h[rows, :done] @ pinv_b[:done, :done]
        cross = g[k * n :, : done + n] @ b_k.T
        d = 0.5 * (cross[:n] + cross[:n].T)
        if np.trace(d) <= GRAM_RECHECK_RTOL * max_energy:
            w = b_k @ v[: done + n]
            if float(np.linalg.norm(w)) <= ZERO_W_RTOL * scale:
                b_k[:] = 0.0
                zero_indices.append(k)
                continue
            cross = (v[k * n :] @ w.T) / s
            d = (w @ w.T) / s
        h[k * n :, rows] = cross
        pinv_b[rows, : done + n] = pseudo_inverse(d) @ b_k
    return CascadeMap(b=b, v=v, zero_indices=tuple(zero_indices))


def cross_cov_residual(ws) -> float:
    """Largest cross-covariance Frobenius norm over distinct pairs."""
    ws = tuple(ws)
    worst = 0.0
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            worst = max(worst, float(np.linalg.norm(cov(ws[i], ws[j]))))
    return worst
