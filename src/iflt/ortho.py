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
``cascade_map`` computes the same deflation matrices from the Gram matrix of
the inputs alone; applying a filter needs only those.
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
    """The cascade of ``orthogonalize`` as its deflation blocks.

    ``k_mats[k]`` holds K_k0 .. K_k,k-1 as ``OrthoResult.k_mats`` does: with L
    the unit block-lower matrix of these blocks and V the stacked inputs,
    V = L W, so the outputs are the forward substitution
    ``w_k = v_k - sum_l K_kl w_l``. ``zero_indices`` flags outputs that
    collapsed to the zero ensemble; their columns of K are zero.
    """

    k_mats: tuple[tuple[np.ndarray, ...], ...]
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


def cascade_map(vs, g: np.ndarray | None = None) -> CascadeMap:
    """The deflation blocks of ``orthogonalize`` (free matrices zero) from a Gram matrix.

    ``g`` is the Gram matrix G = V V^T / s of the stacked inputs, block G_ik =
    C(v_i, v_k); it is formed from ``vs`` when not given. With
    C(w_k, w_k) = C(v_k, w_k), as w_k is orthogonal to the earlier outputs,
    the blocks follow stage by stage from

        C(v_i, w_k) = G_ik - sum_{l < k} C(v_i, w_l) K_kl^T,   i >= k,
        K_ik = C(v_i, w_k) C(w_k, w_k)^+,                       i > k.

    This is block LDL^T of G, i.e. block Gram-Schmidt (Golub & Van Loan,
    Matrix Computations, 4.1 and 5.2): one GEMM and one pseudo-inverse per
    stage, and no pass over the data.

    A stage whose energy tr C(w_k, w_k) read from G is at most
    ``GRAM_RECHECK_RTOL`` times the largest input energy is formed in data
    space instead, by forward substitution. It is snapped to zero by the
    ``ZERO_W_RTOL`` rule of ``orthogonalize``; if it survives, its covariances
    are taken from the data.
    """
    vs = tuple(vs)
    _check_aligned(vs)
    p, n, s = len(vs), vs[0].m, vs[0].s
    if g is None:
        v = np.vstack([x.data for x in vs])
        g = (v @ v.T) / s
    max_energy = float(np.diag(g).reshape(p, n).sum(axis=1).max())
    scale = float(np.sqrt(s * max_energy))  # largest input norm, as in orthogonalize
    # block (i, l) of h holds C(v_i, w_l); k_full holds the blocks K_il
    h = np.zeros((p * n, p * n))
    k_full = np.zeros((p * n, p * n))
    ws: list[np.ndarray] = []  # data-space outputs, formed up to the last re-check
    zero_indices: list[int] = []
    for k in range(p):
        rows = slice(k * n, (k + 1) * n)
        done = k * n  # columns of the earlier outputs
        cross = g[done:, rows] - h[done:, :done] @ k_full[rows, :done].T
        d = 0.5 * (cross[:n] + cross[:n].T)
        if np.trace(d) <= GRAM_RECHECK_RTOL * max_energy:
            for j in range(len(ws), k + 1):  # forward substitution
                w = vs[j].data.copy()
                for l in range(j):
                    if l not in zero_indices:
                        w -= k_full[j * n : (j + 1) * n, l * n : (l + 1) * n] @ ws[l]
                ws.append(w)
            w = ws[k]
            if float(np.linalg.norm(w)) <= ZERO_W_RTOL * scale:
                zero_indices.append(k)
                continue
            cross = np.vstack([x.data for x in vs[k:]]) @ w.T / s
            d = (w @ w.T) / s
        h[done:, rows] = cross
        k_full[done + n :, rows] = cross[n:] @ pseudo_inverse(d)
    k_mats = tuple(
        tuple(k_full[k * n : (k + 1) * n, l * n : (l + 1) * n] for l in range(k))
        for k in range(p)
    )
    return CascadeMap(k_mats=k_mats, zero_indices=tuple(zero_indices))


def cross_cov_residual(ws) -> float:
    """Largest cross-covariance Frobenius norm over distinct pairs."""
    ws = tuple(ws)
    worst = 0.0
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            worst = max(worst, float(np.linalg.norm(cov(ws[i], ws[j]))))
    return worst
