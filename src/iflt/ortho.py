"""Covariance deflation cascade producing mutually orthogonal ensembles.

Two ensembles are (empirically) orthogonal when their cross-covariance is the
zero matrix. The cascade keeps the first input unchanged and deflates every
later input against the already-produced outputs:

    w_1 = v_1
    w_i = v_i - sum_{l < i} K_il w_l,
    K_il = C(v_i, w_l) C(w_l, w_l)^+

with C the empirical covariance (a free term M_il (I - C(w_l, w_l) C(w_l, w_l)^+)
would keep the outputs orthogonal for any M_il; the package takes it zero).
With the 1/s sample convention the resulting cross-covariances vanish to
machine precision by construction.

An input that is an exact linear image of earlier outputs has the zero
ensemble as residual, snapped to exact zeros so that pseudo-inverses of its
covariance are zero matrices rather than noise amplifiers: an input that is
an earlier input (a clamped lag) by that alone, any other when its residual
norm is at most ``1e-12`` times the input scale. ``cascade_map`` (its stage
loop ``ldl_stages``) is the one implementation, from the Gram matrix ``gram``
forms of the observations ``window`` picks; ``position_cascade`` is that
chain at one position, and ``cascade_outputs`` forms outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .exceptions import InvalidInput
from .linalg import SMALLEST_NORMAL, frob_norm, pseudo_inverse
from .signals import Ensemble, SignalSequence, est_cov

# the LAPACK gufuncs np.linalg.cholesky and inv wrap; at a 16 x 16 stage the
# wrappers' checks cost as much. A failed factorization gives NaNs, not an error.
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky, inv as _inv

ZERO_W_RTOL = 1e-12
# A covariance read from the Gram matrix is good to about eps E / lambda in a
# direction of energy lambda (E the largest input energy); stages without a
# certificate that every direction is above this share of E are re-checked in
# data space.
GRAM_RECHECK_RTOL = 1e-5


@dataclass(frozen=True)
class OrthoResult:
    """``orthogonalize``'s result: the ``cascade_outputs``, the deflation matrices
    (``k_mats[i]`` deflates input ``i`` against outputs ``0..i-1``), the largest
    cross-covariance norm over pairs of outputs, and the zero-snapped outputs."""

    ws: tuple[Ensemble, ...]
    k_mats: tuple[tuple[np.ndarray, ...], ...]
    max_cross_residual: float
    zero_indices: tuple[int, ...]


@dataclass(frozen=True)
class CascadeMap:
    """The deflation cascade as Gram blocks.

    ``k_mats[k]`` holds K_k0 .. K_k,k-1, the blocks K_il of the cascade: with L
    their unit block-lower matrix, V = L W for the stacked inputs V and
    outputs W. ``cross[j][k]`` is C(v_j, w_k) (j >= k), ``x_cross[r][k]`` is
    C(x_r, w_k), ``d_mats[k]`` is D_k = C(w_k, w_k) and ``d_pinvs[k]`` D_k^+
    (``None`` for a stage no row below reads). The blocks of the outputs in
    ``zero_indices``, which collapsed to the zero ensemble, are zero.

    The blocks of ``k_mats``, ``cross`` and ``x_cross`` are views into one
    buffer ``g``, the Gram matrix of U = [V; X] (the inputs, then the extra
    rows) against V run in place, whose block rows are ``rows``: block
    (i, k), i >= k, holds C(u_i, w_k) and block (k, i), k < i, K_ik^T.
    ``cross`` and ``x_cross`` are formed when first read. Each view keeps the
    whole buffer alive: a caller that keeps a block past the map must copy it.
    """

    k_mats: tuple[tuple[np.ndarray, ...], ...]
    d_mats: tuple[np.ndarray, ...]
    d_pinvs: tuple[np.ndarray | None, ...]
    zero_indices: tuple[int, ...]
    g: np.ndarray = field(repr=False)
    rows: tuple[slice, ...] = field(repr=False)

    @cached_property
    def cross(self) -> tuple[tuple[np.ndarray, ...], ...]:
        cols = self.rows[: len(self.d_mats)]
        return tuple(tuple(self.g[r, c] for c in cols[: j + 1]) for j, r in enumerate(cols))

    @cached_property
    def x_cross(self) -> tuple[tuple[np.ndarray, ...], ...]:
        p = len(self.d_mats)
        return tuple(tuple(self.g[r, c] for c in self.rows[:p]) for r in self.rows[p:])

    def coefficient(self, r: int, k: int, a_mat: np.ndarray | None = None) -> np.ndarray:
        """T = C(x_r, w_k) D_k^+ + A (I - D_k D_k^+) for extra row ``r`` and output ``k``."""
        t = self.x_cross[r][k] @ self.d_pinvs[k]
        if a_mat is not None:
            t = t + a_mat @ (np.eye(t.shape[1]) - self.d_mats[k] @ self.d_pinvs[k])
        return t


def orthogonalize(vs) -> OrthoResult:
    """``cascade_map`` and ``cascade_outputs`` of centered ensembles of one
    shape, checked as a ``SignalSequence`` is."""
    win = SignalSequence(tuple(vs)).data
    cmap = cascade_map(gram(win), win, len(win))
    ws = cascade_outputs(win, cmap)
    return OrthoResult(ws, cmap.k_mats, cross_cov_residual(ws), cmap.zero_indices)


def window(history, q_specs, i: int) -> tuple[list[int], list[int], np.ndarray]:
    """The distinct positions of ``history`` the transforms ``q_specs`` read at
    ``i``, in increasing order, the index among them of each transform's, and
    their observations as one (len(ups), n, s) array: a view of the history
    where they form one run, else gathered, so that no position in a gap is
    read. ``history`` offers ``len``, ``[i]`` and ``window(lo, hi)`` as
    ``SignalSequence`` does; an ``i`` out of range raises ``InvalidInput``."""
    if not 0 <= i < len(history):
        raise InvalidInput(f"sequence position {i + 1} out of range [1, {len(history)}]")
    pos = [q.position(i) for q in q_specs]
    ups = sorted(set(pos))
    win = (history.window(ups[0], ups[-1]) if ups[-1] - ups[0] == len(ups) - 1
           else np.stack([history[a].data for a in ups]))
    return ups, [ups.index(a) for a in pos], win


def gram(win: np.ndarray, xs=(), kept=None) -> np.ndarray:
    """The Gram matrix of the window's observations ``win``, and then of the
    extra rows ``xs`` (arrays), against the observations, in one buffer.

    Positions a >= b share the block (y_a y_b^T) / s, formed once, and block
    (b, a) is its transpose; an extra row x has the blocks (x y_b^T) / s. The
    blocks of the pair ``kept`` = (x, old), the Gram matrix ``old`` of window
    positions x, x + 1, ..., are copied instead. An entry that is not finite
    (an overflowed product) raises ``InvalidInput``.
    """
    d, n, s = win.shape
    us = [*win, *xs]
    rows = [slice(end - len(u), end) for u, end in zip(us, accumulate(len(u) for u in us))]
    g = np.empty((rows[-1].stop, d * n))
    x0, k = (kept[0], len(kept[1]) // n) if kept is not None else (0, 0)
    if k:
        g[x0 * n : (x0 + k) * n, x0 * n : (x0 + k) * n] = kept[1]
    with np.errstate(over="ignore", invalid="ignore"):
        for a, u in enumerate(us):
            for b in range(min(a + 1, d)):
                if not x0 <= b <= a < x0 + k:
                    block = u @ win[b].T
                    block /= s
                    g[rows[a], rows[b]] = block
                    if b < a < d:
                        g[rows[b], rows[a]] = block.T
    if not np.isfinite(g).all():
        raise InvalidInput("covariance overflows: entries are not finite")
    return g


def position_cascade(history, q_specs, i: int, xs=()) -> tuple[list[np.ndarray], CascadeMap]:
    """The input arrays the transforms ``q_specs`` read at position ``i`` of
    ``history`` (as ``window`` reads them, one array object per position), and
    their ``cascade_map`` with the arrays ``xs`` as extra rows, G from ``gram``."""
    _, rel, win = window(history, q_specs, i)
    views = list(win)  # one array per position, so repeats are one object
    vs, xs = [views[x] for x in rel], list(xs)
    return vs, cascade_map(inputs_gram(gram(win, xs), rel, win.shape[1]), vs + xs, len(vs))


def inputs_gram(g: np.ndarray, rel, n: int) -> np.ndarray:
    """G of cascade inputs at the window positions ``rel`` from the window's
    ``gram`` ``g``, whose extra rows follow: ``g`` itself where ``rel`` is
    every position in order, else its blocks gathered into a new buffer."""
    if rel == list(range(g.shape[1] // n)):
        return g
    cols = (np.asarray(rel)[:, None] * n + np.arange(n)).ravel()
    return g[np.ix_(np.concatenate([cols, np.arange(g.shape[1], len(g))]), cols)]


def cascade_map(g: np.ndarray, us, p: int) -> CascadeMap:
    """The blocks of the deflation cascade, run in place in a Gram matrix.

    ``g`` holds the blocks G_ik = C(u_i, v_k) of the arrays ``us``, U = [V; X]
    (the p inputs, then any extra rows), against the inputs, as ``gram`` forms
    them, and is overwritten with the ``CascadeMap`` layout; only its blocks
    i >= k are read. A ``g`` of another shape, or with an entry that is not
    finite, raises ``InvalidInput``. An extra row x is one more block row, so
    C(x, w_k) D_k^+ is the best coefficient of w_k for x.
    """
    rows = tuple(slice(end - len(u), end) for u, end in zip(us, accumulate(len(u) for u in us)))
    cols, shape = rows[:p], (rows[-1].stop, p * len(us[0]))
    if np.shape(g) != shape:
        raise InvalidInput(f"Gram matrix has shape {np.shape(g)}, expected {shape}")
    if not np.isfinite(g).all():
        raise InvalidInput("covariance overflows: entries are not finite")
    d_mats, d_pinvs = [], []
    zero_indices = ldl_stages(g, us, p, d_mats, d_pinvs)
    k_mats = tuple(tuple(g[cols[l], cols[j]].T for l in range(j)) for j in range(p))
    return CascadeMap(k_mats, tuple(d_mats), tuple(d_pinvs), tuple(zero_indices), g, rows)


def ldl_stages(g: np.ndarray, us, p: int, d_mats=None, d_pinvs=None) -> list[int]:
    """``cascade_map``'s stage loop, in place in the finite Gram matrix ``g`` of
    the arrays ``us`` (the p inputs, then any extra rows) against the inputs,
    unchecked; returns the zero-snapped stages, and D_k and D_k^+ in
    ``d_mats`` and ``d_pinvs`` when given. As w_k is orthogonal to the earlier
    outputs, D_k = C(w_k, w_k) = C(v_k, w_k), and stage by stage

        C(u_i, w_k) = G_ik - sum_{l < k} C(u_i, w_l) K_kl^T,   rows i >= k,
        K_ik = C(v_i, w_k) D_k^+,                               inputs i > k.

    This is block LDL^T of G, i.e. block Gram-Schmidt (Golub & Van Loan,
    Matrix Computations, 4.1 and 5.2): one GEMM and at most one
    pseudo-inverse per stage, and no pass over the data.

    An input that is an earlier input (the same array, as clamped lags give)
    is a zero stage at once. Else, G carries rounding of about eps times the
    largest input energy E. A stage that rows below read takes D_k^+ = D_k^-1
    from its Cholesky factor when floor tr D_k^-1 < 1 with floor =
    ``GRAM_RECHECK_RTOL`` E, which certifies every eigenvalue of D_k above the
    floor (and fails when tr D_k <= floor, as tr D tr D^-1 >= n^2). The last
    stage needs tr D_k > floor. A stage without that (the factorization fails,
    the trace is too large or not finite, or the floor is subnormal) is formed
    in data space instead, by forward substitution: a zero stage when its
    norm is at most ``ZERO_W_RTOL`` times the largest input norm, else with
    its covariances from the data and D_k^+ from the SVD ``pseudo_inverse``.
    A zero stage has C(u_i, w_k) = 0, K_ik = 0 and D_k = D_k^+ = 0.
    """
    us = list(us)  # live objects: a repeat is found by identity
    n, s = us[0].shape
    pn = p * n
    ws: list[np.ndarray] = []  # data-space outputs, formed up to the last re-check
    zero_indices: list[int] = []
    seen: set[int] = set()  # ids of the inputs of the stages so far
    # an overflow or a failed factorization leaves entries that are not
    # finite: a stage's fail its certificate and the stage is formed in data space
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        max_energy = g.diagonal().reshape(p, n).sum(axis=1).max()
        floor = GRAM_RECHECK_RTOL * max_energy
        for k in range(p):
            done = k * n  # columns of the earlier outputs
            col = slice(done, done + n)
            cross = g[done:, col]  # becomes C(u_i, w_k), rows i >= k
            below = len(cross) > n  # rows that read D_k^+
            zero = id(us[k]) in seen  # a repeated input: w_k = 0 by construction
            seen.add(id(us[k]))
            if not zero:
                if done:  # stage 0 has no earlier outputs to deflate against
                    cross -= g[done:, :done] @ g[:done, col]
                d = cross[:n] + cross[:n].T
                d *= 0.5
                d_pinv = _certified_inverse(d, floor) if below else None
                if (d_pinv is None) if below else d.trace() <= floor:
                    k_rows = [[g[l * n : (l + 1) * n, j * n : (j + 1) * n].T for l in range(j)]
                              for j in range(k + 1)]
                    forward_substitute(us[: k + 1], k_rows, ws)
                    zero = frob_norm(ws[k]) <= ZERO_W_RTOL * np.sqrt(s * max_energy)
                    if not zero:
                        starts = [0, *accumulate(len(u) for u in us)]
                        for i in range(k, len(us)):
                            g[starts[i] : starts[i + 1], col] = (us[i] @ ws[k].T) / s
                        d = (ws[k] @ ws[k].T) / s
                        d_pinv = pseudo_inverse(d) if below else None
            if zero:  # C(u_i, w_k) = 0, so K_ik = 0
                zero_indices.append(k)
                cross[:] = 0.0
                d = d_pinv = np.zeros((n, n))
            if d_mats is not None:
                d_mats.append(d)
                d_pinvs.append(d_pinv)
            if k < p - 1:
                g[col, done + n :] = 0.0 if zero else (cross[n : pn - done] @ d_pinv).T
    return zero_indices


def _triangular_inverse(l: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular ``l``: [[A, 0], [B, C]]^-1 is
    [[A^-1, 0], [-C^-1 B A^-1, C^-1]], down to ``np.linalg.inv`` at 32 rows."""
    if len(l) <= 32:
        return _inv(l)
    h, out = len(l) // 2, np.zeros_like(l)
    out[:h, :h], out[h:, h:] = _triangular_inverse(l[:h, :h]), _triangular_inverse(l[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ (l[h:, :h] @ out[:h, :h]))
    return out


def _certified_inverse(d: np.ndarray, floor: float) -> np.ndarray | None:
    """D^-1 = L^-T L^-1 from the Cholesky factor D = L L^T, if floor tr D^-1 < 1.

    As tr D^-1 >= 1 / lambda_min(D), the test certifies every eigenvalue of D
    above ``floor``, so ``pseudo_inverse``'s cutoff keeps every direction and
    D^+ = D^-1. A factorization that fails, a trace that is too large or not
    finite, and a floor below the normal range (subnormal data) give None.
    The caller ignores overflow, division by zero and invalid operations, as
    ``ldl_stages`` does for all its stages.
    """
    if floor < SMALLEST_NORMAL:
        return None
    l_inv = _triangular_inverse(_cholesky(d))  # NaN where the factorization fails
    d_inv = l_inv.T @ l_inv
    return d_inv if floor * d_inv.trace() < 1.0 else None  # false for inf and NaN


def forward_substitute(vs, k_mats, ws=None) -> list[np.ndarray]:
    """Extend ``ws`` by w_j = v_j - sum_l K_jl w_l (K_jl = 0 for a zero-snapped w_l),
    for input arrays ``vs``."""
    ws = [] if ws is None else ws
    for j in range(len(ws), len(vs)):
        w = vs[j].copy()
        for l, k_mat in enumerate(k_mats[j]):
            w -= k_mat @ ws[l]
        ws.append(w)
    return ws


def cascade_outputs(vs, cmap: CascadeMap) -> tuple[Ensemble, ...]:
    """The output ensembles of the cascade ``cmap`` of the input arrays ``vs``.

    w_0 = v_0 as it is, and every later w_k = v_k - sum_l K_kl w_l by forward
    substitution, re-centered: deflation of centered data is centered in exact
    arithmetic, and this keeps tiny residuals from failing the centered claim.
    The zero-snapped outputs are exact zeros.
    """
    ws = forward_substitute(vs, cmap.k_mats)
    for k, w in enumerate(ws):
        if k in cmap.zero_indices:
            w[:] = 0.0
        elif k:
            w -= w.mean(axis=1, keepdims=True)
    return tuple(Ensemble(w, centered=True) for w in ws)


def cross_cov_residual(ws) -> float:
    """Largest cross-covariance Frobenius norm over distinct pairs."""
    ws = tuple(ws)
    return max([0.0] + [frob_norm(est_cov(a, b)) for i, a in enumerate(ws) for b in ws[i + 1:]])
