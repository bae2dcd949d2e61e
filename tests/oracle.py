"""Data-space and extended-precision references for the cascade, ``fit``,
``apply_filter`` and ``node_error_decomposition``.

``data_space_cascade`` deflates its inputs in data space stage by stage, as
the cascade is defined. Every training node runs it; the coefficients, the
matching residuals and the node error split are then read from the
data-space outputs with ``est_cov``. The library computes all of these from
the Gram recursion of ``ortho.cascade_map``; the property tests compare the
two. ``fit_exact`` and ``apply_exact`` run the cascade in extended precision,
the truth on inputs where float64 cannot settle the comparison.
``penrose_residuals`` measures how well ``pseudo_inverse`` meets the four
identities that define the pseudo-inverse.
"""

import numpy as np

from iflt import (Ensemble, OrthoResult, SignalSequence, apply_q, cross_cov_residual,
                  pseudo_inverse, sym_sqrt)
from iflt.linalg import frob_norm_sq
from iflt.ortho import ZERO_W_RTOL
from iflt.signals import energy, est_cov


def data_space_cascade(vs) -> OrthoResult:
    """Run the deflation cascade over realization-aligned centered ensembles in
    data space: w_i = v_i - sum_{l < i} C(v_i, w_l) C(w_l, w_l)^+ w_l, with
    the outputs of inputs that are an earlier input (the same object, as
    ``apply_q`` gives for lags clamped onto one position) and those of norm at
    most ``ZERO_W_RTOL`` times the largest input's snapped to zero, and the
    later live ones re-centered."""
    vs = tuple(vs)
    SignalSequence(vs)  # aligned, finite and centered, as orthogonalize checks
    scale = max(float(np.linalg.norm(v.data)) for v in vs)
    ws: list[Ensemble] = []
    k_rows: list[tuple[np.ndarray, ...]] = []
    zero_indices: list[int] = []
    for i, v in enumerate(vs):
        data = v.data.copy()
        row: list[np.ndarray] = []
        for l in range(i):
            k = est_cov(v, ws[l]) @ pseudo_inverse(est_cov(ws[l], ws[l]))
            row.append(k)
            data -= k @ ws[l].data
        if (any(v is u for u in vs[:i])
                or float(np.linalg.norm(data)) <= ZERO_W_RTOL * scale):
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


def node_cascades(train, q_specs):
    """``data_space_cascade`` of the transformed observations at every training node."""
    return [data_space_cascade([apply_q(q, train.s_y_context, idx) for q in q_specs])
            for idx in train.s_y_indices]


def coefficients(x, w, a_mat):
    """T = C(x, w) C(w, w)^+ + A (I - C(w, w) C(w, w)^+)."""
    eww = est_cov(w, w)
    eww_pinv = pseudo_inverse(eww)
    t = est_cov(x, w) @ eww_pinv
    if a_mat is not None:
        t = t + a_mat @ (np.eye(eww.shape[0]) - eww @ eww_pinv)
    return t


def matching_residuals(t_mats, train, cascades):
    """||sum_j T_j C(w_jk, w_kk) - C(x_k, w_kk)||_F and ||C(x_k, w_kk)||_F per node k."""
    residuals, scales = [], []
    for k in range(train.p):
        wkk = cascades[k].ws[k]
        target = est_cov(train.s_x[k], wkk)
        acc = np.zeros_like(target)
        for j, t in enumerate(t_mats):
            acc += t @ est_cov(cascades[k].ws[j], wkk)
        residuals.append(float(np.linalg.norm(acc - target)))
        scales.append(float(np.linalg.norm(target)))
    return residuals, scales


def fit_reference(train, q_specs, a_mats=None) -> dict:
    """The fitted blocks and diagnostics ``fit`` records, from data space."""
    cascades = node_cascades(train, q_specs)
    t_mats = [coefficients(train.s_x[j], c.ws[j], a_mats[j] if a_mats else None)
              for j, c in enumerate(cascades)]
    residuals, scales = matching_residuals(t_mats, train, cascades)
    return {
        "t_mats": t_mats,
        "r_mats": [list(c.k_mats[j]) for j, c in enumerate(cascades)],
        "degenerate_terms": [j for j, c in enumerate(cascades) if not np.any(c.ws[j].data)],
        "residuals": residuals,
        "residual_scales": scales,
    }


def node_error_decomposition_reference(model, train, k) -> dict:
    """``lhs`` and ``rhs`` of the node error split at node ``k``, from data space."""
    x_k = train.s_x[k]
    ws = node_cascades(train, model.q_specs)[k].ws
    a_mats = model.a_mats or [None] * model.p
    estimate = np.zeros((x_k.m, x_k.s))
    rhs = energy(x_k)
    for j, w in enumerate(ws):
        half_pinv = pseudo_inverse(sym_sqrt(est_cov(w, w)))
        estimate += coefficients(train.s_x[j], w, a_mats[j]) @ w.data
        rhs -= frob_norm_sq(est_cov(x_k, w) @ half_pinv)
        rhs += frob_norm_sq((est_cov(train.s_x[j], w) - est_cov(x_k, w)) @ half_pinv)
    return {"lhs": float(np.sum((x_k.data - estimate) ** 2)) / x_k.s, "rhs": rhs}


def _inverse(d):
    """Inverse of a nonsingular extended-precision matrix: a float64 inverse
    refined by two Newton steps."""
    x = np.linalg.inv(d.astype(float)).astype(np.longdouble)
    eye = np.eye(len(d), dtype=np.longdouble)
    for _ in range(2):
        x = x + x @ (eye - d @ x)
    return x


def _exact_cascade(vs, zero_indices):
    """Outputs, D_l^-1 and deflation blocks of the cascade in extended precision.

    The stages in ``zero_indices`` are zero; every other stage must have a
    nonsingular covariance.
    """
    s = vs[0].shape[1]
    ws, d_invs, k_rows = [], [], []
    for i, v in enumerate(vs):
        w, row = v.copy(), []
        for l, w_l in enumerate(ws):
            row.append((v @ w_l.T / s) @ d_invs[l])
            w -= row[-1] @ w_l
        if i in zero_indices:
            w[:] = 0.0
            d_invs.append(np.zeros((len(v), len(v)), dtype=np.longdouble))
        else:
            d_invs.append(_inverse(w @ w.T / s))
        ws.append(w)
        k_rows.append(row)
    return ws, d_invs, k_rows


def apply_exact(model, ys, i, fixed_r) -> np.ndarray:
    """``apply_filter``'s estimate in extended precision, re-centered.

    The deflation blocks are the stored ``r_mats`` (``fixed_r``) or those of
    the input's own cascade, with the stages ``data_space_cascade`` snaps zero
    (among them every lag clamped onto the position of an earlier one).
    """
    vs = [apply_q(q, ys, i) for q in model.q_specs]
    data = [v.data.astype(np.longdouble) for v in vs]
    if fixed_r:
        ws = []
        for v, row in zip(data, model.r_mats):
            w = v.copy()
            for k, w_l in zip(row, ws):
                w -= k.astype(np.longdouble) @ w_l
            ws.append(w)
    else:
        ws = _exact_cascade(data, data_space_cascade(vs).zero_indices)[0]
    acc = sum(t.astype(np.longdouble) @ w for t, w in zip(model.t_mats, ws))
    return acc - acc.mean(axis=1, keepdims=True)


def fit_exact(train, q_specs, a_mats, zero_indices) -> dict:
    """``fit_reference``'s blocks and residuals, and the node error split, in
    extended precision (``np.longdouble``), with the zero-snapped stages of
    every node given (as ``data_space_cascade`` snaps them).

    The data-space oracle loses accuracy on a live stage far below its
    input's scale: its outputs are differences of much larger ensembles.
    Extended precision keeps about three more digits there, so this serves as
    the truth both the oracle and the library are measured against.
    """
    ld = np.longdouble
    xs = [x.data.astype(ld) for x in train.s_x]
    s = train.s_y_context.s
    nodes = []
    for k, idx in enumerate(train.s_y_indices):
        vs = [apply_q(q, train.s_y_context, idx).data.astype(ld) for q in q_specs]
        nodes.append((vs, *_exact_cascade(vs, zero_indices[k])))

    def coefficient(x, w, d_inv, a_mat):
        t = (x @ w.T / s) @ d_inv
        if a_mat is not None:
            t = t + a_mat.astype(ld) @ (np.eye(len(w), dtype=ld) - (w @ w.T / s) @ d_inv)
        return t

    a_mats = a_mats or [None] * train.p
    t_mats = [coefficient(xs[j], ws[j], d_invs[j], a_mats[j])
              for j, (_, ws, d_invs, _) in enumerate(nodes)]
    residuals, decomposition = [], []
    for k, (vs, ws, d_invs, _) in enumerate(nodes):
        target = xs[k] @ ws[k].T / s
        acc = sum(t @ (w @ ws[k].T / s) for t, w in zip(t_mats, ws)) - target
        residuals.append(float(np.sqrt(np.sum(acc * acc))))
        estimate = sum(coefficient(xs[j], w, d_inv, a_mats[j]) @ w
                       for j, (w, d_inv) in enumerate(zip(ws, d_invs)))
        rhs = np.sum(xs[k] * xs[k]) / s
        for j, (w, d_inv) in enumerate(zip(ws, d_invs)):
            c_k, c_j = xs[k] @ w.T / s, xs[j] @ w.T / s
            rhs += np.trace((c_j - c_k) @ d_inv @ (c_j - c_k).T) - np.trace(c_k @ d_inv @ c_k.T)
        decomposition.append({"lhs": float(np.sum((xs[k] - estimate) ** 2) / s),
                              "rhs": float(rhs)})
    return {
        "t_mats": [t.astype(float) for t in t_mats],
        "r_mats": [[b.astype(float) for b in node[3][j]] for j, node in enumerate(nodes)],
        "residuals": residuals,
        "decomposition": decomposition,
    }


def penrose_residuals(a, a_pinv) -> tuple[float, float, float, float]:
    """Relative Frobenius residuals of the four defining pseudo-inverse identities.

    Returns residuals for A G A = A, G A G = G, (A G) symmetric and (G A)
    symmetric, each normalized by the scale of the quantity being reproduced.
    """
    arr = np.asarray(a, dtype=float)
    g = np.asarray(a_pinv, dtype=float)
    scale_a = float(np.linalg.norm(arr)) or 1.0
    scale_g = float(np.linalg.norm(g)) or 1.0
    ag = arr @ g
    ga = g @ arr
    r1 = float(np.linalg.norm(ag @ arr - arr)) / scale_a
    r2 = float(np.linalg.norm(ga @ g - g)) / scale_g
    r3 = float(np.linalg.norm(ag - ag.T)) / (float(np.linalg.norm(ag)) or 1.0)
    r4 = float(np.linalg.norm(ga - ga.T)) / (float(np.linalg.norm(ga)) or 1.0)
    return r1, r2, r3, r4
