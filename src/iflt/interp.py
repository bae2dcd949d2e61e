"""Order-p interpolation filter: fitting, application, residuals, serialization.

The filter estimates a reference signal from an observation stream as

    x_hat = sum_j T_j w_j

where v_j = Q_j(stream at position i) are p transformed observations, the
w_j are their deflation-cascade outputs, and the coefficient matrices T_j are
chosen so that, at each of p training nodes (x_k, y_k), the filter's
covariance with the node's own cascade output matches that of the reference:

    sum_j T_j C(w_jk, w_kk) = C(x_k, w_kk),  k = 1..p.

Because the per-node cascade outputs are mutually orthogonal, each condition
collapses to a single equation solved by

    T_j = C(x_j, w_jj) C(w_jj, w_jj)^+ + A_j (I - C(w_jj, w_jj) C(w_jj, w_jj)^+),

with free matrices A_j (zero by default). Everything is expressed through
pseudo-inverses, so fitting succeeds for any covariance rank; a collapsed
cascade output simply yields a zero coefficient block, which is flagged in
the model metadata.

Deflation matrices are recomputed from each input's own transformed
observations by default (this is what makes the cascade outputs orthogonal
for unseen inputs); ``fixed_r=True`` replays those frozen at fit time. Every
cascade is the block LDL^T of the inputs' Gram matrix (``ortho``): V = L W,
L unit block-lower in the deflation blocks, so x_hat = [T_1 ... T_p] W = Z V
with Z L = [T_1 ... T_p]. ``fit`` and the diagnostics take a node's cascade
from ``ortho.position_cascade`` with the references as extra rows, so
T_j = C(x_j, w_jj) D_jj^+ with no pass over the data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import InvalidInput, ParseError
from .linalg import frob_norm
from .ortho import CascadeMap, gram, inputs_gram, ldl_stages, position_cascade, window
from .sigio import json_object
from .signals import Ensemble, QOperatorSpec, SignalSequence, TrainingSet, finish_estimate

MODEL_VERSION = 1
RESIDUAL_RTOL = 1e-6


@dataclass(frozen=True)
class FilterContext:
    """Observation history an input position is evaluated against.

    ``history`` may be any sequence ``ortho.window`` reads, such as
    ``sigio.ManifestSequence``. The context keeps the Gram band of its latest
    call: the ``ortho.gram`` of the distinct positions it read, in increasing
    order. A call whose positions share a run with those copies that run's
    blocks and forms the others, so a lag filter at the next position forms
    only the p blocks of its new input. Each block is formed by one rule, so
    results do not depend on the calls before.
    """

    history: SignalSequence
    _band: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _gram(self, ups, rel, win: np.ndarray) -> np.ndarray:
        """A copy of G of the inputs, input j at ``win[rel[j]]``, for the
        ``ortho.window`` (ups, rel, win); the window's Gram matrix is kept."""
        n, band = win.shape[1], self._band
        held, old = band.pop("positions", ()), band.pop("gram", None)
        run = [a for a in ups if a in held]
        x, y, k = (ups.index(run[0]), held.index(run[0]), len(run)) if run else (0, 0, 0)
        one_run = run and ups[x : x + k] == run == list(held[y : y + k])  # in both
        b = slice(y * n, (y + k) * n)
        gw = gram(win, kept=(x, old[b, b]) if one_run else None)
        del old  # freed before G is copied out
        band.update(positions=tuple(ups), gram=gw)
        g = inputs_gram(gw, rel, n)
        return g.copy() if g is gw else g


@dataclass
class FilterModel:
    """Trained filter: transform specs, coefficient blocks, optional free terms.

    ``r_mats[j]`` stores the deflation matrices of training node j's cascade
    (used only when applying with ``fixed_r=True``). ``meta`` records fit
    diagnostics: residuals, tolerances, sample counts, degenerate terms. The
    coefficient widths ``apply_filter`` checks are taken at creation.
    """

    p: int
    q_specs: list[QOperatorSpec]
    t_mats: list[np.ndarray]
    a_mats: list[np.ndarray] | None = None
    r_mats: list[list[np.ndarray]] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):  # what apply_filter checks on every call
        self._t_cols = sorted({t.shape[1] for t in self.t_mats})

    @cached_property
    def _t(self) -> np.ndarray:  # [T_1 ... T_p], taken at the first apply
        return np.hstack(self.t_mats)

    @cached_property
    def _fixed_z(self) -> np.ndarray:
        """Z L = [T_1 ... T_p] for L of the frozen ``r_mats``, at the first ``fixed_r`` apply."""
        n = self.t_mats[0].shape[1]
        g = np.zeros((self.p * n,) * 2)  # K_jk^T in block (k, j), as back_substitute reads
        for j, row in enumerate(self.r_mats):
            for k, k_mat in enumerate(row):
                g[k * n : (k + 1) * n, j * n : (j + 1) * n] = k_mat.T
        return back_substitute(self._t, g, n)


def _matching_terms(cmap: CascadeMap, k: int) -> tuple[list[np.ndarray], np.ndarray]:
    """C(w_j, w_k) for every output j, as the recursion gives them, and C(x_k, w_k):
    D_k for j = k, the rounding-level C(v_j, w_k) - K_jk D_k for j > k."""
    def below(j, l):
        return cmap.cross[j][l] - cmap.k_mats[j][l] @ cmap.d_mats[l]

    covs = [cmap.d_mats[k] if j == k else below(j, k) if j > k else below(k, j).T
            for j in range(len(cmap.d_mats))]
    if k in cmap.zero_indices:  # w_k is zero
        covs = [np.zeros_like(c) for c in covs]
    return covs, cmap.x_cross[0][k].copy()  # a view would keep the map's buffer


def _matching_residuals(t_mats, terms) -> tuple[list, list]:
    """||sum_j T_j C(w_j, w_k) - C(x_k, w_k)||_F and ||C(x_k, w_k)||_F per node k."""
    return ([frob_norm(sum(t @ c for t, c in zip(t_mats, covs)) - target)
             for covs, target in terms], [frob_norm(x) for _, x in terms])


def fit(
    train: TrainingSet,
    q_specs,
    a_mats=None,
    residual_tol: float = RESIDUAL_RTOL,
) -> FilterModel:
    """Fit the order-p filter on a training set.

    ``a_mats``, when given, supplies one finite m x n free matrix per term
    (the free term only acts outside the range of the node covariance, so the
    matching conditions hold for any choice). Fitting records the per-node
    matching residuals in ``meta`` and flags terms whose cascade output
    collapsed to zero; it never fails on rank-deficient covariances. It holds
    one node's cascade at a time.
    """
    q_specs = list(q_specs)
    p, m, n = train.p, train.s_x[0].m, train.s_y_context.m
    if len(q_specs) != p:
        raise InvalidInput(f"{len(q_specs)} transforms for {p} training nodes")
    if a_mats is not None:
        a_mats = _matrix_list(list(a_mats), "a_mats", p, (m, n), InvalidInput)
    t_mats, r_mats, terms, degenerate = [], [], [], []
    for j in range(p):
        cmap = position_cascade(train.s_y_context, q_specs, train.s_y_indices[j],
                                [train.s_x[j].data])[1]
        degenerate += [j] if j in cmap.zero_indices else []
        t_mats.append(cmap.coefficient(0, j, a_mats[j] if a_mats else None))
        r_mats.append([k.copy() for k in cmap.k_mats[j]])
        terms.append(_matching_terms(cmap, j))
        del cmap  # free its work buffers before the next node's are formed
    residuals, scales = _matching_residuals(t_mats, terms)
    meta = {
        "p": p,
        "m": m,
        "n": n,
        "s": train.s_y_context.s,
        "node_positions": list(train.s_y_indices),
        "residuals": residuals,
        "residual_scales": scales,
        "residual_tol": residual_tol,
        "residual_ok": all(
            r <= residual_tol * s if s > 0 else r <= residual_tol
            for r, s in zip(residuals, scales)
        ),
        "degenerate_terms": degenerate,
    }
    return FilterModel(p=p, q_specs=q_specs, t_mats=t_mats, a_mats=a_mats,
                       r_mats=r_mats, meta=meta)


def back_substitute(t: np.ndarray, g: np.ndarray, n: int, zero_indices=()) -> np.ndarray:
    """Z with Z L = T = [T_1 ... T_p], L unit block-lower with K_jk (j > k) in
    block (j, k), for ``g`` holding each K_jk^T in block (k, j) as
    ``ortho.cascade_map`` leaves it: one GEMM per block row,
    Z_k = T_k - [Z_k+1 ... Z_p] [K_k+1,k; ...; K_pk]. The blocks of the
    outputs in ``zero_indices`` are zero, as are their K columns.
    """
    z = t.copy()
    p = t.shape[1] // n
    for k in reversed(range(p)):
        zk = z[:, k * n : (k + 1) * n]
        if k in zero_indices:
            zk[:] = 0.0
        elif k < p - 1:
            zk -= z[:, (k + 1) * n :] @ g[k * n : (k + 1) * n, (k + 1) * n : p * n].T
    return z


def apply_filter(
    model: FilterModel, ctx: FilterContext, i: int, fixed_r: bool = False
) -> Ensemble:
    """Estimate the reference ensemble for observation position ``i``.

    The deflation blocks K are recomputed from the input's own covariances
    (``ortho.ldl_stages`` on the Gram matrix from ``ctx``'s band) or, with
    ``fixed_r=True``, are the ones stored at fit time, whose Z the model
    keeps. Either way Z L = [T_1 ... T_p] gives blocks Z_j over the inputs,
    and the estimate is one GEMM over the distinct positions they read, with
    the Z_j of inputs at one position (lags clamped at the start) summed. An
    overflow raises ``InvalidInput`` naming the 1-based position (``--index``).
    """
    n = ctx.history.m
    if model._t_cols != [n]:
        raise InvalidInput(
            f"model t_mats have {', '.join(map(str, model._t_cols))} columns but the "
            f"observations have {n} components"
        )
    ups, rel, win = window(ctx.history, model.q_specs, i)
    if fixed_r and model.r_mats is None:
        raise InvalidInput("model carries no frozen deflation matrices")
    # Z of large t_mats can overflow; the estimate is then not finite, and
    # finish_estimate raises for it
    with np.errstate(over="ignore", invalid="ignore"):
        if fixed_r:
            z = model._fixed_z
        else:
            g = ctx._gram(ups, rel, win)
            views = list(win)  # one array per position: repeats are zero stages
            zero_indices = ldl_stages(g, [views[x] for x in rel], model.p)
            z = back_substitute(model._t, g, n, zero_indices)
        if rel != list(range(len(ups))):
            zw = np.zeros((len(z), len(win) * n))  # Z over the distinct positions
            for j, x in enumerate(rel):
                zw[:, x * n : (x + 1) * n] += z[:, j * n : (j + 1) * n]
            z = zw
    return finish_estimate(z, win.reshape(len(win) * n, -1),
                           f"at sequence position {i + 1} from the model's t_mats")


def save_model(model: FilterModel) -> bytes:
    """Serialize to JSON (full-precision floats, arrays as nested lists)."""
    doc = {
        "version": MODEL_VERSION,
        "p": model.p,
        "q_specs": [q.to_dict() for q in model.q_specs],
        "t_mats": [t.tolist() for t in model.t_mats],
        "a_mats": [a.tolist() for a in model.a_mats] if model.a_mats else None,
        "r_mats": None if model.r_mats is None else [
            [k.tolist() for k in row] for row in model.r_mats],
        "meta": model.meta,
    }
    return json.dumps(doc, sort_keys=True).encode()


def _matrix_list(entries, name: str, count: int, shape,
                 error: type[Exception] = ParseError) -> list[np.ndarray]:
    """``count`` finite matrices of ``shape`` (``None``: the first one's, 2-D)
    from ``entries``, else ``error`` naming the entry: ParseError for a model
    field, InvalidInput for fit's ``a_mats``."""
    if not isinstance(entries, list) or len(entries) != count:
        raise error(f"{name} must hold {count} matrices of shape {shape or '(m, n)'}")
    out = []
    for j, entry in enumerate(entries):
        try:
            arr = np.asarray(entry, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{name}[{j}] is not a numeric matrix") from exc
        shape = shape or (arr.shape if arr.ndim == 2 else "(m, n)")
        if arr.shape != shape:
            raise error(f"{name}[{j}] has shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise error(f"{name}[{j}] contains non-finite entries")
        out.append(arr)
    return out


def load_model(blob: bytes | str) -> FilterModel:
    """Inverse of save_model; raises ParseError naming the malformed field."""
    doc = json_object(blob, "model", "document")
    if doc.get("version") != MODEL_VERSION:
        raise ParseError(f"unsupported model version {doc.get('version')!r}")
    p, specs = doc.get("p"), doc.get("q_specs")
    if type(p) is not int or p < 1:
        raise ParseError(f"p must be a positive integer, got {p!r}")
    if not isinstance(specs, list) or len(specs) != p:
        raise ParseError(f"q_specs must hold {p} transform specs, one per term")
    q_specs = []
    for j, d in enumerate(specs):
        try:
            q_specs.append(QOperatorSpec.from_dict(d))
        except (TypeError, ValueError, OverflowError) as exc:  # InvalidInput is a ValueError
            raise ParseError(f"q_specs[{j}]: {exc}") from exc
    t_mats = _matrix_list(doc.get("t_mats"), "t_mats", p, None)
    t_shape = t_mats[0].shape
    n = t_shape[1]
    a_mats = doc.get("a_mats")
    if a_mats is not None:
        a_mats = _matrix_list(a_mats, "a_mats", p, t_shape)
    r_mats = doc.get("r_mats")
    if r_mats is not None:
        if not isinstance(r_mats, list) or len(r_mats) != p:
            raise ParseError(f"r_mats must hold {p} rows, one per term")
        r_mats = [_matrix_list(row, f"r_mats[{j}]", j, (n, n))
                  for j, row in enumerate(r_mats)]
    meta = doc.get("meta") or {}
    if not isinstance(meta, dict):
        raise ParseError("meta must be a JSON object")
    nodes = meta.get("node_positions")
    if nodes is not None and not (
        isinstance(nodes, list) and len(nodes) == p
        and all(type(k) is int and k >= 0 for k in nodes) and nodes == sorted(set(nodes))
    ):
        raise ParseError(
            f"meta.node_positions must be {p} strictly increasing nonnegative integers"
        )
    return FilterModel(p=p, q_specs=q_specs, t_mats=t_mats, a_mats=a_mats,
                       r_mats=r_mats, meta=meta)
