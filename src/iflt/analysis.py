"""Error formulas, the a-priori error bound, and epsilon-net selection.

Distances and errors between ensembles use the mean squared Euclidean norm
over realizations, ``(1/s) ||A - B||_F^2``, the sample analogue of the
mean-square signal norm used everywhere else in the package.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import InvalidInput, ParseError
from .interp import FilterModel, _coefficient, _estimate, _node_cascade
from .linalg import frob_norm, frob_norm_sq, pseudo_inverse, root_pinv_norm_sq
from .ortho import CascadeMap, cross_cov_residual
from .signals import Ensemble, TrainingSet, energy, est_cov

# optimal_error rejects outputs whose largest cross-covariance exceeds this
# share of their largest covariance
ORTHO_RTOL = 1e-8


@dataclass(frozen=True)
class EpsNet:
    """Indices of selected centers plus the realized covering radius."""

    center_indices: tuple[int, ...]
    achieved_eps: float


@dataclass(frozen=True)
class ErrorBoundInputs:
    """Constants feeding the a-priori error bound.

    ``eps_x`` / ``eps_y`` are the covering radii of the training sets inside
    the reference and observation families. ``lambda_e`` bounds how fast the
    pseudo-inverse of a cascade-output covariance moves with the output,
    ``lambda_q`` how fast the observation transforms move with their input,
    and ``r_hat[k]`` the squared gain of the k-th deflation stage. These are
    assumptions about the signal families, supplied by the caller (probes in
    the benchmark module give crude empirical lower bounds). ``x_energy``
    stands in for the unknown target's mean squared norm; ``w_covs`` /
    ``xw_covs`` are the per-term covariances C(w_k, w_k) and C(x_k, w_k).
    """

    eps_x: float
    eps_y: float
    lambda_e: float
    lambda_q: float
    r_hat: tuple[float, ...]
    w_covs: tuple[np.ndarray, ...]
    xw_covs: tuple[np.ndarray, ...]
    x_energy: float
    a_mats: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        consts = (self.eps_x, self.eps_y, self.lambda_e, self.lambda_q,
                  self.x_energy, *self.r_hat)
        if not all(np.isfinite(c) and c >= 0.0 for c in consts):
            raise InvalidInput("bound constants must be finite and nonnegative")
        p = len(self.r_hat)
        if not (len(self.w_covs) == len(self.xw_covs) == p):
            raise InvalidInput("need one covariance pair per term")
        if self.a_mats is not None and len(self.a_mats) != p:
            raise InvalidInput("need one free matrix per term")


def ensemble_sq_distance(a: Ensemble, b: Ensemble) -> float:
    """Mean squared distance over realizations, ``(1/s) ||A - B||_F^2``."""
    if (a.m, a.s) != (b.m, b.s):
        raise InvalidInput(f"shape mismatch: {(a.m, a.s)} vs {(b.m, b.s)}")
    return float(np.sum((a.data - b.data) ** 2)) / a.s


def empirical_error(x: Ensemble, x_hat: Ensemble) -> float:
    """Realized estimation error, ``(1/s) ||X - X_hat||_F^2``."""
    return ensemble_sq_distance(x, x_hat)


def optimal_error(x: Ensemble, ws) -> float:
    """Smallest error any filter ``sum_j T_j w_j`` can achieve for ``x``.

    Requires mutually orthogonal ``ws`` (within ``ORTHO_RTOL``); equals the
    energy of ``x`` minus the energy captured by the best coefficient for each
    term,

        energy(x) - sum_j ||C(x, w_j) (D_j^{1/2})^+||_F^2
          = energy(x) - sum_j tr(C(x, w_j) D_j^+ C(x, w_j)^T),   D_j = C(w_j, w_j),

    with D_j^+ from ``pseudo_inverse``, whose cutoff is the one rank rule of
    every error formula here.
    """
    ws = tuple(ws)
    if not ws:
        raise InvalidInput("need at least one ensemble")
    covs = [est_cov(w, w) for w in ws]
    if cross_cov_residual(ws) > ORTHO_RTOL * max(frob_norm(c) for c in covs):
        raise InvalidInput("ensembles are not mutually orthogonal within tolerance")
    return energy(x) - sum(root_pinv_norm_sq(est_cov(x, w), pseudo_inverse(c))
                           for w, c in zip(ws, covs))


def captured_energy(cmap: CascadeMap, r: int) -> float:
    """sum_j tr(C(x_r, w_j) D_j^+ C(x_r, w_j)^T) for extra row ``r`` of ``cmap``:
    the energy of x_r that the best filter on the cascade outputs explains, so
    that ``optimal_error(x_r, ws) = energy(x_r) - captured_energy(cmap, r)``."""
    return sum(root_pinv_norm_sq(c, d_pinv)
               for c, d_pinv in zip(cmap.x_cross[r], cmap.d_pinvs))


def node_error_decomposition(model: FilterModel, train: TrainingSet, k: int) -> dict:
    """Exact error split at training node k when the training pairs are the
    whole family.

    In that regime every input is one of the training observations, so the
    filter's j-th coefficient block acts on the node's own cascade output and
    can be written against it; the realized error then splits exactly into
    the optimal error plus the cross-node mismatch of each term:

        lhs = error at node k of the filter evaluated in this regime
        rhs = optimal_error(x_k, ws)
              + sum_j ||(C(x_j, w_j) - C(x_k, w_j)) (D_j^{1/2})^+||_F^2

    with ws the cascade outputs of node k's observation (the k-th coefficient
    block coincides with the trained one) and D_j = C(w_j, w_j). Returns
    ``{"lhs", "rhs", "gap"}``; the identity assumes the fit used zero free terms.
    ``bench.node_bound_checks`` reads the same record from the map it forms.
    """
    if not 0 <= k < model.p:
        raise InvalidInput(f"node index {k} out of range [0, {model.p - 1}]")
    vs, cmap = _node_cascade(train, model.q_specs, k, train.s_x)
    return _decompose_node(model, train.s_x[k], k, vs, cmap)[0]


def _decompose_node(model: FilterModel, x_k: Ensemble, k: int, vs,
                    cmap: CascadeMap) -> tuple[dict, float]:
    """``node_error_decomposition``'s record at node k and the optimal error
    ``energy(x_k) - captured_energy(cmap, k)``, from node k's inputs ``vs`` and
    their cascade map ``cmap`` with every node's reference as extra rows."""
    a_mats = model.a_mats or [None] * model.p
    mismatch = sum(root_pinv_norm_sq(cmap.x_cross[j][j] - cmap.x_cross[k][j], d_pinv)
                   for j, d_pinv in enumerate(cmap.d_pinvs))
    t_mats = [_coefficient(cmap, j, j, a_mats[j]) for j in range(model.p)]
    estimate = _estimate(t_mats, cmap.k_mats, vs, cmap.zero_indices)  # in data space
    lhs = float(np.sum((x_k.data - estimate) ** 2)) / x_k.s
    optimal = energy(x_k) - captured_energy(cmap, k)
    rhs = optimal + mismatch
    return {"lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}, optimal


def error_upper_bound(optimal_err: float, inputs: ErrorBoundInputs) -> float:
    """A-priori bound on the filter error for any member of the signal family.

    Adds to the optimal error one penalty per term for the reference-side
    covering radius (scaled by the term's energy and inverse-covariance mass)
    and one for the observation-side radius (scaled by the Lipschitz and gain
    constants), plus the free-term leakage outside each covariance range.
    With D_k = C(w_k, w_k) and D_k^+ its ``pseudo_inverse``, taken once per
    term, every factor is a trace or a norm (the cutoff of ``pseudo_inverse``
    is the only rank rule):

        bound = optimal_err + sum_k (eps_x * tr D_k * E_k + eps_y * P_k) + C,
        E_k = ||(D_k^{1/2})^+||_F^2 = tr D_k^+,
        P_k = lambda_e * lambda_q * r_hat_k
              * (x_energy * E_k + ||C(x_k, w_k)||_F^2) * tr D_k,
        C   = sum_k ||A_k (I - D_k D_k^+)||_F^2 * tr D_k,

    where tr D_k = ||D_k^{1/2}||_F^2 is the energy of w_k.
    """
    if not (np.isfinite(optimal_err) and optimal_err >= 0.0):
        raise InvalidInput("optimal_err must be finite and nonnegative")
    total = optimal_err
    for k, (eww, exw) in enumerate(zip(inputs.w_covs, inputs.xw_covs)):
        eww_pinv = pseudo_inverse(eww)
        e_k, w_energy = float(np.trace(eww_pinv)), float(np.trace(eww))
        p_k = (
            inputs.lambda_e
            * inputs.lambda_q
            * inputs.r_hat[k]
            * (inputs.x_energy * e_k + frob_norm_sq(exw))
            * w_energy
        )
        total += inputs.eps_x * w_energy * e_k + inputs.eps_y * p_k
        if inputs.a_mats is not None:
            leak = inputs.a_mats[k] @ (np.eye(eww.shape[0]) - eww @ eww_pinv)
            total += frob_norm_sq(leak) * w_energy
    return float(total)


def greedy_eps_net(pool, eps: float) -> EpsNet:
    """Greedy cover of a pool of aligned ensembles at squared radius ``eps``.

    Scans the pool in order and promotes every candidate not within ``eps``
    of an existing center (ties break toward the lowest index). The result
    covers the pool by construction; ``achieved_eps`` is the realized
    max-min squared distance.
    """
    pool = tuple(pool)
    if not pool:
        raise InvalidInput("pool must be nonempty")
    if not (np.isfinite(eps) and eps > 0.0):
        raise InvalidInput("eps must be positive")
    centers: list[int] = []
    for idx, cand in enumerate(pool):
        covered = any(
            ensemble_sq_distance(cand, pool[c]) <= eps for c in centers
        )
        if not covered:
            centers.append(idx)
    return EpsNet(tuple(centers), net_radius(pool, centers))


def net_radius(pool, center_indices) -> float:
    """Max over the pool of the min squared distance to the given centers."""
    pool = tuple(pool)
    centers = tuple(center_indices)
    if not pool or not centers:
        raise InvalidInput("pool and centers must be nonempty")
    return max(
        min(ensemble_sq_distance(cand, pool[c]) for c in centers) for cand in pool
    )


def _nonnegative_number(value) -> bool:
    """Whether a JSON value is a number, not a bool, in [0, the largest float]."""
    return type(value) in (int, float) and 0.0 <= value <= sys.float_info.max


def load_bound_constants(path) -> dict:
    """Read bound constants from a JSON file.

    The file holds a JSON object with the numbers ``eps_x``, ``eps_y``,
    ``lambda_e``, ``lambda_q`` and ``x_energy`` and the list ``r_hat`` (one
    number per term). Every number must be finite and nonnegative; a bad or
    missing field raises ParseError naming it.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: bound constants must be a JSON object")
    out = {}
    for key in ("eps_x", "eps_y", "lambda_e", "lambda_q", "r_hat", "x_energy"):
        if key not in doc:
            raise ParseError(f"{path}: missing bound constant {key!r}")
        value = out[key] = doc[key]
        if key != "r_hat" and not _nonnegative_number(value):
            raise ParseError(f"{path}: {key} must be a finite nonnegative number")
    if not (isinstance(out["r_hat"], list) and all(map(_nonnegative_number, out["r_hat"]))):
        raise ParseError(f"{path}: r_hat must be a list of finite nonnegative numbers")
    out["r_hat"] = [float(v) for v in out["r_hat"]]
    return out
