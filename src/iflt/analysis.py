"""Error formulas, the a-priori error bound, and epsilon-net selection.

Distances and errors between ensembles use the mean squared Euclidean norm
over realizations, ``(1/s) ||A - B||_F^2``, the sample analogue of the
mean-square signal norm used everywhere else in the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .exceptions import InvalidInput, ParseError
from .interp import FilterModel, back_substitute
from .linalg import frob_norm, pseudo_inverse, root_pinv_norm_sq
from .ortho import CascadeMap, cascade_outputs, cross_cov_residual, position_cascade
from .sigio import json_object
from .signals import Ensemble, SignalSequence, TrainingSet, energy, est_cov

# optimal_error rejects outputs whose largest cross-covariance exceeds this
# share of their largest covariance
ORTHO_RTOL = 1e-8

# the keys of the bound constants dict, as ``check_bound_constants`` checks them
BOUND_CONSTANTS = ("eps_x", "eps_y", "lambda_e", "lambda_q", "r_hat", "x_energy")


@dataclass(frozen=True)
class EpsNet:
    """Indices of selected centers plus the realized covering radius."""

    center_indices: tuple[int, ...]
    achieved_eps: float


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
    ``node_bound_checks`` reads the same record in its one pass over the nodes.
    """
    if not 0 <= k < model.p:
        raise InvalidInput(f"node index {k} out of range [0, {model.p - 1}]")
    return _node_step(model, train, k)[0]


def _node_step(model: FilterModel, train: TrainingSet, k: int) -> tuple[dict, float, CascadeMap]:
    """``node_error_decomposition``'s record at node k, the optimal error
    ``energy(x_k) - captured_energy(cmap, k)``, and node k's cascade map
    ``cmap`` (``ortho.position_cascade``) with every node's reference as extra
    rows."""
    vs, cmap = position_cascade(train.s_y_context, model.q_specs, train.s_y_indices[k],
                                [x.data for x in train.s_x])
    x_k, a_mats = train.s_x[k], model.a_mats or [None] * model.p
    mismatch = sum(root_pinv_norm_sq(cmap.x_cross[j][j] - cmap.x_cross[k][j], d_pinv)
                   for j, d_pinv in enumerate(cmap.d_pinvs))
    n = len(vs[0])
    z = back_substitute(np.hstack([cmap.coefficient(j, j, a_mats[j]) for j in range(model.p)]),
                        cmap.g, n, cmap.zero_indices)
    estimate = np.zeros((len(z), x_k.s))  # sum_j Z_j v_j, in data space
    for j, v in enumerate(vs):
        estimate += z[:, j * n : (j + 1) * n] @ v
    lhs = float(np.sum((x_k.data - estimate) ** 2)) / x_k.s
    optimal = energy(x_k) - captured_energy(cmap, k)
    rhs = optimal + mismatch
    return {"lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}, optimal, cmap


def node_bound_checks(model: FilterModel, train: TrainingSet, measured,
                      constant_sets=()) -> tuple[list[dict], list[list[dict]]]:
    """One pass over the training nodes: each node's error decomposition and
    its bound check under each of ``constant_sets``.

    Node k's cascade map, with every node's reference as extra rows, gives the
    ``node_error_decomposition`` record (plus the node and ``rel_gap``), the
    optimal error and the bound's D_j = C(w_j, w_j), D_j^+ and C(x_j, w_j), so
    that the bound and the optimum share one D_j^+; it is freed before the
    next node's is formed. ``measured[k]``, the realized error at node k, is
    read from the model's report row there: the filter is not applied again.
    An optimum below zero by at most ``ORTHO_RTOL`` times the node reference's
    energy is rounding (the reference lies in the span of the outputs) and
    counts as zero; a larger negative one still raises. Returns the node gaps
    and each set's checks.
    """
    gaps, checks = [], [[] for _ in constant_sets]
    for k, pos in enumerate(train.s_y_indices):
        rec, optimal, cmap = _node_step(model, train, k)
        rel = rec["gap"] / rec["lhs"] if rec["lhs"] > 0 else rec["gap"]
        gaps.append({"node": pos + 1, **rec, "rel_gap": rel})
        if optimal < 0.0 and -ORTHO_RTOL * energy(train.s_x[k]) <= optimal:
            optimal = 0.0  # x_k in the span of the outputs, up to rounding
        for out, constants in zip(checks, constant_sets):
            bound = error_upper_bound(optimal, constants, cmap.d_mats, cmap.d_pinvs,
                                      [cmap.x_cross[j][j] for j in range(model.p)], model.a_mats)
            out.append({"node": pos + 1, "measured": measured[k], "optimal": optimal,
                        "bound": bound})
        del cmap  # free its work buffers before the next node's are formed
    return gaps, checks


def probe_bound_constants(xs: SignalSequence, ys: SignalSequence, model: FilterModel) -> dict:
    """Crude empirical probes of the bound constants (lower bounds, not certificates).

    ``eps_x`` (``eps_y``) is the exact covering radius of the nodes' references
    (observations) over the generated pool; ``x_energy`` is the largest
    reference energy. The rest are max observed ratios over ten evenly spread
    positions, each compared with the one sampled before it, with d the squared
    distance ``ensemble_sq_distance``; a zero denominator skips the ratio. At
    each position the inputs v_j and the outputs w_j are those of
    ``ortho.position_cascade`` and ``cascade_outputs``.

    * ``lambda_q`` (transform Lipschitz constant): d(v_j, v_j') / d(y, y').
    * ``lambda_e`` (inverse-covariance sensitivity): ||D_j^+ - D_j'^+||_F^2 /
      d(w_j, w_j'), with D_j = C(w_j, w_j) for cascade output w_j and D_j^+
      as the position's ``CascadeMap`` holds them. Each ratio is
      ``Fraction(frob_norm(D_j^+ - D_j'^+)) ** 2 / Fraction(d)`` rounded once;
      one beyond the largest float (data near the bottom of the range) raises
      ``InvalidInput``.
    * ``r_hat[k]`` (squared gain of deflation stage k): energy(w_k) / energy(v_k).
    """
    nodes = model.meta["node_positions"]
    sample = sorted(set(np.linspace(0, len(xs) - 1, 10, dtype=int).tolist()))
    lambda_e = lambda_q = 0.0
    r_hat = [0.0] * model.p
    prev = None
    for i in sample:
        vs, cmap = position_cascade(ys, model.q_specs, i)
        ws = cascade_outputs(vs, cmap)
        # no row below the last stage reads its D^+, so the map leaves it None
        d_pinvs = [*cmap.d_pinvs[:-1], pseudo_inverse(cmap.d_mats[-1])]
        if prev is not None:
            prev_i, prev_vs, prev_ws, prev_pinvs = prev
            for a, b, a_pinv, b_pinv in zip(prev_ws, ws, prev_pinvs, d_pinvs):
                base = ensemble_sq_distance(a, b)
                if base > 0.0:  # inf where the norm or the ratio passes the largest float
                    with np.errstate(over="ignore"):
                        norm = frob_norm(a_pinv - b_pinv)
                    lambda_e = max(lambda_e, _rounded(Fraction(norm) ** 2 / Fraction(base))
                                   if norm < math.inf else math.inf)
            base = ensemble_sq_distance(ys[prev_i], ys[i])
            if base > 0.0:
                for a, b in zip(prev_vs, vs):
                    lambda_q = max(lambda_q, float(np.sum((a - b) ** 2)) / ys.s / base)
        for k, (v, w) in enumerate(zip(vs, ws)):
            base = float(np.sum(v**2)) / ys.s  # energy(v)
            if base > 0.0:
                r_hat[k] = max(r_hat[k], energy(w) / base)
        prev = i, vs, ws, d_pinvs
    if lambda_e == math.inf:
        raise InvalidInput("probed bound constant lambda_e is beyond the largest float")
    return {
        "eps_x": net_radius(xs.items, nodes),
        "eps_y": net_radius(ys.items, nodes),
        "lambda_e": lambda_e,
        "lambda_q": lambda_q,
        "r_hat": r_hat,
        "x_energy": max(energy(x) for x in xs.items),
        "sample_positions": [i + 1 for i in sample],
    }


def error_upper_bound(optimal_err: float, constants: dict, d_mats, d_pinvs, xw_covs,
                      a_mats=None) -> float:
    """A-priori bound on the filter error for any member of the signal family.

    ``constants`` is the dict ``load_bound_constants`` and
    ``probe_bound_constants`` return; other keys are ignored. ``eps_x`` /
    ``eps_y`` are the covering radii of the training sets inside the reference
    and observation families, ``lambda_e`` bounds how fast the pseudo-inverse
    of a cascade-output covariance moves with the output, ``lambda_q`` how fast
    the observation transforms move with their input, the list ``r_hat`` the
    squared gain of each deflation stage, and ``x_energy`` stands in for the
    unknown target's mean squared norm. These are assumptions about the signal
    families, supplied by the caller (the probe gives crude empirical lower
    bounds); ``check_bound_constants`` checks them, raising ``InvalidInput``.
    Term k reads D_k = C(w_k, w_k), D_k^+, C(x_k, w_k) and A_k from
    ``d_mats``, ``d_pinvs``, ``xw_covs`` and ``a_mats`` (optional), as a node's
    ``CascadeMap`` and the model hold them.

    Adds to the optimal error one penalty per term for the reference-side
    covering radius (scaled by the term's energy and inverse-covariance mass)
    and one for the observation-side radius (scaled by the Lipschitz and gain
    constants), plus the free-term leakage outside each covariance range.
    Every factor is a trace or a norm:

        bound = optimal_err + sum_k (eps_x * tr D_k * E_k + eps_y * P_k) + C,
        E_k = ||(D_k^{1/2})^+||_F^2 = tr D_k^+,
        P_k = lambda_e * lambda_q * r_hat_k
              * (x_energy * E_k + ||C(x_k, w_k)||_F^2) * tr D_k,
        C   = sum_k ||A_k (I - D_k D_k^+)||_F^2 * tr D_k,

    where tr D_k = ||D_k^{1/2}||_F^2 is the energy of w_k. The sum is formed
    in exact rationals (``fractions.Fraction``) on these float factors, each
    norm taken as ``Fraction(frob_norm(.)) ** 2``, and rounded once to the
    nearest float; a bound beyond the largest float is ``inf``. A factor that
    is not finite raises ``InvalidInput`` naming its term.
    """
    if not (np.isfinite(optimal_err) and optimal_err >= 0.0):
        raise InvalidInput("optimal_err must be finite and nonnegative")
    check_bound_constants(constants, InvalidInput)
    p, r_hat = len(d_mats), constants["r_hat"]
    if not (len(r_hat) == len(d_pinvs) == len(xw_covs) == p
            and (a_mats is None or len(a_mats) == p)):
        raise InvalidInput(f"need {p} of each of r_hat, D_k^+, C(x_k, w_k) and A_k, one per term")
    c = {key: Fraction(constants[key]) for key in BOUND_CONSTANTS if key != "r_hat"}
    total = Fraction(optimal_err)
    for k, (d, d_pinv, exw) in enumerate(zip(d_mats, d_pinvs, xw_covs)):
        with np.errstate(over="ignore", invalid="ignore"):
            factors = [np.trace(d_pinv), np.trace(d), frob_norm(exw)]
            if a_mats is not None:  # the leakage ||A_k (I - D_k D_k^+)||_F
                factors.append(frob_norm(a_mats[k] @ (np.eye(len(d)) - d @ d_pinv)))
        if not np.isfinite(factors).all():
            raise InvalidInput(f"bound term {k + 1}: a trace of D_k or D_k^+, or the norm of "
                               "C(x_k, w_k) or of the leakage, is not finite")
        e_k, w_energy, exw_norm, *leak = map(Fraction, factors)
        p_k = (c["lambda_e"] * c["lambda_q"] * Fraction(r_hat[k])
               * (c["x_energy"] * e_k + exw_norm**2) * w_energy)
        total += (c["eps_x"] * e_k + sum(n**2 for n in leak)) * w_energy + c["eps_y"] * p_k
    return _rounded(total)


def _rounded(exact: Fraction) -> float:
    """``exact`` rounded once to the nearest float, ``inf`` beyond the largest."""
    try:
        return float(exact)
    except OverflowError:
        return math.inf


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
        raise InvalidInput(f"eps must be positive and finite, got {eps!r}")
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


def check_bound_constants(constants: dict, error: type, prefix: str = "") -> None:
    """The one rule for the bound constants: each of ``BOUND_CONSTANTS`` is
    present, ``r_hat`` a list of finite nonnegative numbers and the rest such
    numbers. Else raises ``error`` with ``prefix`` and a message naming the key."""
    def number(v) -> bool:  # a number, not a bool, in [0, the largest float]
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and 0.0 <= v <= sys.float_info.max)

    for key in BOUND_CONSTANTS:
        if key not in constants:
            raise error(f"{prefix}missing bound constant {key!r}")
        value = constants[key]
        if key == "r_hat":
            if not (isinstance(value, list) and all(map(number, value))):
                raise error(f"{prefix}r_hat must be a list of finite nonnegative numbers, "
                            f"got {value!r}")
        elif not number(value):
            raise error(f"{prefix}{key} must be a finite nonnegative number, got {value!r}")


def load_bound_constants(path) -> dict:
    """Read bound constants from a JSON file.

    The file holds a JSON object with the numbers ``eps_x``, ``eps_y``,
    ``lambda_e``, ``lambda_q`` and ``x_energy`` and the list ``r_hat`` (one
    number per term), as ``check_bound_constants`` requires; a bad or missing
    field raises ParseError naming it.
    """
    doc = json_object(Path(path).read_bytes(), path, "bound constants")
    check_bound_constants(doc, ParseError, f"{path}: ")
    return {**{k: doc[k] for k in BOUND_CONSTANTS}, "r_hat": [float(v) for v in doc["r_hat"]]}
