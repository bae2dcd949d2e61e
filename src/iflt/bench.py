"""Synthetic data generation and the end-to-end benchmark harness.

The benchmark mirrors a slowly drifting family of reference ensembles
observed through entrywise multiplicative uniform noise: it fits one
interpolation filter per requested order on a sparse set of node positions,
fits per-signal Wiener and RLS comparators, evaluates everything at every
sequence position, and collects the results into a delimited report plus a
JSON summary. Runs are deterministic given the configuration and seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    ORTHO_RTOL,
    ErrorBoundInputs,
    _decompose_node,
    ensemble_sq_distance,
    error_upper_bound,
    net_radius,
)
from .baselines import rls_apply, rls_init, rls_run, wiener_apply, wiener_fit
from .exceptions import ConfigError, InvalidInput
from .interp import FilterContext, FilterModel, _node_cascade, apply_filter, fit, input_cascade
from .linalg import frob_norm_sq, pseudo_inverse
from .signals import (
    Ensemble,
    QOperatorSpec,
    SignalSequence,
    TrainingSet,
    apply_q,
    center,
    energy,
    est_cov,
)

NOISE_KINDS = ("hadamard_uniform",)


@dataclass(frozen=True)
class NoiseSpec:
    """Entrywise multiplicative noise: observation = reference * uniform(low, high)."""

    kind: str = "hadamard_uniform"
    low: float = 0.0
    high: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a benchmark run depends on; all fields have defaults.

    ``s_indices`` are 1-based sequence positions; an order-p filter trains on
    the first p entries (sorted). Defaults keep the realization count well
    above ``max(p_values) * m`` so that no deflation stage is forced to zero
    by dimension counting, and the drift slow so that neighbouring positions
    stay close.
    """

    n_signals: int = 100
    m: int = 16
    n: int = 16
    s: int = 256
    p_values: tuple[int, ...] = (3, 5)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0
    s_indices: tuple[int, ...] = (18, 57, 83, 31, 70)
    base_rank: int = 4
    drift_scale: float = 0.1
    rls_forgetting: float = 0.99
    rls_delta: float | None = None
    residual_tol: float = 1e-6
    include_baselines: bool = True
    probe_constants: bool = False


@dataclass(frozen=True)
class RunRow:
    method: str
    signal_index: int  # 1-based sequence position
    err_e: float
    err_f: float
    is_node: bool


@dataclass
class RunReport:
    rows: list[RunRow]
    summary: dict
    diagnostics: dict
    timings: dict
    models: dict[str, FilterModel]


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


def _check_types(cfg: ExperimentConfig) -> None:
    for name in ("n_signals", "m", "n", "s", "seed", "base_rank"):
        if not _is_int(getattr(cfg, name)):
            raise ConfigError(f"{name}: must be an integer")
    for name in ("p_values", "s_indices"):
        value = getattr(cfg, name)
        if not isinstance(value, tuple) or not all(_is_int(v) for v in value):
            raise ConfigError(f"{name}: must be a list of integers")
    for name in ("drift_scale", "rls_forgetting", "residual_tol"):
        if not _is_real(getattr(cfg, name)):
            raise ConfigError(f"{name}: must be a number")
    if cfg.rls_delta is not None and not _is_real(cfg.rls_delta):
        raise ConfigError("rls_delta: must be a number or null")
    for name in ("low", "high"):
        if not _is_real(getattr(cfg.noise, name)):
            raise ConfigError(f"noise.{name}: must be a number")
    for name in ("include_baselines", "probe_constants"):
        if not isinstance(getattr(cfg, name), bool):
            raise ConfigError(f"{name}: must be true or false")


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError naming the offending field on any inconsistency."""
    _check_types(cfg)
    if cfg.seed < 0:
        raise ConfigError("seed: must be nonnegative")
    if cfg.n_signals < 1:
        raise ConfigError("n_signals: must be at least 1")
    if cfg.m < 1 or cfg.n < 1:
        raise ConfigError("m/n: component counts must be at least 1")
    if cfg.s < 2:
        raise ConfigError("s: need at least two realizations")
    if not cfg.p_values or any(p < 1 for p in cfg.p_values):
        raise ConfigError("p_values: need at least one positive order")
    if cfg.noise.kind not in NOISE_KINDS:
        raise ConfigError(f"noise.kind: unknown kind {cfg.noise.kind!r}")
    if not np.isfinite(cfg.noise.high - cfg.noise.low):  # NaN or inf if either bound is
        raise ConfigError("noise.low/high: must be finite, and so must high - low")
    if cfg.noise.low > cfg.noise.high:
        raise ConfigError("noise.low: must not exceed noise.high")
    if cfg.noise.kind == "hadamard_uniform" and cfg.m != cfg.n:
        raise ConfigError("n: entrywise noise requires m == n")
    if len(set(cfg.s_indices)) != len(cfg.s_indices):
        raise ConfigError("s_indices: positions must be distinct")
    if any(not 1 <= i <= cfg.n_signals for i in cfg.s_indices):
        raise ConfigError("s_indices: positions must lie in [1, n_signals]")
    if max(cfg.p_values) > len(cfg.s_indices):
        raise ConfigError("p_values: largest order exceeds len(s_indices)")
    if not 0.0 < cfg.rls_forgetting <= 1.0:
        raise ConfigError("rls_forgetting: must be in (0, 1]")
    if cfg.rls_delta is not None and not 0.0 < cfg.rls_delta < np.inf:
        raise ConfigError("rls_delta: must be positive and finite")
    if cfg.base_rank < 1:
        raise ConfigError("base_rank: must be at least 1")
    if not 0.0 <= cfg.drift_scale < np.inf:
        raise ConfigError("drift_scale: must be nonnegative and finite")
    if not 0.0 < cfg.residual_tol < np.inf:
        raise ConfigError("residual_tol: must be positive and finite")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = asdict(cfg)
    doc["p_values"] = list(cfg.p_values)
    doc["s_indices"] = list(cfg.s_indices)
    return doc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a (possibly partial) JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown config field")
    kwargs = dict(doc)
    if "noise" in kwargs:
        nd = kwargs["noise"]
        if not isinstance(nd, dict):
            raise ConfigError("noise: expected an object")
        bad = set(nd) - {"kind", "low", "high"}
        if bad:
            raise ConfigError(f"noise.{sorted(bad)[0]}: unknown field")
        kwargs["noise"] = NoiseSpec(**nd)
    for key in ("p_values", "s_indices"):
        if key in kwargs:
            if not isinstance(kwargs[key], list):
                raise ConfigError(f"{key}: must be a list of integers")
            kwargs[key] = tuple(kwargs[key])
    try:
        cfg = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"config: {exc}") from exc
    validate_config(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: {path} is not valid JSON") from exc
    return config_from_dict(doc)


def nodes_for(cfg: ExperimentConfig, p: int) -> list[int]:
    """0-based training node positions for an order-p filter."""
    if p > len(cfg.s_indices):
        raise ConfigError("p_values: order exceeds len(s_indices)")
    return sorted(i - 1 for i in cfg.s_indices[:p])


def lag_specs(p: int) -> list[QOperatorSpec]:
    """Trailing-window lag transforms: term j of p looks back p - j positions."""
    return [QOperatorSpec.sequence_lag(p - 1 - jj) for jj in range(p)]


def _lowrank(rng, m: int, s: int, rank: int) -> np.ndarray:
    return rng.normal(size=(m, rank)) @ rng.normal(size=(rank, s))


def gen_reference_sequence(cfg: ExperimentConfig) -> SignalSequence:
    """Seeded slowly varying reference family.

    Every position is a shared low-rank base plus a smooth, position-dependent
    low-rank drift scaled by ``drift_scale`` (zero drift makes all positions
    identical); each ensemble is centered.
    """
    rng = np.random.default_rng([cfg.seed, 0])
    base = _lowrank(rng, cfg.m, cfg.s, cfg.base_rank)
    drift_a = _lowrank(rng, cfg.m, cfg.s, cfg.base_rank)
    drift_b = _lowrank(rng, cfg.m, cfg.s, cfg.base_rank)
    items = []
    denom = max(cfg.n_signals - 1, 1)
    for i in range(cfg.n_signals):
        u = i / denom
        data = base + cfg.drift_scale * (np.sin(np.pi * u) * drift_a + u * drift_b)
        items.append(center(Ensemble(data)))
    return SignalSequence(tuple(items))


def noise_matrix(cfg: ExperimentConfig, i: int) -> np.ndarray:
    """The seeded noise factor applied at sequence position ``i``."""
    rng = np.random.default_rng([cfg.seed, 1, i])
    return rng.uniform(cfg.noise.low, cfg.noise.high, size=(cfg.m, cfg.s))


def gen_observations(xs: SignalSequence, cfg: ExperimentConfig) -> SignalSequence:
    """Entrywise-corrupted observations of the reference family, re-centered."""
    items = []
    for i, x in enumerate(xs.items):
        items.append(center(Ensemble(x.data * noise_matrix(cfg, i))))
    return SignalSequence(tuple(items))


def default_rls_delta(y: Ensemble) -> float:
    """Weak-prior inverse-correlation scale: large relative to the data's.

    All-zero observations get 1: RLS keeps zero weights for any finite delta.
    So do observations whose covariance trace is so small that the scale
    overflows: their weights stay at rounding level for any finite delta.
    """
    tr = float(np.trace(est_cov(y, y)))
    delta = 100.0 * y.m / tr if tr > 0.0 else np.inf
    return delta if np.isfinite(delta) else 1.0


def node_training_set(xs, ys, nodes, field: str) -> TrainingSet:
    """References at the 0-based ``nodes`` paired with the observations; a node
    past the end of the data raises ``InvalidInput`` naming ``field``."""
    length = min(len(xs), len(ys))
    if max(nodes) >= length:
        raise InvalidInput(
            f"{field}: position {max(nodes) + 1} is past the end of the data "
            f"({length} positions)"
        )
    return TrainingSet(tuple(xs[k] for k in nodes), ys, tuple(nodes))


def fit_benchmark_models(
    cfg: ExperimentConfig, xs: SignalSequence, ys: SignalSequence
) -> dict[str, FilterModel]:
    """One interpolation filter per requested order, keyed ``interp_p<p>``."""
    models: dict[str, FilterModel] = {}
    for p in cfg.p_values:
        train = node_training_set(xs, ys, nodes_for(cfg, p), "s_indices")
        models[f"interp_p{p}"] = fit(
            train, lag_specs(p), residual_tol=cfg.residual_tol
        )
    return models


def _row(method: str, i: int, x: Ensemble, est: Ensemble, is_node: bool = False) -> RunRow:
    err_f = float(np.sum((x.data - est.data) ** 2))
    return RunRow(method, i + 1, err_f / x.s, err_f, is_node)


def evaluate_interp(
    model: FilterModel, xs: SignalSequence, ys: SignalSequence, method: str
) -> list[RunRow]:
    ctx = FilterContext(ys)
    nodes = set(model.meta.get("node_positions", ()))
    return [_row(method, i, xs[i], apply_filter(model, ctx, i), i in nodes)
            for i in range(len(xs))]


def evaluate_wiener(xs: SignalSequence, ys: SignalSequence) -> list[RunRow]:
    return [_row("wiener", i, xs[i], wiener_apply(wiener_fit(xs[i], ys[i]), ys[i]))
            for i in range(len(xs))]


def evaluate_rls(cfg: ExperimentConfig, xs: SignalSequence, ys: SignalSequence) -> list[RunRow]:
    rows = []
    for i in range(len(xs)):
        delta = cfg.rls_delta if cfg.rls_delta is not None else default_rls_delta(ys[i])
        state = rls_init(ys.m, xs.m, cfg.rls_forgetting, delta)
        rls_run(state, xs[i], ys[i])
        rows.append(_row("rls", i, xs[i], rls_apply(state, ys[i])))
    return rows


def _method_summary(rows: list[RunRow]) -> dict:
    err_e = [r.err_e for r in rows]
    node = [r.err_e for r in rows if r.is_node]
    off = [r.err_e for r in rows if not r.is_node]
    return {
        "mean_err_e": float(np.mean(err_e)),
        "mean_err_f": float(np.mean([r.err_f for r in rows])),
        "node_mean_err_e": float(np.mean(node)) if node else None,
        "offnode_mean_err_e": float(np.mean(off)) if off else None,
        "count": len(rows),
    }


def probe_bound_constants(
    xs: SignalSequence,
    ys: SignalSequence,
    model: FilterModel,
) -> dict:
    """Crude empirical probes of the bound constants (lower bounds, not certificates).

    ``eps_x`` (``eps_y``) is the exact covering radius of the nodes' references
    (observations) over the generated pool; ``x_energy`` is the largest
    reference energy. The rest are max observed ratios over ten evenly spread
    positions, each compared with the one sampled before it, with d the squared
    distance ``ensemble_sq_distance``; a zero denominator skips the ratio.

    * ``lambda_q`` (transform Lipschitz constant): d(v_j, v_j') / d(y, y').
    * ``lambda_e`` (inverse-covariance sensitivity): ||D_j^+ - D_j'^+||_F^2 /
      d(w_j, w_j'), with D_j = C(w_j, w_j) for cascade output w_j.
    * ``r_hat[k]`` (squared gain of deflation stage k): energy(w_k) / energy(v_k).
    """
    nodes = model.meta["node_positions"]
    sample = sorted(set(np.linspace(0, len(xs) - 1, 10, dtype=int).tolist()))
    ctx = FilterContext(ys)
    lambda_e = lambda_q = 0.0
    r_hat = [0.0] * model.p
    prev = None
    for i in sample:
        vs = [apply_q(q, ys, i) for q in model.q_specs]
        ws = input_cascade(model, ctx, i)
        d_pinvs = [pseudo_inverse(est_cov(w, w)) for w in ws]
        if prev is not None:
            prev_i, prev_vs, prev_ws, prev_pinvs = prev
            for a, b, a_pinv, b_pinv in zip(prev_ws, ws, prev_pinvs, d_pinvs):
                base = ensemble_sq_distance(a, b)
                if base > 0.0:
                    lambda_e = max(lambda_e, frob_norm_sq(a_pinv - b_pinv) / base)
            base = ensemble_sq_distance(ys[prev_i], ys[i])
            if base > 0.0:
                for a, b in zip(prev_vs, vs):
                    lambda_q = max(lambda_q, ensemble_sq_distance(a, b) / base)
        for k, (v, w) in enumerate(zip(vs, ws)):
            base = energy(v)
            if base > 0.0:
                r_hat[k] = max(r_hat[k], energy(w) / base)
        prev = i, vs, ws, d_pinvs
    return {
        "eps_x": net_radius(xs.items, nodes),
        "eps_y": net_radius(ys.items, nodes),
        "lambda_e": lambda_e,
        "lambda_q": lambda_q,
        "r_hat": r_hat,
        "x_energy": max(energy(x) for x in xs.items),
        "sample_positions": [i + 1 for i in sample],
    }


def node_bound_checks(model: FilterModel, train: TrainingSet, measured, constant_sets=(),
                      scale: float = 1.0) -> tuple[list[dict], list[list[dict]]]:
    """One pass over the training nodes: each node's error decomposition and
    its bound check under each of ``constant_sets``.

    Node k's cascade map, with every node's reference as extra rows, gives the
    ``node_error_decomposition`` record (plus the node and ``rel_gap``), the
    optimal error and the bound's covariances D_j = C(w_j, w_j) and
    C(x_j, w_j); it is freed before the next node's is formed. ``measured[k]``,
    the realized error at node k, is read from the model's report row there:
    the filter is not applied again. An optimum below zero by at most
    ``ORTHO_RTOL`` times the node reference's energy is rounding (the reference
    lies in the span of the outputs) and counts as zero; a larger negative one
    still raises. ``scale`` inflates the probed Lipschitz/gain constants (they
    are lower bounds on the true ones). Returns the node gaps and each set's
    checks.
    """
    gaps, checks = [], [[] for _ in constant_sets]
    for k, pos in enumerate(train.s_y_indices):
        vs, cmap = _node_cascade(train, model.q_specs, k, train.s_x)
        rec, optimal = _decompose_node(model, train.s_x[k], k, vs, cmap)
        rel = rec["gap"] / rec["lhs"] if rec["lhs"] > 0 else rec["gap"]
        gaps.append({"node": pos + 1, **rec, "rel_gap": rel})
        if optimal < 0.0 and -ORTHO_RTOL * energy(train.s_x[k]) <= optimal:
            optimal = 0.0  # x_k in the span of the outputs, up to rounding
        for out, constants in zip(checks, constant_sets):
            bound = error_upper_bound(optimal, ErrorBoundInputs(
                eps_x=constants["eps_x"], eps_y=constants["eps_y"],
                lambda_e=scale * constants["lambda_e"], lambda_q=scale * constants["lambda_q"],
                r_hat=tuple(scale * g for g in constants["r_hat"]),
                w_covs=cmap.d_mats, xw_covs=tuple(cmap.x_cross[j][j] for j in range(model.p)),
                x_energy=constants["x_energy"]))
            out.append({"node": pos + 1, "measured": measured[k], "optimal": optimal,
                        "bound": bound})
        del vs, cmap  # free its work buffers before the next node's are formed
    return gaps, checks


def evaluate(
    cfg: ExperimentConfig,
    xs: SignalSequence,
    ys: SignalSequence,
    models: dict[str, FilterModel],
    bound_constants: dict | None = None,
    names: tuple[str, str] = ("references", "observations"),
) -> RunReport:
    """Score every filter in ``models`` (method name -> model) at every position.

    Adds the Wiener and RLS rows when ``cfg.include_baselines``. A filter that
    records its training positions (``meta["node_positions"]``) is diagnosed
    there: fit residuals, and one ``node_bound_checks`` pass for the node
    error decompositions and the per-node error bound from probed
    (``cfg.probe_constants``) and supplied ``bound_constants``, whose realized
    errors are the filter's report rows at the nodes. References and
    observations of unequal length raise ``InvalidInput`` naming both by ``names``.
    """
    if len(xs) != len(ys):
        raise InvalidInput(f"{names[0]} has {len(xs)} positions but {names[1]} has "
                           f"{len(ys)}; they must have the same length")
    model_rows = {method: evaluate_interp(model, xs, ys, method)
                  for method, model in models.items()}
    rows: list[RunRow] = [r for method_rows in model_rows.values() for r in method_rows]
    if cfg.include_baselines:
        rows.extend(evaluate_wiener(xs, ys))
        rows.extend(evaluate_rls(cfg, xs, ys))

    diagnostics: dict = {}
    for method, model in models.items():
        nodes = model.meta.get("node_positions")
        if nodes is None:
            continue
        train = node_training_set(xs, ys, nodes, f"{method} meta.node_positions")
        diag = diagnostics[method] = {
            key: model.meta.get(key)
            for key in ("residuals", "residual_scales", "residual_ok", "degenerate_terms")
        }
        constant_sets = {}  # diagnostics key of the checks -> constants
        if cfg.probe_constants:
            constant_sets["node_bound_checks"] = probed = probe_bound_constants(xs, ys, model)
            diag["probed_constants_lower_bounds"] = {
                key: value for key, value in probed.items() if key != "sample_positions"}
        if bound_constants is not None:
            r_hat = list(bound_constants["r_hat"])
            if len(r_hat) not in (1, model.p):
                raise ConfigError(f"r_hat: need 1 or {model.p} stage gains, got {len(r_hat)}")
            constant_sets["node_bound_checks_supplied"] = diag["supplied_constants"] = {
                **bound_constants, "r_hat": r_hat * (model.p // len(r_hat))}
        measured = [model_rows[method][pos].err_e for pos in train.s_y_indices]
        diag["node_gaps"], checks = node_bound_checks(
            model, train, measured, constant_sets.values())
        diag.update(zip(constant_sets, checks))

    methods = list(dict.fromkeys(r.method for r in rows))
    summary = {
        "config": config_to_dict(cfg),
        "methods": {
            m: _method_summary([r for r in rows if r.method == m]) for m in methods
        },
    }
    return RunReport(rows=rows, summary=summary, diagnostics=diagnostics,
                     timings={}, models=models)


def run_benchmark(cfg: ExperimentConfig, bound_constants: dict | None = None) -> RunReport:
    """Generate data, fit one filter per order, and ``evaluate`` them all."""
    validate_config(cfg)
    t_start = time.perf_counter()
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    timings["generate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    models = fit_benchmark_models(cfg, xs, ys)
    timings["fit"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = evaluate(cfg, xs, ys, models, bound_constants)
    timings["evaluate"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start
    report.timings = timings
    return report


def report_csv_text(rows: list[RunRow]) -> str:
    lines = ["method,signal_index,err_E,err_F,is_node"]
    for r in rows:
        lines.append(
            f"{r.method},{r.signal_index},{r.err_e!r},{r.err_f!r},{int(r.is_node)}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: RunReport, out_dir) -> dict[str, Path]:
    """Write report.csv and summary.json; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "report.csv"
    csv_path.write_text(report_csv_text(report.rows))
    summary_path = out / "summary.json"
    doc = {
        "summary": report.summary,
        "diagnostics": report.diagnostics,
        "timings": report.timings,
    }
    summary_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return {"report_csv": csv_path, "summary_json": summary_path}
