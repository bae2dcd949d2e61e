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
    ErrorBoundInputs,
    empirical_error,
    error_upper_bound,
    net_radius,
    node_error_decomposition,
    optimal_error,
    probe_inverse_cov_sensitivity,
    probe_stage_gains,
    probe_transform_gain,
)
from .baselines import rls_apply, rls_init, rls_run, wiener_apply, wiener_fit
from .exceptions import ConfigError
from .interp import FilterContext, FilterModel, apply_filter, fit, input_cascade
from .signals import (
    Ensemble,
    QOperatorSpec,
    SignalSequence,
    TrainingSet,
    apply_q,
    center,
    cov,
    energy,
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
    if not (np.isfinite(cfg.noise.low) and np.isfinite(cfg.noise.high)):
        raise ConfigError("noise.low/high: must be finite")
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
    if cfg.rls_delta is not None and cfg.rls_delta <= 0.0:
        raise ConfigError("rls_delta: must be positive")
    if cfg.base_rank < 1:
        raise ConfigError("base_rank: must be at least 1")
    if cfg.drift_scale < 0.0:
        raise ConfigError("drift_scale: must be nonnegative")
    if cfg.residual_tol <= 0.0:
        raise ConfigError("residual_tol: must be positive")


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
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
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
    tr = float(np.trace(cov(y, y)))
    delta = 100.0 * y.m / tr if tr > 0.0 else np.inf
    return delta if np.isfinite(delta) else 1.0


def fit_benchmark_models(
    cfg: ExperimentConfig, xs: SignalSequence, ys: SignalSequence
) -> dict[str, FilterModel]:
    """One interpolation filter per requested order, keyed ``interp_p<p>``."""
    models: dict[str, FilterModel] = {}
    for p in cfg.p_values:
        nodes = nodes_for(cfg, p)
        train = TrainingSet(tuple(xs[k] for k in nodes), ys, tuple(nodes))
        models[f"interp_p{p}"] = fit(
            train, lag_specs(p), residual_tol=cfg.residual_tol
        )
    return models


def evaluate_interp(
    model: FilterModel, xs: SignalSequence, ys: SignalSequence, method: str
) -> list[RunRow]:
    ctx = FilterContext(ys)
    nodes = set(model.meta.get("node_positions", ()))

    def one(i: int) -> RunRow:
        err_f = float(
            np.sum((xs[i].data - apply_filter(model, ctx, i).data) ** 2)
        )
        return RunRow(method, i + 1, err_f / xs.s, err_f, i in nodes)

    return [one(i) for i in range(len(xs))]


def evaluate_wiener(xs: SignalSequence, ys: SignalSequence) -> list[RunRow]:
    def one(i: int) -> RunRow:
        model = wiener_fit(xs[i], ys[i])
        err_f = float(np.sum((xs[i].data - wiener_apply(model, ys[i]).data) ** 2))
        return RunRow("wiener", i + 1, err_f / xs.s, err_f, False)

    return [one(i) for i in range(len(xs))]


def evaluate_rls(cfg: ExperimentConfig, xs: SignalSequence, ys: SignalSequence) -> list[RunRow]:
    def one(i: int) -> RunRow:
        delta = cfg.rls_delta if cfg.rls_delta is not None else default_rls_delta(ys[i])
        state = rls_init(ys.m, xs.m, cfg.rls_forgetting, delta)
        rls_run(state, xs[i], ys[i])
        err_f = float(np.sum((xs[i].data - rls_apply(state, ys[i]).data) ** 2))
        return RunRow("rls", i + 1, err_f / xs.s, err_f, False)

    return [one(i) for i in range(len(xs))]


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
    cfg: ExperimentConfig,
    xs: SignalSequence,
    ys: SignalSequence,
    model: FilterModel,
    sample_size: int = 10,
) -> dict:
    """Crude empirical probes of the bound constants (lower bounds, not certificates).

    Covering radii are exact over the generated pool; the Lipschitz/gain
    constants are max observed ratios over a deterministic index sample.
    """
    nodes = model.meta["node_positions"]
    sample = sorted(set(np.linspace(0, len(xs) - 1, sample_size, dtype=int).tolist()))
    ctx = FilterContext(ys)
    cascades = [input_cascade(model, ctx, i) for i in sample]
    v_lists = [
        [apply_q(q, ys, i) for q in model.q_specs] for i in sample
    ]
    pairs = [(a, b) for a, b in zip(sample, sample[1:])]
    return {
        "eps_x": net_radius(xs.items, nodes),
        "eps_y": net_radius(ys.items, nodes),
        "lambda_e": probe_inverse_cov_sensitivity(zip(cascades, cascades[1:])),
        "lambda_q": probe_transform_gain(model.q_specs, ys, pairs),
        "r_hat": probe_stage_gains(v_lists, cascades),
        "x_energy": max(energy(x) for x in xs.items),
        "sample_positions": [i + 1 for i in sample],
    }


def node_bound_checks(
    model: FilterModel,
    train: TrainingSet,
    xs: SignalSequence,
    ys: SignalSequence,
    constants: dict,
    scale: float = 1.0,
) -> list[dict]:
    """Evaluate bound vs realized error at every training node.

    ``scale`` inflates the probed Lipschitz/gain constants (they are lower
    bounds on the true ones).
    """
    ctx = FilterContext(ys)
    out = []
    for k, pos in enumerate(train.s_y_indices):
        ws = input_cascade(model, ctx, pos)
        measured = empirical_error(xs[pos], apply_filter(model, ctx, pos))
        base = optimal_error(xs[pos], ws)
        inputs = ErrorBoundInputs(
            eps_x=constants["eps_x"],
            eps_y=constants["eps_y"],
            lambda_e=scale * constants["lambda_e"],
            lambda_q=scale * constants["lambda_q"],
            r_hat=tuple(scale * g for g in constants["r_hat"]),
            w_covs=tuple(cov(w, w) for w in ws),
            xw_covs=tuple(cov(train.s_x[j], ws[j]) for j in range(model.p)),
            x_energy=constants["x_energy"],
        )
        bound = error_upper_bound(base, inputs, [energy(w) for w in ws])
        out.append(
            {"node": pos + 1, "measured": measured, "optimal": base, "bound": bound}
        )
    return out


def run_benchmark(cfg: ExperimentConfig, bound_constants: dict | None = None) -> RunReport:
    """Generate data, fit all methods, evaluate everywhere, and summarize.

    ``bound_constants``, when given (keys as in
    ``analysis.load_bound_constants``), is used to evaluate the per-node error
    bound for every fitted filter; otherwise bounds are only computed when
    ``cfg.probe_constants`` asks for empirically probed constants.
    """
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
    rows: list[RunRow] = []
    for method, model in models.items():
        rows.extend(evaluate_interp(model, xs, ys, method))
    if cfg.include_baselines:
        rows.extend(evaluate_wiener(xs, ys))
        rows.extend(evaluate_rls(cfg, xs, ys))
    timings["evaluate"] = time.perf_counter() - t0

    diagnostics: dict = {}
    for method, model in models.items():
        nodes = nodes_for(cfg, model.p)
        train = TrainingSet(tuple(xs[k] for k in nodes), ys, tuple(nodes))
        gaps = []
        for k in range(model.p):
            rec = node_error_decomposition(model, train, k)
            rel = rec["gap"] / rec["lhs"] if rec["lhs"] > 0 else rec["gap"]
            gaps.append(
                {"node": nodes[k] + 1, "lhs": rec["lhs"], "rhs": rec["rhs"],
                 "gap": rec["gap"], "rel_gap": rel}
            )
        diagnostics[method] = {
            "residuals": model.meta["residuals"],
            "residual_scales": model.meta["residual_scales"],
            "residual_ok": model.meta["residual_ok"],
            "degenerate_terms": model.meta["degenerate_terms"],
            "node_gaps": gaps,
        }
        if cfg.probe_constants:
            constants = probe_bound_constants(cfg, xs, ys, model)
            diagnostics[method]["probed_constants_lower_bounds"] = {
                key: constants[key]
                for key in ("eps_x", "eps_y", "lambda_e", "lambda_q", "r_hat", "x_energy")
            }
            diagnostics[method]["node_bound_checks"] = node_bound_checks(
                model, train, xs, ys, constants
            )
        if bound_constants is not None:
            supplied = dict(bound_constants)
            r_hat = supplied["r_hat"]
            if len(r_hat) == 1 and model.p > 1:
                supplied["r_hat"] = list(r_hat) * model.p
            elif len(r_hat) != model.p:
                raise ConfigError(
                    f"r_hat: need 1 or {model.p} stage gains, got {len(r_hat)}"
                )
            diagnostics[method]["supplied_constants"] = supplied
            diagnostics[method]["node_bound_checks_supplied"] = node_bound_checks(
                model, train, xs, ys, supplied
            )

    methods = list(dict.fromkeys(r.method for r in rows))
    summary = {
        "config": config_to_dict(cfg),
        "methods": {
            m: _method_summary([r for r in rows if r.method == m]) for m in methods
        },
    }
    timings["total"] = time.perf_counter() - t_start
    return RunReport(rows=rows, summary=summary, diagnostics=diagnostics,
                     timings=timings, models=models)


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
