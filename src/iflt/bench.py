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

from .analysis import node_bound_checks, probe_bound_constants
from .baselines import rls_apply, rls_init, rls_run, wiener_apply, wiener_fit
from .exceptions import ConfigError, InvalidInput
from .interp import FilterContext, FilterModel, apply_filter, fit
from .sigio import json_object
from .signals import Ensemble, QOperatorSpec, SignalSequence, TrainingSet, center_rows, est_cov

NOISE_KINDS = ("hadamard_uniform",)
MAX_FLOAT = float(np.finfo(float).max)
# an ensemble whose Frobenius norm reaches this has an energy, and so
# covariances, that overflow
MAX_NORM = float(np.sqrt(MAX_FLOAT))
# the largest array a run may ask for: a config that would make a bigger one
# is refused before anything is allocated
MAX_ARRAY_BYTES = 4 << 30


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
    """A float, or an integer a float can hold (JSON integers have no bound)."""
    return (_is_int(value) and abs(value) <= MAX_FLOAT) or isinstance(value, (float, np.floating))


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
            raise ConfigError(f"{name}: must be a number within float range")
    if cfg.rls_delta is not None and not _is_real(cfg.rls_delta):
        raise ConfigError("rls_delta: must be a number within float range, or null")
    for name in ("low", "high"):
        if not _is_real(getattr(cfg.noise, name)):
            raise ConfigError(f"noise.{name}: must be a number within float range")
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
    if len(set(cfg.p_values)) != len(cfg.p_values):
        raise ConfigError("p_values: orders must be distinct")
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
    for name, what, count in (
        ("n_signals/m/s", "a sequence of n_signals x m x s", cfg.n_signals * cfg.m * cfg.s),
        ("base_rank", "a low-rank factor of the references", cfg.base_rank * max(cfg.m, cfg.s)),
    ):
        if 8 * count > MAX_ARRAY_BYTES:
            raise ConfigError(f"{name}: {what} would take {8 * count / (1 << 30):.3g} GiB, "
                              f"more than the {MAX_ARRAY_BYTES >> 30} GiB an array may take")
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
    return config_from_dict(json_object(Path(path).read_bytes(), f"config: {path}",
                                        "document", ConfigError))


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
    identical), formed and centered in its place in the sequence's array.
    """
    rng = np.random.default_rng([cfg.seed, 0])
    base = _lowrank(rng, cfg.m, cfg.s, cfg.base_rank)
    drift_a = _lowrank(rng, cfg.m, cfg.s, cfg.base_rank)
    drift_b = _lowrank(rng, cfg.m, cfg.s, cfg.base_rank)
    data = np.empty((cfg.n_signals, cfg.m, cfg.s))
    denom = max(cfg.n_signals - 1, 1)
    for i, out in enumerate(data):
        u = i / denom
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(base, cfg.drift_scale * (np.sin(np.pi * u) * drift_a + u * drift_b), out=out)
            if not np.linalg.norm(out) < MAX_NORM:  # also false for inf and NaN
                raise ConfigError("drift_scale: too large, reference covariances overflow")
        center_rows(out)
    return SignalSequence._of_checked(data)


def noise_matrix(cfg: ExperimentConfig, i: int) -> np.ndarray:
    """The seeded noise factor applied at sequence position ``i``."""
    rng = np.random.default_rng([cfg.seed, 1, i])
    return rng.uniform(cfg.noise.low, cfg.noise.high, size=(cfg.m, cfg.s))


def gen_observations(xs: SignalSequence, cfg: ExperimentConfig) -> SignalSequence:
    """Entrywise-corrupted observations of the reference family, re-centered,
    each formed in its place in the sequence's array."""
    data = np.empty_like(xs.data)
    for i, out in enumerate(data):
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(xs.data[i], noise_matrix(cfg, i), out=out)
            if not np.linalg.norm(out) < MAX_NORM:
                raise ConfigError("noise.low/high: too large, observation covariances overflow")
        center_rows(out)
    return SignalSequence._of_checked(data)


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
        raise InvalidInput(f"{field}: position {max(nodes) + 1} is past the end of the "
                           f"data ({length} positions)")
    return TrainingSet(tuple(xs[k] for k in nodes), ys, tuple(nodes))


def fit_benchmark_models(
    cfg: ExperimentConfig, xs: SignalSequence, ys: SignalSequence
) -> dict[str, FilterModel]:
    """One interpolation filter per requested order, keyed ``interp_p<p>``."""
    models: dict[str, FilterModel] = {}
    for p in cfg.p_values:
        train = node_training_set(xs, ys, nodes_for(cfg, p), "s_indices")
        models[f"interp_p{p}"] = fit(train, lag_specs(p), residual_tol=cfg.residual_tol)
    return models


def _row(method: str, i: int, x: Ensemble, est: Ensemble, is_node: bool = False) -> RunRow:
    with np.errstate(over="ignore"):
        err_f = float(np.sum((x.data - est.data) ** 2))
    if not np.isfinite(err_f):
        raise InvalidInput(f"{method}: the squared error at sequence position {i + 1} "
                           "is beyond the largest float")
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
    with np.errstate(over="ignore"):  # a mean beyond the floats: write_report names it
        return {
            "mean_err_e": float(np.mean(err_e)),
            "mean_err_f": float(np.mean([r.err_f for r in rows])),
            "node_mean_err_e": float(np.mean(node)) if node else None,
            "offnode_mean_err_e": float(np.mean(off)) if off else None,
            "count": len(rows),
        }


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
    errors are the filter's report rows at the nodes. Before any filter is
    applied, references and observations of unequal length or realization
    count raise ``InvalidInput`` naming both by ``names``, as does a model
    whose component counts are not theirs, naming it.
    """
    for what, same, a, b in (("positions", "length", len(xs), len(ys)),
                             ("realizations", "realization count", xs.s, ys.s)):
        if a != b:
            raise InvalidInput(f"{names[0]} has {a} {what} but {names[1]} has {b}; "
                               f"they must have the same {same}")
    for method, model in models.items():
        if (shape := model.t_mats[0].shape) != (xs.m, ys.m):
            raise InvalidInput(f"{method} maps {shape[1]} components to {shape[0]}, but "
                               f"{names[1]} has {ys.m} and {names[0]} has {xs.m}")
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


def _not_finite(value, path: str) -> str | None:
    """The path of the first number in a JSON document that is not finite."""
    if isinstance(value, float):
        return None if np.isfinite(value) else path
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, (list, tuple)) else ())
    return next((found for key, v in items if (found := _not_finite(
        v, f"{path}.{key}".lstrip(".") if isinstance(key, str) else f"{path}[{key}]"))), None)


def write_report(report: RunReport, out_dir) -> dict[str, Path]:
    """Write report.csv and summary.json; returns the paths. A number in the
    summary that is not finite raises ``InvalidInput`` naming it, before
    anything is written."""
    doc = {
        "summary": report.summary,
        "diagnostics": report.diagnostics,
        "timings": report.timings,
    }
    if (where := _not_finite(doc, "")) is not None:
        raise InvalidInput(f"summary.json: {where} is not finite")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "report.csv"
    csv_path.write_text(report_csv_text(report.rows))
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return {"report_csv": csv_path, "summary_json": summary_path}
