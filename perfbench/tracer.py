"""Instrumentation applied to ``iflt`` from outside: a span tracer and a stopwatch.

Both work by replacing a function object with a wrapper in every ``iflt``
module that binds it. ``from .x import y`` copies the binding, so patching only
the defining module would miss calls such as ``iflt.interp.orthogonalize`` or
``iflt.ortho.pseudo_inverse``. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name). An attribute "Class.method" patches the
# class; "_COMMANDS:key" patches an entry of the CLI dispatch table.
SPAN_TARGETS = (
    ("iflt.cli", "_COMMANDS:gen", "cli.gen"),
    ("iflt.cli", "_COMMANDS:fit", "cli.fit"),
    ("iflt.cli", "_COMMANDS:apply", "cli.apply"),
    ("iflt.cli", "_COMMANDS:eval", "cli.eval"),
    ("iflt.cli", "_COMMANDS:bench", "cli.bench"),
    ("iflt.cli", "_COMMANDS:epsnet", "cli.epsnet"),
    ("iflt.cli", "_evaluate", "cli.evaluate"),
    ("iflt.bench", "gen_reference_sequence", "bench.gen_reference_sequence"),
    ("iflt.bench", "gen_observations", "bench.gen_observations"),
    ("iflt.bench", "run_benchmark", "bench.run_benchmark"),
    ("iflt.bench", "evaluate_interp", "bench.evaluate_interp"),
    ("iflt.bench", "evaluate_wiener", "bench.evaluate_wiener"),
    ("iflt.bench", "evaluate_rls", "bench.evaluate_rls"),
    ("iflt.bench", "probe_bound_constants", "bench.probe_bound_constants"),
    ("iflt.bench", "node_bound_checks", "bench.node_bound_checks"),
    ("iflt.bench", "write_report", "bench.write_report"),
    ("iflt.interp", "fit", "interp.fit"),
    ("iflt.interp", "apply_filter", "interp.apply_filter"),
    ("iflt.interp", "save_model", "interp.save_model"),
    ("iflt.interp", "load_model", "interp.load_model"),
    ("iflt.ortho", "orthogonalize", "ortho.orthogonalize"),
    ("iflt.ortho", "cross_cov_residual", "ortho.cross_cov_residual"),
    ("iflt.linalg", "pseudo_inverse", "linalg.pseudo_inverse"),
    ("iflt.linalg", "sym_sqrt", "linalg.sym_sqrt"),
    ("iflt.signals", "Ensemble.__post_init__", "signals.ensemble_check"),
    ("iflt.signals", "est_cov", "signals.est_cov"),
    ("iflt.signals", "apply_q", "signals.apply_q"),
    ("iflt.signals", "center", "signals.center"),
    ("iflt.baselines", "wiener_fit", "baselines.wiener_fit"),
    ("iflt.baselines", "wiener_apply", "baselines.wiener_apply"),
    ("iflt.baselines", "rls_run", "baselines.rls_run"),
    ("iflt.baselines", "rls_step", "baselines.rls_step"),
    ("iflt.baselines", "rls_apply", "baselines.rls_apply"),
    ("iflt.analysis", "node_error_decomposition", "analysis.node_error_decomposition"),
    ("iflt.analysis", "optimal_error", "analysis.optimal_error"),
    ("iflt.analysis", "error_upper_bound", "analysis.error_upper_bound"),
    ("iflt.analysis", "greedy_eps_net", "analysis.greedy_eps_net"),
    ("iflt.sigio", "read_ensemble_csv", "sigio.read_ensemble_csv"),
    ("iflt.sigio", "read_ensemble_bin", "sigio.read_ensemble_bin"),
    ("iflt.sigio", "write_ensemble_csv", "sigio.write_ensemble_csv"),
    ("iflt.sigio", "write_ensemble_bin", "sigio.write_ensemble_bin"),
    ("iflt.sigio", "load_sequence", "sigio.load_sequence"),
    ("iflt.sigio", "save_sequence", "sigio.save_sequence"),
)

# Counters that are not span statistics; every one is reported on every
# workload, zero where the layer does no work.
COUNTERS = (
    "ortho.stages",
    "ortho.zero_stages",
    "sigio.bytes_read",
    "sigio.bytes_written",
    "sigio.files_read",
    "interp.model_bytes",
)


def _is_fixed_r(args, kwargs) -> bool:
    return bool(kwargs.get("fixed_r", args[3] if len(args) > 3 else False))


def _patch_everywhere(owner, attr: str, make_wrapper) -> list:
    """Bind ``make_wrapper(current)`` wherever ``owner.attr``'s object is bound.

    Returns (target, key, original) triples for ``_restore``.
    """
    if ":" in attr:  # dispatch-table entry
        table_name, key = attr.split(":")
        table = getattr(owner, table_name)
        original = table[key]
        table[key] = make_wrapper(original)
        return [(table, key, original)]
    if "." in attr:  # method on a class
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, make_wrapper(original))
        return [(cls, meth, original)]
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "iflt" or name.startswith("iflt.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, original))
                setattr(module, key, wrapper)
    return undo


def _restore(undo) -> None:
    for target, key, original in reversed(undo):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)


class Stopwatch:
    """Times every ``fit`` and ``apply_filter`` call, whoever makes it.

    Costs two clock reads per call, against calls that take milliseconds, so it
    stays on while end-to-end metrics are measured. ``fits`` holds durations;
    ``applies`` holds (filter order, fixed_r, duration).
    """

    def __init__(self):
        self.fits: list[float] = []
        self.applies: list[tuple[int, bool, float]] = []
        self._undo: list = []

    def install(self) -> None:
        interp = sys.modules["iflt.interp"]
        clock = time.perf_counter

        def time_fit(fit):
            def timed_fit(*args, **kwargs):
                t0 = clock()
                try:
                    return fit(*args, **kwargs)
                finally:
                    self.fits.append(clock() - t0)

            return timed_fit

        def time_apply(apply_filter):
            def timed_apply(*args, **kwargs):
                t0 = clock()
                try:
                    return apply_filter(*args, **kwargs)
                finally:
                    self.applies.append(
                        (args[0].p, _is_fixed_r(args, kwargs), clock() - t0)
                    )

            return timed_apply

        self._undo = _patch_everywhere(interp, "fit", time_fit)
        self._undo += _patch_everywhere(interp, "apply_filter", time_apply)

    def uninstall(self) -> None:
        _restore(self._undo)
        self._undo = []

    def take(self) -> tuple[list, list]:
        """Return and clear what was recorded since the last call."""
        fits, applies = self.fits, self.applies
        self.fits, self.applies = [], []
        return fits, applies


class Tracer:
    """Spans around each layer's public functions, kept in memory.

    A span is (name, start, end, parent index); the parent is the innermost
    traced call still running when it started (-1 at the top). Counters are
    read from arguments and results at the same boundaries.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        for module_name, attr, span_name in SPAN_TARGETS:
            self._undo += _patch_everywhere(
                sys.modules[module_name], attr, lambda fn: self._wrap(fn, span_name)
            )

    def uninstall(self) -> None:
        _restore(self._undo)
        self._undo = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.update(dict.fromkeys(COUNTERS, 0))

    def _wrap(self, fn, name: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        fixed_name = name + "_fixed_r"
        is_apply = name == "interp.apply_filter"

        def wrapper(*args, **kwargs):
            label = fixed_name if is_apply and _is_fixed_r(args, kwargs) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label, t0, t1, parent)
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def summary(self) -> dict[str, float]:
        """Per-name calls, self_s and total_s, plus the counters.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for label, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (label, t0, t1, _), covered in zip(self.spans, child_time):
            entry = stats[label]
            entry[0] += 1
            entry[1] += (t1 - t0) - covered
            entry[2] += t1 - t0
        out: dict[str, float] = {}
        for label, (calls, self_s, total_s) in stats.items():
            out[f"{label}.calls"] = calls
            out[f"{label}.self_s"] = self_s
            out[f"{label}.total_s"] = total_s
        out.update(self.counters)
        stages = self.counters["ortho.stages"]
        out["ortho.live_stage_frac"] = (
            (stages - self.counters["ortho.zero_stages"]) / stages if stages else 0.0
        )
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        """Write the spans as CSV: id, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for idx, (label, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{idx},{label},{t0!r},{t1!r},{parent}\n")


def _count_stages(counters, args, result) -> None:
    counters["ortho.stages"] += len(result.ws)
    counters["ortho.zero_stages"] += len(result.zero_indices)


def _count_read(counters, args, result) -> None:
    counters["sigio.files_read"] += 1
    counters["sigio.bytes_read"] += os.path.getsize(args[0])


def _count_write(counters, args, result) -> None:
    counters["sigio.bytes_written"] += os.path.getsize(args[0])


def _count_saved_sequence(counters, args, result) -> None:
    counters["sigio.bytes_written"] += os.path.getsize(result)


def _count_model_saved(counters, args, result) -> None:
    counters["interp.model_bytes"] += len(result)


def _count_model_loaded(counters, args, result) -> None:
    counters["interp.model_bytes"] += len(args[0])


_HOOKS = {
    "ortho.orthogonalize": _count_stages,
    "sigio.read_ensemble_csv": _count_read,
    "sigio.read_ensemble_bin": _count_read,
    "sigio.write_ensemble_csv": _count_write,
    "sigio.write_ensemble_bin": _count_write,
    "sigio.load_sequence": _count_read,
    "sigio.save_sequence": _count_saved_sequence,
    "interp.save_model": _count_model_saved,
    "interp.load_model": _count_model_loaded,
}
