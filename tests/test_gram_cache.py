"""Property tests of the Gram band that ``FilterContext`` keeps for ``apply_filter``.

One context serves many calls. Whatever positions it served before, and in
whatever order, a call must give the bits a fresh context gives, must keep one
Gram matrix of at most p positions, and must agree with the data-space cascade
``oracle.data_space_cascade`` for any order of identities and lags. A steady-state
apply of a lag filter forms only its p new Gram blocks, its p - 1 certified
inverses and the one product of its estimate; a warm-up apply, whose lags
clamp, does no more than its distinct inputs need.
"""

import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iflt import (
    Ensemble,
    FilterContext,
    FilterModel,
    QOperatorSpec,
    SignalSequence,
    apply_filter,
    apply_q,
    center,
    ortho,
)
from iflt.bench import ExperimentConfig, gen_observations, gen_reference_sequence, lag_specs
from iflt.sigio import ManifestSequence, save_sequence
from oracle import data_space_cascade

REL_TOL = 1e-10
CACHE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def q_specs(draw):
    lag = draw(st.integers(0, 3))
    return QOperatorSpec.sequence_lag(lag) if lag or draw(st.booleans()) else (
        QOperatorSpec.identity())


def newest_first(p: int) -> list[QOperatorSpec]:
    """Lag filter whose term d looks back d positions; ``lag_specs`` runs oldest first."""
    return [QOperatorSpec.sequence_lag(d) for d in range(p)]


@st.composite
def cache_cases(draw, mixed: bool):
    """(model, observation sequence, positions to apply at, in call order).

    Lag filters only, in either term order, unless ``mixed``, which draws
    identities and lags in any order, repeated lags included, so that most
    are no lag filter. Besides drawn, reversed
    and repeated positions, a run of consecutive positions may start inside
    the lag warm-up, where lags clamp to position 0.
    """
    p = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    s = draw(st.integers(p * n + 8, p * n + 40))
    if mixed:
        specs = [draw(q_specs()) for _ in range(p)]
    else:
        specs = draw(st.sampled_from((newest_first, lag_specs)))(p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = p + 4
    items = tuple(center(Ensemble(10.0 ** rng.uniform(-1, 1) * rng.normal(size=(n, s))))
                  for _ in range(length))
    model = FilterModel(
        p=p,
        q_specs=specs,
        t_mats=[rng.normal(size=(m, n)) for _ in range(p)],
        r_mats=[[rng.normal(size=(n, n)) / n for _ in range(j)] for j in range(p)],
    )
    order = draw(st.sampled_from(("drawn", "reversed", "repeated", "consecutive")))
    if order == "reversed":
        positions = list(reversed(range(length)))
    elif order == "consecutive":
        positions = list(range(draw(st.integers(0, p)), length))
    elif order == "repeated":
        positions = [draw(st.integers(0, length - 1))] * 3
    else:
        positions = draw(st.lists(st.integers(0, length - 1), min_size=1, max_size=12))
    return model, SignalSequence(items), positions


def reference_apply(model, ys, i):
    """Sum of T_j w_j with the cascade run in data space, re-centered."""
    ws = data_space_cascade([apply_q(q, ys, i) for q in model.q_specs]).ws
    acc = sum(t @ w.data for t, w in zip(model.t_mats, ws))
    return acc - acc.mean(axis=1, keepdims=True)


def assert_shared_context_matches_fresh(model, history, fresh_history, positions):
    ctx = FilterContext(history)
    n = history.m
    for i in positions:
        shared = apply_filter(model, ctx, i).data
        fresh = apply_filter(model, FilterContext(fresh_history), i).data
        assert np.array_equal(shared, fresh), f"position {i}"
        held = ctx._band["positions"]
        assert len(held) <= model.p and ctx._band["gram"].shape == (len(held) * n,) * 2


@CACHE_SETTINGS
@given(case=cache_cases(mixed=False))
def test_any_call_order_gives_the_bits_of_a_fresh_context(case):
    model, ys, positions = case
    assert_shared_context_matches_fresh(model, ys, ys, positions)


@CACHE_SETTINGS
@given(case=cache_cases(mixed=True))
def test_mixed_transforms_share_the_cache_and_match_the_reference(case):
    model, ys, positions = case
    assert_shared_context_matches_fresh(model, ys, ys, positions)
    ctx = FilterContext(ys)
    for i in positions:
        got = apply_filter(model, ctx, i).data
        want = reference_apply(model, ys, i)
        assert np.linalg.norm(got - want) <= REL_TOL * np.linalg.norm(want)


@settings(CACHE_SETTINGS, max_examples=20)
@given(case=cache_cases(mixed=True))
def test_manifest_history_gives_the_bits_of_an_in_memory_one(case):
    model, ys, positions = case
    with tempfile.TemporaryDirectory() as tmp:
        manifest = save_sequence(tmp, "obs", ys)
        assert_shared_context_matches_fresh(model, ManifestSequence(manifest), ys,
                                            positions)


class _Observation(np.ndarray):
    """Observation data that logs each product it takes part in: the two
    positions for a product of two observations, else ``None``. A window
    (``first`` set) indexed by an integer gives the observation at that
    position."""

    def __array_finalize__(self, obj):
        self.position = getattr(obj, "position", None)
        self.first = getattr(obj, "first", None)
        self.log = getattr(obj, "log", None)

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if self.first is not None and isinstance(key, (int, np.integer)):
            out.position, out.first = self.first + key, None
        return out

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            marked = [x.position for x in inputs if isinstance(x, _Observation)]
            self.log.append(tuple(marked) if len(marked) == 2 else None)
        plain = [x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in out)
        return getattr(ufunc, method)(*plain, **kwargs)


class LoggedHistory:
    """A sequence whose windows' observations log the products they take part in."""

    def __init__(self, seq: SignalSequence, log: list):
        self.seq, self.log, self.m, self.s = seq, log, seq.m, seq.s

    def __len__(self):
        return len(self.seq)

    def __getitem__(self, i):
        return self.seq[i]

    def window(self, lo, hi):
        win = self.seq.window(lo, hi).view(_Observation)
        win.first, win.log = lo, self.log
        return win


def logged_history(rng, n: int, s: int, length: int):
    """A sequence whose observations log the products they take part in, and the log."""
    log = []
    seq = SignalSequence(tuple(center(Ensemble(rng.normal(size=(n, s))))
                               for _ in range(length)))
    return LoggedHistory(seq, log), log


def test_lag_filter_forms_only_the_new_blocks_at_the_next_position():
    rng = np.random.default_rng(5)
    p, n, s = 4, 3, 40
    ys, log = logged_history(rng, n, s, 9)
    for specs in (newest_first(p), lag_specs(p)):
        model = FilterModel(p=p, q_specs=specs,
                            t_mats=[rng.normal(size=(2, n)) for _ in range(p)])
        ctx = FilterContext(ys)
        log.clear()
        apply_filter(model, ctx, 5)
        assert sorted(pair for pair in log if pair) == [(a, b) for a in range(2, 6)
                                                      for b in range(2, a + 1)]
        log.clear()
        before = ctx._band["gram"]
        apply_filter(model, ctx, 6)
        assert sorted(pair for pair in log if pair) == [(6, b) for b in range(3, 7)]
        # the context now holds the Gram matrix of positions 3..6: the blocks
        # of positions 3..5 copied from the one it held, those of 6 new
        held, gram = ctx._band["positions"], ctx._band["gram"]
        assert held == (3, 4, 5, 6) and gram.shape == (p * n, p * n)
        assert np.array_equal(gram[: 3 * n, : 3 * n], before[n:, n:])


@pytest.mark.parametrize("specs", [newest_first, lag_specs])
def test_steady_state_apply_does_only_its_products_and_certified_inverses(
        specs, monkeypatch):
    # past the warm-up and with a context that served the previous position:
    # p Gram blocks, p - 1 Cholesky inverses, no SVD and no data-space output,
    # and the one product Z V of the estimate over the observations' window
    rng = np.random.default_rng(11)
    p, n, s = 5, 4, 80
    ys, log = logged_history(rng, n, s, 9)
    model = FilterModel(p=p, q_specs=specs(p),
                        t_mats=[rng.normal(size=(3, n)) for _ in range(p)])
    ctx = FilterContext(ys)
    apply_filter(model, ctx, 6)
    calls = counting(monkeypatch, ("_cholesky", "pseudo_inverse", "forward_substitute"))
    log.clear()
    apply_filter(model, ctx, 7)
    gram = [pair for pair in log if pair]
    assert len(gram) == p and len(set(gram)) == p
    assert len(log) - len(gram) == 1
    assert calls == {"_cholesky": p - 1}


def counting(monkeypatch, names) -> Counter:
    """Calls of the ``ortho`` functions ``names``, counted from now on."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(ortho, name, counted(name, getattr(ortho, name)))
    return calls


@pytest.mark.parametrize("specs", [newest_first, lag_specs])
def test_warm_up_apply_forms_no_data_space_output_for_a_repeated_input(specs, monkeypatch):
    # default sizes, order 5, positions 0..3 in one context: a lag clamped
    # onto an earlier input's position is a zero stage by construction, so
    # no stage is formed in data space or given an SVD pseudo-inverse, and
    # only the stages of distinct inputs that rows below read are factored
    cfg = ExperimentConfig(n_signals=8)
    ys = gen_observations(gen_reference_sequence(cfg), cfg)
    p = 5
    rng = np.random.default_rng(3)
    model = FilterModel(p=p, q_specs=specs(p),
                        t_mats=[rng.normal(size=(cfg.m, cfg.n)) for _ in range(p)])
    calls = counting(monkeypatch, ("_cholesky", "pseudo_inverse", "forward_substitute"))
    ctx, factored = FilterContext(ys), 0
    for i in range(p - 1):
        apply_filter(model, ctx, i)
        pos = [q.position(i) for q in model.q_specs]
        factored += sum(a not in pos[:k] for k, a in enumerate(pos[:-1]))
    assert calls == {"_cholesky": factored}
