import json
import re
from dataclasses import replace

import numpy as np
import pytest

from iflt import (
    Ensemble,
    FilterContext,
    FilterModel,
    InvalidInput,
    ParseError,
    QOperatorSpec,
    SignalSequence,
    TrainingSet,
    apply_filter,
    apply_q,
    center,
    empirical_error,
    fit,
    load_model,
    save_model,
    wiener_apply,
    wiener_fit,
)
from iflt.bench import ExperimentConfig, gen_observations, gen_reference_sequence, lag_specs
from iflt.ortho import cascade_outputs, position_cascade
from conftest import make_ensemble
from oracle import matching_residuals, node_cascades


def recomputed_residuals(model, train):
    """The per-node matching residuals of ``model``, from the data-space cascade."""
    return matching_residuals(model.t_mats, train, node_cascades(train, model.q_specs))[0]


def single_pair_train(rng, m=3, n=3, s=24):
    x = make_ensemble(rng, m, s)
    y = make_ensemble(rng, n, s)
    seq = SignalSequence((y,))
    return x, y, TrainingSet((x,), seq, (0,))


def test_order_one_identity_q_matches_wiener(rng):
    x, y, train = single_pair_train(rng)
    model = fit(train, [QOperatorSpec.identity()])
    wiener = wiener_fit(x, y)
    assert np.max(np.abs(model.t_mats[0] - wiener.t)) <= 1e-10


def test_self_estimation_full_rank_gives_identity(rng):
    y = make_ensemble(rng, 3, 40)
    train = TrainingSet((y,), SignalSequence((y,)), (0,))
    model = fit(train, [QOperatorSpec.identity()])
    assert np.allclose(model.t_mats[0], np.eye(3), atol=1e-8)


def test_apply_identity_coefficients(rng):
    y = make_ensemble(rng, 3, 20)
    model = FilterModel(p=1, q_specs=[QOperatorSpec.identity()],
                        t_mats=[np.eye(3)], r_mats=[[]])
    out = apply_filter(model, FilterContext(SignalSequence((y,))), 0)
    assert np.allclose(out.data, y.data, atol=1e-12)


def test_apply_zero_coefficients(rng):
    y = make_ensemble(rng, 3, 20)
    model = FilterModel(p=1, q_specs=[QOperatorSpec.identity()],
                        t_mats=[np.zeros((2, 3))], r_mats=[[]])
    out = apply_filter(model, FilterContext(SignalSequence((y,))), 0)
    assert np.array_equal(out.data, np.zeros((2, 20)))


def test_apply_on_training_input_matches_wiener(rng):
    x, y, train = single_pair_train(rng)
    model = fit(train, [QOperatorSpec.identity()])
    est = apply_filter(model, FilterContext(train.s_y_context), 0)
    ref = wiener_apply(wiener_fit(x, y), y)
    assert np.max(np.abs(est.data - ref.data)) <= 1e-10


def test_apply_is_linear_at_order_one(rng):
    # Linearity only holds at order 1: for two or more terms the deflation
    # matrices are recomputed from each input's own covariances, which makes
    # the estimate a nonlinear function of the observation. That is expected
    # behaviour and deliberately not asserted against.
    x, y, train = single_pair_train(rng)
    model = fit(train, [QOperatorSpec.identity()])

    def run(e):
        return apply_filter(model, FilterContext(SignalSequence((e,))), 0).data

    y1 = make_ensemble(rng, 3, 24)
    y2 = make_ensemble(rng, 3, 24)
    combo = Ensemble(2.0 * y1.data - 0.5 * y2.data, centered=True)
    assert np.allclose(run(combo), 2.0 * run(y1) - 0.5 * run(y2), atol=1e-10)


def test_fit_residuals_small(rng):
    xs = [make_ensemble(rng, 3, 60) for _ in range(6)]
    ys = SignalSequence(tuple(make_ensemble(rng, 3, 60) for _ in range(6)))
    train = TrainingSet(tuple(xs[i] for i in (1, 3, 5)), ys, (1, 3, 5))
    model = fit(train, lag_specs(3))
    for rho, scale in zip(recomputed_residuals(model, train), model.meta["residual_scales"]):
        assert rho <= 1e-6 * scale
    assert model.meta["residual_ok"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_residuals_are_finite_where_their_squares_overflow(rng):
    # covariances near 1e300: their squared entries overflow, their norms do not
    xs = [make_ensemble(rng, 3, 60, scale=1e150) for _ in range(4)]
    ys = SignalSequence(tuple(make_ensemble(rng, 3, 60, scale=1e150) for _ in range(4)))
    model = fit(TrainingSet((xs[1], xs[3]), ys, (1, 3)), lag_specs(2))
    assert all(np.isfinite(model.meta["residuals"] + model.meta["residual_scales"]))
    assert all(scale > 1e299 for scale in model.meta["residual_scales"])
    assert model.meta["residual_ok"]


def test_residual_with_zero_coefficients(rng):
    xs = [make_ensemble(rng, 2, 30) for _ in range(2)]
    ys = SignalSequence(tuple(make_ensemble(rng, 2, 30) for _ in range(2)))
    train = TrainingSet(tuple(xs), ys, (0, 1))
    model = fit(train, lag_specs(2))
    zeroed = FilterModel(p=2, q_specs=model.q_specs,
                         t_mats=[np.zeros_like(t) for t in model.t_mats],
                         r_mats=model.r_mats)
    rhos = recomputed_residuals(zeroed, train)
    assert rhos == pytest.approx(model.meta["residual_scales"], rel=1e-12)


def test_order_one_residual_full_rank(rng):
    x, y, train = single_pair_train(rng, s=60)
    model = fit(train, [QOperatorSpec.identity()])
    (rho,) = recomputed_residuals(model, train)
    assert rho <= 1e-10 * model.meta["residual_scales"][0]


def test_degenerate_term_flagged_and_zero(rng):
    # identical transforms make the second cascade output collapse
    y = make_ensemble(rng, 3, 30)
    x1, x2 = make_ensemble(rng, 3, 30), make_ensemble(rng, 3, 30)
    seq = SignalSequence((y, Ensemble(y.data.copy(), centered=True)))
    train = TrainingSet((x1, x2), seq, (0, 1))
    model = fit(train, [QOperatorSpec.identity(), QOperatorSpec.sequence_lag(1)])
    assert model.meta["degenerate_terms"] == [1]
    assert np.array_equal(model.t_mats[1], np.zeros((3, 3)))
    assert model.meta["residual_ok"]


def test_fit_validates_arity(rng):
    x, y, train = single_pair_train(rng)
    with pytest.raises(InvalidInput):
        fit(train, [])
    with pytest.raises(InvalidInput):
        fit(train, lag_specs(2))
    with pytest.raises(InvalidInput):
        fit(train, [QOperatorSpec.identity()], a_mats=[np.zeros((3, 3))] * 2)


@pytest.mark.parametrize("a_mat, problem", [
    (np.zeros((2, 2)), r"a_mats\[0\] has shape \(2, 2\), expected \(3, 3\)"),
    (np.full((3, 3), np.nan), r"a_mats\[0\] contains non-finite entries"),
    (np.ones(3), r"a_mats\[0\] has shape \(3,\), expected \(3, 3\)"),
], ids=["wrong_shape", "nan", "vector"])
def test_fit_rejects_malformed_free_matrices(rng, a_mat, problem):
    x, y, train = single_pair_train(rng)
    with pytest.raises(InvalidInput, match=problem):
        fit(train, [QOperatorSpec.identity()], a_mats=[a_mat])


def test_free_term_changes_nothing_at_full_rank(rng):
    x, y, train = single_pair_train(rng, s=60)
    plain = fit(train, [QOperatorSpec.identity()])
    freed = fit(train, [QOperatorSpec.identity()], a_mats=[np.full((3, 3), 3.0)])
    assert np.allclose(plain.t_mats[0], freed.t_mats[0], atol=1e-9)
    assert freed.meta["residual_ok"]


def test_apply_on_a_history_shorter_than_the_lags(rng):
    # every lag clamps to the start of the sequence: an order-5 filter at
    # position 1 of a 2-position history reads what it reads at position 1 of
    # a longer one, and gives the same bits in both modes
    p, nodes = 5, (3, 4, 5, 6, 7)
    ys = SignalSequence(tuple(make_ensemble(rng, 3, 40) for _ in range(8)))
    model = fit(TrainingSet(tuple(make_ensemble(rng, 2, 40) for _ in nodes), ys, nodes),
                lag_specs(p))
    short = SignalSequence(ys.items[:2])
    for fixed_r in (False, True):
        got = apply_filter(model, FilterContext(short), 1, fixed_r=fixed_r)
        want = apply_filter(model, FilterContext(ys), 1, fixed_r=fixed_r)
        assert np.array_equal(got.data, want.data)


def test_fixed_r_order_one_identical(rng):
    x, y, train = single_pair_train(rng)
    model = fit(train, [QOperatorSpec.identity()])
    ctx = FilterContext(train.s_y_context)
    a = apply_filter(model, ctx, 0, fixed_r=False)
    b = apply_filter(model, ctx, 0, fixed_r=True)
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_fixed_r_matches_per_input_at_its_own_node(rng):
    # order 2: the frozen deflation row of term 2 comes from node 2's cascade,
    # so replaying it on node 2's own observation reproduces the per-input path
    cfg = ExperimentConfig(n_signals=10, m=4, n=4, s=60, p_values=(2,),
                           s_indices=(3, 7), seed=11)
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    nodes = (2, 6)
    train = TrainingSet(tuple(xs[k] for k in nodes), ys, nodes)
    model = fit(train, lag_specs(2))
    ctx = FilterContext(ys)
    a = apply_filter(model, ctx, nodes[1], fixed_r=False)
    b = apply_filter(model, ctx, nodes[1], fixed_r=True)
    scale = np.max(np.abs(a.data))
    assert np.max(np.abs(a.data - b.data)) <= 1e-10 * scale
    # elsewhere the two deflation styles genuinely differ
    off = 4
    a_off = apply_filter(model, ctx, off, fixed_r=False)
    b_off = apply_filter(model, ctx, off, fixed_r=True)
    assert np.max(np.abs(a_off.data - b_off.data)) > 1e-10 * scale


def test_input_cascade_keeps_the_first_input_and_zeros_snapped_stages(rng):
    # positions 0 and 1 are lag-clamped: inputs repeat, and their stages snap
    p = 3
    ys = SignalSequence(tuple(make_ensemble(rng, 3, 40) for _ in range(p + 3)))
    model = FilterModel(p=p, q_specs=lag_specs(p),
                        t_mats=[rng.normal(size=(2, 3)) for _ in range(p)])
    for i in range(len(ys)):
        ws = cascade_outputs(*position_cascade(ys, model.q_specs, i))
        assert np.array_equal(ws[0].data, apply_q(model.q_specs[0], ys, i).data), i
        # term j reads position max(0, i - (p - 1 - j)): terms 1 .. p - 1 - i
        # repeat term 0
        assert [k for k, w in enumerate(ws) if not np.any(w.data)] == list(range(1, p - i))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("growth", [10.0, 0.1])
def test_apply_of_an_overflowing_estimate_raises_invalid_input(rng, growth):
    # each observation is ``growth`` times the one before it, so K is about
    # ``growth``: at 10 Z overflows in the back-substitution, at 0.1 the sum of
    # the fixed-R Z blocks of a clamped position overflows, and the estimate
    # overflows at every position; t_mats of +-1e308 are finite, so a model
    # file holding them loads
    base = rng.normal(size=(3, 30))
    ys = SignalSequence(tuple(center(Ensemble(base * growth**k + rng.normal(size=(3, 30))))
                              for k in range(6)))
    fitted = fit(TrainingSet((make_ensemble(rng, 3, 30), make_ensemble(rng, 3, 30)), ys,
                             (2, 4)), lag_specs(2))
    for t in (1e308, -1e308):
        model = replace(fitted, t_mats=[np.full((3, 3), t)] * 2)
        for i in range(len(ys)):
            for fixed_r in (False, True):
                with pytest.raises(InvalidInput, match=re.escape(
                        f"the estimate at sequence position {i + 1} from the model's t_mats "
                        "overflows")):
                    apply_filter(model, FilterContext(ys), i, fixed_r=fixed_r)


def test_fixed_r_requires_stored_matrices(rng):
    y = make_ensemble(rng, 3, 20)
    model = FilterModel(p=1, q_specs=[QOperatorSpec.identity()],
                        t_mats=[np.eye(3)], r_mats=None)
    with pytest.raises(InvalidInput):
        apply_filter(model, FilterContext(SignalSequence((y,))), 0, fixed_r=True)


def test_model_round_trip(rng):
    cfg = ExperimentConfig(n_signals=8, m=3, n=3, s=30, p_values=(2,),
                           s_indices=(3, 7), seed=4)
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    train = TrainingSet((xs[2], xs[6]), ys, (2, 6))
    model = fit(train, lag_specs(2), a_mats=[np.zeros((3, 3)), np.eye(3)])
    back = load_model(save_model(model))
    assert back.p == model.p
    assert back.q_specs == model.q_specs
    for a, b in zip(back.t_mats, model.t_mats):
        assert np.array_equal(a, b)
    for a, b in zip(back.a_mats, model.a_mats):
        assert np.array_equal(a, b)
    for row_a, row_b in zip(back.r_mats, model.r_mats):
        for a, b in zip(row_a, row_b):
            assert np.array_equal(a, b)
    assert back.meta == json.loads(json.dumps(model.meta))


def test_model_version_mismatch(rng):
    x, y, train = single_pair_train(rng)
    model = fit(train, [QOperatorSpec.identity()])
    doc = json.loads(save_model(model))
    doc["version"] = 2
    with pytest.raises(ParseError):
        load_model(json.dumps(doc))


def test_minimal_handwritten_model_loads():
    doc = {
        "version": 1,
        "p": 1,
        "q_specs": [{"kind": "identity"}],
        "t_mats": [[[1.0, 0.0], [0.0, 1.0]]],
    }
    model = load_model(json.dumps(doc))
    assert model.p == 1
    assert model.a_mats is None
    assert model.r_mats is None
    assert np.array_equal(model.t_mats[0], np.eye(2))


def test_malformed_models_rejected():
    with pytest.raises(ParseError):
        load_model(b"{nope")
    with pytest.raises(ParseError):
        load_model(json.dumps([1, 2]))
    with pytest.raises(ParseError):
        load_model(json.dumps({"version": 1, "p": 2, "q_specs": [{"kind": "identity"}],
                               "t_mats": [[[1.0]]]}))
    with pytest.raises(ParseError):
        load_model(json.dumps({"version": 1, "p": 1, "q_specs": [{"kind": "bogus"}],
                               "t_mats": [[[1.0]]]}))


def test_benchmark_style_fit_residuals(rng):
    cfg = ExperimentConfig(n_signals=20, m=4, n=4, s=80, p_values=(3,),
                           s_indices=(4, 10, 16), seed=2)
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    nodes = (3, 9, 15)
    train = TrainingSet(tuple(xs[k] for k in nodes), ys, nodes)
    model = fit(train, lag_specs(3))
    for rho, scale in zip(recomputed_residuals(model, train),
                          model.meta["residual_scales"]):
        assert rho <= 1e-6 * scale


def test_apply_rejects_t_mats_of_other_component_count(rng):
    y = make_ensemble(rng, 4, 20)
    model = FilterModel(p=1, q_specs=[QOperatorSpec.identity()],
                        t_mats=[np.eye(3)], r_mats=[[]])
    with pytest.raises(InvalidInput, match="t_mats have 3 columns.* 4 components"):
        apply_filter(model, FilterContext(SignalSequence((y,))), 0)


def _fitted_doc(rng):
    xs = [make_ensemble(rng, 2, 30) for _ in range(2)]
    ys = SignalSequence(tuple(make_ensemble(rng, 3, 30) for _ in range(2)))
    model = fit(TrainingSet(tuple(xs), ys, (0, 1)), lag_specs(2),
                a_mats=[np.zeros((2, 3)), np.ones((2, 3))])
    return json.loads(save_model(model))


@pytest.mark.parametrize("field, value", [
    ("r_mats", [[]]),
    ("r_mats", [[], []]),
    ("r_mats", [[], [np.zeros((2, 2)).tolist()]]),
    ("r_mats", [[], [[[float("nan"), 0.0, 0.0]] * 3]]),
    ("r_mats", [[], ["abc"]]),
    ("a_mats", [np.zeros((2, 3)).tolist()]),
    ("a_mats", [np.zeros((2, 3)).tolist(), np.zeros((3, 3)).tolist()]),
    ("a_mats", [np.zeros((2, 3)).tolist(), [[float("inf"), 0.0, 0.0]] * 2]),
    ("p", "2"),
    ("p", 2.5),
    ("p", True),
    ("q_specs", 5),
    ("t_mats", "abc"),
    ("t_mats", [[[0.0, 0.0, 0.0], [0.0]], np.zeros((2, 3)).tolist()]),
    ("t_mats", [np.zeros((2, 3)).tolist(), np.zeros((2, 2)).tolist()]),
    ("a_mats", [np.zeros((2, 3)).tolist(), [[10**400, 0, 0]] * 2]),  # beyond a float
])
def test_load_model_rejects_malformed_matrix_fields(rng, field, value):
    doc = _fitted_doc(rng)
    load_model(json.dumps(doc))  # the unmodified document loads
    doc[field] = value
    with pytest.raises(ParseError, match=f"^{field}"):  # the message opens with the field
        load_model(json.dumps(doc))


@pytest.mark.parametrize("meta, field", [
    ({"node_positions": [0]}, "meta.node_positions"),
    ({"node_positions": [0, 1, 2]}, "meta.node_positions"),
    ({"node_positions": ["a", "b"]}, "meta.node_positions"),
    ({"node_positions": [1, 0]}, "meta.node_positions"),
    ({"node_positions": [0, 0]}, "meta.node_positions"),
    ({"node_positions": [-1, 0]}, "meta.node_positions"),
    ({"node_positions": [True, 2]}, "meta.node_positions"),
    ({"node_positions": [0.0, 1.0]}, "meta.node_positions"),
    ({"node_positions": "01"}, "meta.node_positions"),
    ([0, 1], "meta must be a JSON object"),
])
def test_load_model_rejects_malformed_meta(rng, meta, field):
    doc = _fitted_doc(rng)
    assert load_model(json.dumps(doc)).meta["node_positions"] == [0, 1]
    doc["meta"] = meta
    with pytest.raises(ParseError, match=field):
        load_model(json.dumps(doc))
