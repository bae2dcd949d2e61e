"""The error formulas under one rank rule: ``pseudo_inverse``'s cutoff.

``optimal_error`` reads D^+ = ``pseudo_inverse(D)`` for each output
covariance D, and ``error_upper_bound`` takes it with D; both take
||A (D^{1/2})^+||_F^2 as tr(A D^+ A^T). ``analysis.node_bound_checks`` reads
the same quantities from the node cascade's blocks. These tests check the
range of the optimal error at every scale, the bound checks against a
data-space recomputation, and the subnormal case that a second rank rule,
through the root of D, used to get wrong.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iflt import (
    Ensemble,
    center,
    error_upper_bound,
    optimal_error,
    orthogonalize,
    pseudo_inverse,
)
from iflt.bench import (
    ExperimentConfig,
    config_from_dict,
    fit_benchmark_models,
    gen_observations,
    gen_reference_sequence,
    node_bound_checks,
    node_training_set,
    nodes_for,
)
from iflt.cli import cli_main
from iflt.ortho import cascade_outputs, position_cascade
from iflt.signals import energy, est_cov

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)
REL_TOL = 1e-10
CLAMPED = (1, 2, 3, 40, 80)  # the first nodes' lags reach before the first position
SUBNORMAL_CFG = {"noise": {"low": 1e-160, "high": 1e-160}, "m": 4, "n": 4, "s": 48,
                 "n_signals": 12, "p_values": [2], "s_indices": [3, 7]}


@st.composite
def reference_and_outputs(draw):
    """(x, ws): ws the cascade outputs of rank-deficient inputs at a scale in
    1e-170..1e100, x an independent draw at that scale within a factor 100.

    Realizations outnumber the components of x and the inputs together, so x
    keeps a part outside the span of the outputs and its optimum is well above
    rounding.
    """
    m, p = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    s = draw(st.integers((p + 1) * m + 2, (p + 1) * m + 20))
    scale = 10.0 ** draw(st.floats(-170.0, 100.0))
    ranks = draw(st.lists(st.integers(0, m), min_size=p, max_size=p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vs = [center(Ensemble(scale * (rng.normal(size=(m, r)) @ rng.normal(size=(r, s)))))
          for r in ranks]
    if p > 1 and draw(st.booleans()):
        vs[-1] = vs[0]  # an exact repeat: its output collapses to zero
    x = center(Ensemble(scale * 10.0 ** rng.uniform(-2.0, 2.0) * rng.normal(size=(m, s))))
    return x, orthogonalize(vs).ws


@PROPERTY_SETTINGS
@given(reference_and_outputs())
def test_optimal_error_lies_between_zero_and_the_energy(case):
    x, ws = case
    assert 0.0 <= optimal_error(x, ws) <= energy(x)


def _data_space_checks(model, train, xs, ys, constants, scale):
    """(optimal, bound) per node from the data-space cascade outputs."""
    out = []
    for pos in train.s_y_indices:
        ws = cascade_outputs(*position_cascade(ys, model.q_specs, pos))
        base = optimal_error(xs[pos], ws)
        scaled = {**constants, "lambda_e": scale * constants["lambda_e"],
                  "lambda_q": scale * constants["lambda_q"],
                  "r_hat": [scale * g for g in constants["r_hat"]]}
        d_mats = [est_cov(w, w) for w in ws]
        covs = (d_mats, [pseudo_inverse(d) for d in d_mats],
                [est_cov(x, w) for x, w in zip(train.s_x, ws)])
        out.append((base, error_upper_bound(base, scaled, *covs)))
    return out


CONSTANT = st.floats(0.0, 10.0)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([ExperimentConfig().s_indices, CLAMPED]), st.integers(0, 2**16),
       st.sampled_from([3, 5]), st.sampled_from([1.0, 10.0]),
       st.fixed_dictionaries({"eps_x": CONSTANT, "eps_y": CONSTANT, "lambda_e": CONSTANT,
                              "lambda_q": CONSTANT, "x_energy": CONSTANT,
                              "r_hat": st.lists(CONSTANT, min_size=5, max_size=5)}))
def test_node_bound_checks_match_the_data_space_cascade(s_indices, seed, p, scale,
                                                        constants):
    cfg = ExperimentConfig(s_indices=s_indices, seed=seed, p_values=(p,))
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    model = fit_benchmark_models(cfg, xs, ys)[f"interp_p{p}"]
    train = node_training_set(xs, ys, nodes_for(cfg, p), "s_indices")
    constants = {**constants, "r_hat": constants["r_hat"][:p]}
    # only the optimal errors and bounds are compared, so no realized errors
    scaled = {**constants, "lambda_e": scale * constants["lambda_e"],
              "lambda_q": scale * constants["lambda_q"],
              "r_hat": [scale * g for g in constants["r_hat"]]}
    checks = node_bound_checks(model, train, [None] * p, [scaled])[1][0]
    want = _data_space_checks(model, train, xs, ys, constants, scale)
    for check, (optimal, bound) in zip(checks, want, strict=True):
        assert check["optimal"] == pytest.approx(optimal, rel=REL_TOL, abs=0.0)
        assert check["bound"] == pytest.approx(bound, rel=REL_TOL, abs=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_optimal_error_at_subnormal_covariances_is_the_energy():
    # covariances near 1e-320: D^+ is zero, so nothing is captured (the root
    # of D, near 1e-160, kept a normal-range inverse and gave -14.05)
    cfg = config_from_dict(SUBNORMAL_CFG)
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    model = fit_benchmark_models(cfg, xs, ys)["interp_p2"]
    value = optimal_error(xs[2], cascade_outputs(*position_cascade(ys, model.q_specs, 2)))
    assert value == energy(xs[2]) > 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bound_checks_at_subnormal_covariances(tmp_path, capsys):
    # through the CLI: each node's optimal error is its whole energy, and the
    # bound (which raised on the negative optimum) holds it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SUBNORMAL_CFG))
    out = tmp_path / "bench"
    assert cli_main(["bench", "--config", str(cfg), "--probe-constants",
                     "--out", str(out)]) == 0
    checks = json.loads((out / "summary.json").read_text())[
        "diagnostics"]["interp_p2"]["node_bound_checks"]
    xs = gen_reference_sequence(config_from_dict(SUBNORMAL_CFG))
    assert [c["node"] for c in checks] == [3, 7]
    for check in checks:
        assert check["optimal"] == energy(xs[check["node"] - 1]) > 0.0
        assert check["bound"] >= check["optimal"]
