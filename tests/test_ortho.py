import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iflt import (Ensemble, FilterContext, FilterModel, InvalidInput, QOperatorSpec,
                  SignalSequence, TrainingSet, apply_filter, apply_q, cascade_map, center,
                  cross_cov_residual, est_cov, fit, orthogonalize, pseudo_inverse)
from iflt import ortho
from iflt.cli import _read_windows
from iflt.ortho import position_cascade
from iflt.sigio import ManifestSequence, save_sequence
from iflt.bench import ExperimentConfig, gen_observations, gen_reference_sequence, lag_specs
from conftest import make_ensemble
from oracle import data_space_cascade


def cov_scale(vs):
    return max(np.linalg.norm(est_cov(v, v)) for v in vs)


def cascade_of(vs, xs=()):
    """``cascade_map`` of the ensembles ``vs``, extra rows ``xs``, with G from ``gram``."""
    win, rows = np.stack([v.data for v in vs]), [x.data for x in xs]
    return cascade_map(ortho.gram(win, rows), [*win, *rows], len(vs))


def test_single_signal_passthrough(rng):
    v = make_ensemble(rng, 3, 12)
    res = orthogonalize([v])
    assert np.array_equal(res.ws[0].data, v.data)
    assert res.k_mats == ((),)
    assert res.max_cross_residual == 0.0


def test_first_output_is_first_input(rng):
    vs = [make_ensemble(rng, 3, 30) for _ in range(3)]
    res = orthogonalize(vs)
    assert np.array_equal(res.ws[0].data, vs[0].data)


def test_duplicate_input_deflates_to_zero(rng):
    v = make_ensemble(rng, 3, 12)
    dup = Ensemble(v.data.copy(), centered=True)
    res = orthogonalize([v, dup])
    assert np.linalg.norm(res.ws[1].data) <= 1e-8
    assert np.all(res.ws[1].data == 0.0)
    assert res.zero_indices == (1,)


def test_already_orthogonal_pair_untouched():
    # rows of v2 are realization-orthogonal to rows of v1, so C(v2, v1) = 0
    v1 = Ensemble(np.array([[1.0, -1.0, 1.0, -1.0], [2.0, -2.0, 2.0, -2.0]]),
                  centered=True)
    v2 = Ensemble(np.array([[1.0, 1.0, -1.0, -1.0], [3.0, 3.0, -3.0, -3.0]]),
                  centered=True)
    res = orthogonalize([v1, v2])
    assert np.array_equal(res.k_mats[1][0], np.zeros((2, 2)))
    assert np.array_equal(res.ws[1].data, v2.data)


def test_cascade_orthogonality_random(rng):
    for p, m, s in ((2, 4, 40), (3, 3, 50), (5, 2, 60)):
        vs = [make_ensemble(rng, m, s) for _ in range(p)]
        res = orthogonalize(vs)
        assert res.max_cross_residual <= 1e-8 * cov_scale(vs)
        assert cross_cov_residual(res.ws) == res.max_cross_residual


def test_cascade_orthogonality_degenerate_sizes(rng):
    # realization space too small for all inputs: later outputs collapse
    vs = [make_ensemble(rng, 6, 10) for _ in range(4)]
    res = orthogonalize(vs)
    assert res.max_cross_residual <= 1e-8 * cov_scale(vs)
    assert res.zero_indices  # at least one forced zero
    for i in res.zero_indices:
        assert np.all(res.ws[i].data == 0.0)


def test_span_preservation(rng):
    vs = [make_ensemble(rng, 2, 40) for _ in range(3)]
    res = orthogonalize(vs)
    assert not res.zero_indices
    stacked_v = np.vstack([v.data for v in vs])
    stacked_w = np.vstack([w.data for w in res.ws])
    assert np.linalg.matrix_rank(stacked_w) == np.linalg.matrix_rank(stacked_v)


def test_rejects_misaligned(rng):
    with pytest.raises(InvalidInput):
        orthogonalize([make_ensemble(rng, 3, 10), make_ensemble(rng, 3, 12)])
    with pytest.raises(InvalidInput):
        orthogonalize([make_ensemble(rng, 3, 10), make_ensemble(rng, 2, 10)])
    with pytest.raises(InvalidInput):
        orthogonalize([])
    with pytest.raises(InvalidInput):
        orthogonalize([Ensemble(np.ones((2, 3)))])  # uncentered


def test_cross_cov_residual_values(rng):
    w = make_ensemble(rng, 3, 10)
    assert cross_cov_residual([w]) == 0.0
    dup = Ensemble(w.data.copy(), centered=True)
    assert cross_cov_residual([w, dup]) > 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cross_cov_residual_is_exact_at_large_scales(rng):
    # covariances near 2^660 (about 1e198), whose squared entries overflow
    ws = [make_ensemble(rng, 3, 20) for _ in range(3)]
    big = [Ensemble(np.ldexp(w.data, 330), centered=True) for w in ws]
    assert cross_cov_residual(big) == np.ldexp(cross_cov_residual(ws), 660) > 0.0


def test_cascade_map_reproduces_orthogonalize(rng):
    # full rank, a duplicated input, more inputs than the realizations hold,
    # and an input far below the others' scale: the last two snap stages
    v = make_ensemble(rng, 3, 40)
    cases = [
        [make_ensemble(rng, 3, 40) for _ in range(4)],
        [v, make_ensemble(rng, 3, 40), Ensemble(v.data.copy(), centered=True)],
        [make_ensemble(rng, 6, 10) for _ in range(4)],
        [make_ensemble(rng, 3, 40), make_ensemble(rng, 3, 40, scale=1e-14),
         make_ensemble(rng, 3, 40)],
    ]
    for vs in cases:
        ref = data_space_cascade(vs)
        res = orthogonalize(vs)
        scale = max(np.linalg.norm(x.data) for x in vs)
        assert res.zero_indices == ref.zero_indices
        assert [len(row) for row in res.k_mats] == list(range(len(vs)))
        for got, w in zip(res.ws, ref.ws, strict=True):
            assert np.linalg.norm(got.data - w.data) <= 1e-12 * scale
        for k in res.zero_indices:
            assert not any(np.any(row[k]) for row in res.k_mats[k + 1:])


def test_orthogonalize_on_well_conditioned_inputs_takes_no_svd(rng, svd_calls):
    vs = [make_ensemble(rng, 4, 60) for _ in range(5)]
    res = orthogonalize(vs)
    assert not svd_calls and not res.zero_indices
    assert res.max_cross_residual <= 1e-12 * cov_scale(vs)


def test_cascade_map_blocks_are_fits_frozen_deflation_matrices():
    cfg = ExperimentConfig(n_signals=12, m=4, n=4, s=80, p_values=(4,),
                           s_indices=(4, 6, 9, 12), seed=2)
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    nodes = (3, 5, 8, 11)
    model = fit(TrainingSet(tuple(xs[k] for k in nodes), ys, nodes), lag_specs(4))
    for j, pos in enumerate(nodes):
        cmap = cascade_of([apply_q(q, ys, pos) for q in model.q_specs])
        assert not cmap.zero_indices
        for got, want in zip(cmap.k_mats[j], model.r_mats[j], strict=True):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("n, s, p", [(16, 256, 5), (64, 1024, 8)], ids=["m16", "m64"])
def test_fit_and_apply_share_one_gram_rule(rng, n, s, p):
    # a node's cascade in fit and an apply's FilterContext both form G by
    # ortho.gram: at one position past the warm-up both see the same bits
    ys = SignalSequence(tuple(make_ensemble(rng, n, s) for _ in range(p + 1)))
    specs, i = lag_specs(p), p
    node_vs, node = position_cascade(ys, specs, i, [make_ensemble(rng, 2, s).data])
    shared = cascade_map(FilterContext(ys)._gram(*ortho.window(ys, specs, i)), node_vs, p)
    assert not node.zero_indices
    for got, want in zip(node.k_mats, shared.k_mats, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


@st.composite
def lag_sets(draw):
    """(lag specs, sequence length, position): oldest first, newest first,
    gapped or drawn in any order, at a position past the warm-up or where
    the lags clamp to the start."""
    p = draw(st.integers(1, 5))
    order = draw(st.sampled_from(("oldest", "newest", "gapped", "drawn")))
    if order == "gapped":
        lags = sorted(draw(st.sets(st.integers(0, 6), min_size=p, max_size=p)), reverse=True)
    elif order == "drawn":
        lags = draw(st.lists(st.integers(0, 4), min_size=p, max_size=p))
    else:
        lags = list(range(p - 1, -1, -1)) if order == "oldest" else list(range(p))
    length = max(lags) + 3
    specs = [QOperatorSpec.sequence_lag(d) for d in lags]
    return specs, length, draw(st.integers(0, length - 1))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lag_sets(), st.sampled_from((3, 16, 64)), st.integers(0, 2**32 - 1))
def test_node_and_apply_cascades_share_one_gram_rule(case, n, seed):
    # a node cascade (fit and the diagnostics) and an apply context form the
    # inputs' G by the one rule of ortho.gram: at one position the input
    # block of a node's G, and its K blocks, are the bits of the apply's
    specs, length, i = case
    rng = np.random.default_rng(seed)
    p = len(specs)
    ys = SignalSequence(tuple(make_ensemble(rng, n, 4 * p * n + 20) for _ in range(length)))
    x = make_ensemble(rng, 2, ys.s)
    given_g = []

    def kept_g(g, us, inputs):
        given_g.append(g.copy())  # as given, before the stages overwrite it
        return cascade_map(g, us, inputs)

    with mock.patch.object(ortho, "cascade_map", kept_g):
        node_vs, node = position_cascade(ys, specs, i, [x.data])
    g = FilterContext(ys)._gram(*ortho.window(ys, specs, i))
    assert np.array_equal(given_g[0][: p * n], g)
    applied = cascade_map(g, node_vs, p)
    for got, want in zip(node.k_mats, applied.k_mats, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(lag_sets())
def test_cli_reads_exactly_the_files_the_window_reads(case):
    specs, length, i = case
    rng = np.random.default_rng(length)
    ys = SignalSequence(tuple(make_ensemble(rng, 2, 6) for _ in range(length)))
    with tempfile.TemporaryDirectory() as tmp:
        seq = ManifestSequence(save_sequence(tmp, "obs", ys))
        _read_windows(seq, specs, [i])
        ups = ortho.window(ys, specs, i)[0]
        assert sorted(seq._read) == ups == sorted({q.position(i) for q in specs})


def test_zero_stage_mid_cascade_has_exact_zero_blocks(rng):
    v = make_ensemble(rng, 3, 40)
    vs = [v, make_ensemble(rng, 3, 40), Ensemble(v.data.copy(), centered=True),
          make_ensemble(rng, 3, 40)]
    cmap = cascade_of(vs, (make_ensemble(rng, 2, 40),))
    assert cmap.zero_indices == (2,)
    assert not np.any(cmap.d_mats[2]) and not np.any(cmap.d_pinvs[2])
    assert not np.any(cmap.k_mats[3][2])  # K column of w_2
    for block in [row[2] for row in cmap.cross[2:]] + [cmap.x_cross[0][2]]:
        assert not np.any(block)  # C(u, w_2)


def test_cascade_map_overwrites_a_given_gram_matrix(rng):
    vs = [make_ensemble(rng, 3, 30) for _ in range(3)]
    v = np.vstack([x.data for x in vs])
    g = v @ v.T / 30
    cmap = cascade_map(g, v.reshape(3, 3, 30), 3)
    # block (l, j), l < j, holds K_jl^T
    assert np.shares_memory(cmap.k_mats[2][1], g)
    assert np.array_equal(cmap.k_mats[2][1], g[3:6, 6:9].T)
    assert np.array_equal(cmap.cross[2][1], g[6:9, 3:6])


def test_cascade_map_rejects_misaligned(rng):
    # ensembles are checked where they enter (``test_rejects_misaligned``); a
    # Gram matrix of other inputs than the arrays given fails the shape check
    vs = [make_ensemble(rng, 3, 10) for _ in range(2)]
    with pytest.raises(InvalidInput, match=re.escape("expected (5, 6)")):
        cascade_map(ortho.gram(np.stack([v.data for v in vs])), [vs[0].data, vs[1].data[:2]], 2)


@pytest.mark.parametrize("rows, cols", [(6, 6), (5, 6), (12, None)],
                         ids=["no_reference_rows", "too_small", "one_dimensional"])
def test_cascade_map_rejects_a_gram_matrix_of_the_wrong_shape(rng, rows, cols):
    vs = [make_ensemble(rng, 3, 20).data for _ in range(2)]
    x = make_ensemble(rng, 2, 20).data
    g = np.zeros((rows,) if cols is None else (rows, cols))
    with pytest.raises(InvalidInput, match=re.escape(f"shape {g.shape}, expected (8, 6)")):
        cascade_map(g, [*vs, x], 2)


@pytest.fixture
def svd_calls(monkeypatch):
    """Count the SVD pseudo-inverses ``ortho`` takes: in ``cascade_map``, also
    when ``orthogonalize`` or ``interp`` calls it."""
    calls = []

    def counted(a):
        calls.append(a)
        return pseudo_inverse(a)

    monkeypatch.setattr(ortho, "pseudo_inverse", counted)
    return calls


def test_certified_inverse_matches_the_pseudo_inverse(rng, svd_calls):
    # at 64 x 64 the Cholesky factor is inverted by blocks of 32
    for n, s in [(4, 60), (64, 600)]:
        vs = [make_ensemble(rng, n, s) for _ in range(4)]
        cmap = cascade_of(vs, (make_ensemble(rng, 2, s),))
        assert not svd_calls
        for d, d_inv in zip(cmap.d_mats, cmap.d_pinvs, strict=True):
            want = pseudo_inverse(d)
            assert np.linalg.norm(d_inv - want) <= 1e-12 * np.linalg.norm(want)


def test_stage_with_a_direction_below_the_floor_is_rechecked(rng, svd_calls):
    # w_1 keeps a full-energy row and a row with 1e-8 of v_0's energy: its
    # trace is above GRAM_RECHECK_RTOL E, its smallest eigenvalue below
    v0 = make_ensemble(rng, 2, 60)
    tiny = 1e-4 * make_ensemble(rng, 1, 60).data
    v1 = center(Ensemble(np.vstack([rng.normal(size=(1, 60)), v0.data[:1] + tiny])))
    cmap = cascade_of([v0, v1], (make_ensemble(rng, 2, 60),))
    assert len(svd_calls) == 1 and not cmap.zero_indices
    w1 = data_space_cascade([v0, v1]).ws[1]
    want = pseudo_inverse(est_cov(w1, w1))
    assert np.linalg.norm(cmap.d_pinvs[1] - want) <= 1e-6 * np.linalg.norm(want)


def test_indefinite_or_singular_gram_block_is_rechecked(rng, svd_calls):
    v0, v1 = make_ensemble(rng, 2, 60), make_ensemble(rng, 2, 60)
    g = np.vstack([v0.data, v1.data]) @ np.vstack([v0.data, v1.data]).T / 60
    g[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]  # eigenvalues -1 and 3
    cmap = cascade_map(g, [v0.data, v1.data], 2)
    assert len(svd_calls) == 1
    assert np.array_equal(cmap.d_mats[0], est_cov(v0, v0))
    # two equal rows: D_0 is singular and D_0^+ keeps one direction
    twin = Ensemble(np.vstack([v0.data[:1], v0.data[:1]]), centered=True)
    cmap = cascade_of([twin, v1])
    assert len(svd_calls) == 2
    want = pseudo_inverse(est_cov(twin, twin))
    assert np.linalg.norm(cmap.d_pinvs[0] - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e-155, 1e-150])
def test_subnormal_scale_data_raises_no_warning(rng, scale):
    vs = [make_ensemble(rng, 3, 30, scale=scale) for _ in range(3)]
    cmap = cascade_of(vs, (make_ensemble(rng, 2, 30, scale=scale),))
    assert all(np.all(np.isfinite(d_pinv)) for d_pinv in cmap.d_pinvs)


def test_recomputed_apply_at_a_well_conditioned_position_takes_no_svd(rng, svd_calls):
    p = 5
    ys = SignalSequence(tuple(make_ensemble(rng, 4, 80) for _ in range(p + 3)))
    model = FilterModel(p=p, q_specs=lag_specs(p),
                        t_mats=[rng.normal(size=(3, 4)) for _ in range(p)])
    ctx = FilterContext(ys)
    for i in range(p - 1, len(ys)):
        apply_filter(model, ctx, i)
    assert not svd_calls
