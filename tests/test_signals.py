import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iflt import (
    Ensemble,
    InvalidInput,
    QOperatorSpec,
    SignalSequence,
    TrainingSet,
    apply_q,
    center,
    energy,
    est_cov,
)
from iflt import bench, signals
from iflt.signals import Q_KINDS
from conftest import make_ensemble


@pytest.mark.parametrize("spec", [5, "identity", None, ["identity"], True])
def test_q_spec_from_a_non_object_raises_invalid_input(spec):
    with pytest.raises(InvalidInput, match="must be an object"):
        QOperatorSpec.from_dict(spec)


def test_ensemble_validation():
    with pytest.raises(InvalidInput):
        Ensemble(np.zeros((3, 1)))  # single realization
    with pytest.raises(InvalidInput):
        Ensemble(np.array([[1.0, np.inf]]))
    with pytest.raises(InvalidInput):
        Ensemble(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(InvalidInput):
        Ensemble(np.array([[5.0, 6.0]]), centered=True)  # false claim


def test_center_zero_rows_unchanged():
    e = Ensemble(np.zeros((2, 4)))
    out = center(e)
    assert np.array_equal(out.data, e.data)
    assert out.centered


def test_center_subtracts_row_mean():
    out = center(Ensemble(np.array([[1.0, 3.0]])))
    assert np.array_equal(out.data, np.array([[-1.0, 1.0]]))


def test_center_random_rows(rng):
    out = center(Ensemble(rng.normal(loc=3.0, size=(3, 5))))
    assert np.all(np.abs(out.data.mean(axis=1)) <= 1e-12)


def test_est_cov_single_row():
    e = Ensemble(np.array([[1.0, -1.0]]), centered=True)
    assert np.array_equal(est_cov(e, e), np.array([[1.0]]))


def test_est_cov_zero_partner():
    a = Ensemble(np.array([[1.0, -1.0]]), centered=True)
    b = Ensemble(np.zeros((2, 2)), centered=True)
    assert np.array_equal(est_cov(a, b), np.zeros((1, 2)))


def test_est_cov_orthogonal_rows():
    a = Ensemble(np.array([[1.0, -1.0]]), centered=True)
    b = center(Ensemble(np.array([[1.0, 1.0]])))
    assert np.array_equal(est_cov(a, b), np.array([[0.0]]))


def test_est_cov_requires_centered():
    a = Ensemble(np.array([[1.0, 2.0]]))
    b = Ensemble(np.array([[1.0, -1.0]]), centered=True)
    with pytest.raises(InvalidInput):
        est_cov(a, b)


def test_est_cov_requires_equal_samples(rng):
    a = make_ensemble(rng, 2, 4)
    b = make_ensemble(rng, 2, 6)
    with pytest.raises(InvalidInput):
        est_cov(a, b)


def test_est_cov_overflow_raises_without_a_warning():
    big = np.tile([1e200, -1e200], 8)
    a = Ensemble(np.vstack([big, -big]), centered=True)
    b = Ensemble(np.concatenate([big[:8], -big[8:]])[None, :], centered=True)
    # (a, a) overflows to inf; in (a, b) the inf and -inf partial sums of
    # BLAS give NaN, with numpy's "invalid value" warning
    for x, y in ((a, a), (a, b)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="covariance overflows"):
                est_cov(x, y)


def test_est_cov_transpose_symmetry(rng):
    a = make_ensemble(rng, 3, 7)
    b = make_ensemble(rng, 5, 7)
    assert np.array_equal(est_cov(a, b), est_cov(b, a).T)


def test_est_cov_self_is_psd(rng):
    a = make_ensemble(rng, 4, 9)
    c = est_cov(a, a)
    scale = np.linalg.norm(c)
    assert np.linalg.norm(c - c.T) <= 1e-10 * scale
    assert np.linalg.eigvalsh(c).min() >= -1e-10 * scale


def test_energy_values(rng):
    assert energy(Ensemble(np.zeros((3, 4)), centered=True)) == 0.0
    assert energy(Ensemble(np.array([[1.0, -1.0]]), centered=True)) == 1.0
    e = make_ensemble(rng, 3, 5)
    scaled = Ensemble(2.5 * e.data, centered=True)
    assert np.isclose(energy(scaled), 2.5**2 * energy(e), rtol=1e-12)


def test_energy_matches_cov_trace(rng):
    e = make_ensemble(rng, 4, 11)
    tr = float(np.trace(est_cov(e, e)))
    assert abs(energy(e) - tr) <= 1e-10 * max(tr, 1.0)


def test_apply_q_identity(rng):
    seq = SignalSequence(tuple(make_ensemble(rng, 2, 4) for _ in range(3)))
    for i in range(3):
        assert apply_q(QOperatorSpec.identity(), seq, i) is seq[i]


def test_apply_q_lag_clamps_at_start(rng):
    seq = SignalSequence(tuple(make_ensemble(rng, 2, 4) for _ in range(3)))
    q = QOperatorSpec.sequence_lag(1)
    assert apply_q(q, seq, 0) is seq[0]  # clamped
    assert apply_q(q, seq, 2) is seq[1]


def test_apply_q_lag_zero_is_identity(rng):
    seq = SignalSequence(tuple(make_ensemble(rng, 2, 4) for _ in range(3)))
    for i in range(3):
        assert apply_q(QOperatorSpec.sequence_lag(0), seq, i) is seq[i]


def test_apply_q_index_out_of_range(rng):
    seq = SignalSequence((make_ensemble(rng, 2, 4),))
    with pytest.raises(InvalidInput):
        apply_q(QOperatorSpec.identity(), seq, 1)
    with pytest.raises(InvalidInput):
        apply_q(QOperatorSpec.identity(), seq, -1)


def test_q_spec_validation():
    with pytest.raises(InvalidInput):
        QOperatorSpec("unknown_kind")
    with pytest.raises(InvalidInput):
        QOperatorSpec.sequence_lag(-1)
    for kind in ("component_shift", "weighted_prefix_sum"):  # deleted kinds
        with pytest.raises(InvalidInput, match=f"unknown transform kind '{kind}'"):
            QOperatorSpec.from_dict({"kind": kind, "lag": 1})
    with pytest.raises(InvalidInput, match="an identity transform has lag 0"):
        QOperatorSpec.from_dict({"kind": "identity", "lag": 3})


@pytest.mark.parametrize("lag", [1.0, True, 1e300, "1", -1])
def test_q_spec_lag_must_be_a_nonnegative_int(lag):
    with pytest.raises(InvalidInput, match="lag must be a nonnegative integer"):
        QOperatorSpec("sequence_lag", lag=lag)


def test_q_spec_stores_a_numpy_lag_as_an_int():
    q = QOperatorSpec.sequence_lag(np.int64(2))
    assert type(q.lag) is int and q.to_dict() == {"kind": "sequence_lag", "lag": 2}


def test_q_spec_dict_round_trip():
    specs = [
        QOperatorSpec.identity(),
        QOperatorSpec.sequence_lag(0),
        QOperatorSpec.sequence_lag(3),
    ]
    for q in specs:
        assert QOperatorSpec.from_dict(q.to_dict()) == q
    assert QOperatorSpec.from_dict({"kind": "identity", "lag": 0}).to_dict() == {
        "kind": "identity"}


def test_sequence_shape_validation(rng):
    with pytest.raises(InvalidInput):
        SignalSequence((make_ensemble(rng, 2, 4), make_ensemble(rng, 3, 4)))
    with pytest.raises(InvalidInput):
        SignalSequence(())


def test_training_set_validation(rng):
    seq = SignalSequence(tuple(make_ensemble(rng, 2, 6) for _ in range(5)))
    xs = (make_ensemble(rng, 3, 6), make_ensemble(rng, 3, 6))
    TrainingSet(xs, seq, (1, 3))  # fine
    with pytest.raises(InvalidInput):
        TrainingSet(xs, seq, (3, 1))  # not increasing
    with pytest.raises(InvalidInput):
        TrainingSet(xs, seq, (1, 1))  # not strictly increasing
    with pytest.raises(InvalidInput):
        TrainingSet(xs, seq, (1, 9))  # out of range
    with pytest.raises(InvalidInput):
        TrainingSet((), seq, ())  # empty
    with pytest.raises(InvalidInput):
        TrainingSet((make_ensemble(rng, 3, 4),), seq, (0,))  # sample mismatch
    # references of another component count: fit used to die broadcasting
    with pytest.raises(InvalidInput, match="reference signal 1 has 2 components, "
                                           "reference signal 0 has 3"):
        TrainingSet((xs[0], make_ensemble(rng, 2, 6)), seq, (1, 3))


class RecordingSequence:
    """A sequence that records the positions read from it."""

    def __init__(self, seq):
        self.seq = seq
        self.touched = []

    def __len__(self):
        return len(self.seq)

    def __getitem__(self, i):
        self.touched.append(range(len(self.seq))[i])
        return self.seq[i]


@st.composite
def specs_and_positions(draw):
    length = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(Q_KINDS))
    q = QOperatorSpec(kind, lag=0 if kind == "identity" else draw(st.integers(0, 9)))
    return q, length, draw(st.integers(0, length - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(specs_and_positions())
def test_positions_are_exactly_what_apply_q_reads(case):
    q, length, i = case
    rng = np.random.default_rng(length)
    seq = RecordingSequence(SignalSequence(tuple(
        make_ensemble(rng, 3, 4) for _ in range(length))))
    out = apply_q(q, seq, i)
    assert seq.touched == [q.position(i)] and out is seq.seq[q.position(i)]
    assert i - q.lag <= q.position(i) <= i


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 64),
       st.floats(-170.0, 300.0), st.sampled_from((0, 3, 8, None)))
def test_center_passes_the_centering_check_at_any_scale(seed, m, s, exponent, spread_exp):
    """Rows of spread 10**-spread_exp around offsets of order one, all scaled by
    10**exponent; spread_exp None makes every row constant."""
    rng = np.random.default_rng(seed)
    spread = 0.0 if spread_exp is None else 10.0**-spread_exp
    data = 10.0**exponent * (rng.normal(size=(m, 1)) + spread * rng.normal(size=(m, s)))
    with pytest.raises(InvalidInput, match="row means"):
        Ensemble(data, centered=True)
    assert center(Ensemble(data)).centered  # center() runs the check on its result


@pytest.mark.parametrize("value", [0.1, 0.3, 7.7])
def test_center_of_a_constant_row_is_zero(value):
    out = center(Ensemble(np.full((1, 50), value)))
    assert out.centered
    assert np.all(out.data == 0.0)


@pytest.mark.parametrize("bad, message", [
    (np.nan, "sequence position 3 contains non-finite entries"),
    (np.inf, "sequence position 3 contains non-finite entries"),
    (5.0, "sequence position 3 is not centered"),
])
def test_sequence_rejects_a_bad_position_naming_it(rng, bad, message):
    items = [make_ensemble(rng, 3, 8) for _ in range(4)]
    items[2].data[1, 3] += bad  # a NaN, an infinity, or a row mean of 5/8
    with pytest.raises(InvalidInput, match=message):
        SignalSequence(items)


def test_sequence_items_are_views_of_its_one_array(rng):
    items = [make_ensemble(rng, 3, 8) for _ in range(5)]
    seq = SignalSequence(items)  # stacked into a new array
    assert (len(seq), seq.m, seq.s) == (5, 3, 8)
    assert np.array_equal(seq.data, np.stack([e.data for e in items]))
    assert not any(np.shares_memory(seq.data, e.data) for e in items)
    for i in range(5):
        assert seq[i].centered and np.shares_memory(seq[i].data, seq.data)
        assert seq[i] is seq.items[i] and np.shares_memory(seq.window(i, 4), seq.data)


def test_item_access_runs_no_check(monkeypatch):
    # a default evaluate checks each estimate once (200 interp, 100 Wiener,
    # 100 RLS rows) and nothing it reads from the sequences
    cfg = bench.ExperimentConfig()
    xs = bench.gen_reference_sequence(cfg)
    ys = bench.gen_observations(xs, cfg)
    models = bench.fit_benchmark_models(cfg, xs, ys)
    calls = []
    check = signals.is_centered  # the check of a new Ensemble and of an estimate
    monkeypatch.setattr(signals, "is_centered", lambda a: calls.append(1) or check(a))
    for _ in range(3):
        [ys[i] for i in range(len(ys))]
    assert not calls
    report = bench.evaluate(cfg, xs, ys, models)
    assert len(calls) == len(report.rows) == 400


def test_generation_peaks_at_one_array_and_one_positions_temporaries():
    # filter_large's inputs: 100 positions of 64 x 1024; each sequence is one
    # array formed in place, so neither step holds two copies of the data
    cfg = bench.ExperimentConfig(n_signals=100, m=64, n=64, s=1024, p_values=(8,),
                                 s_indices=(8, 21, 34, 47, 61, 74, 87, 100))
    position = cfg.m * cfg.s * 8
    tracemalloc.start()
    try:
        xs = bench.gen_reference_sequence(cfg)
        refs_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ys = bench.gen_observations(xs, cfg)
        obs_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert xs.data.nbytes == ys.data.nbytes == 100 * position
    # the low-rank base and drifts with their factors, and a position's sums
    assert refs_peak <= xs.data.nbytes + 8 * position
    # the noise factor of one position
    assert obs_peak <= ys.data.nbytes + 2 * position
