"""Property tests: ``fit`` and ``node_error_decomposition`` against the data-space oracle.

Both read every covariance from the Gram recursion of ``ortho.cascade_map``;
``tests/oracle.py`` runs ``data_space_cascade`` at every node instead. The inputs
are ``test_apply_properties.filter_cases``, with the drawn position among the
training nodes and references that depend on the observations.

On the random, rank-deficient, lag-clamped and all-zero classes matrices
agree with the oracle to 1e-10 relative; the residuals, which are
rounding-level, to 1e-10 of their scales; ``lhs`` and ``rhs``, differences of
energies, to 1e-10 of the node reference's energy.

The near-deficient class has a live stage with 1e-12..1e-9 of its input's
energy. Its output is a difference of ensembles about 1e6 times larger, so a
float64 rounding of the inputs' size moves it by about 1e-10 relative, and the
coefficients built on it by more. There the oracle itself misses the
extended-precision values of ``oracle.fit_exact`` by more than 1e-10 in about
one block in ten, so the class is checked by comparing how far the library
and the oracle each are from those values.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import test_apply_properties as apply_cases
from iflt import TrainingSet, center, fit, node_error_decomposition
from iflt.signals import Ensemble, energy
from oracle import fit_exact, fit_reference, node_cascades, node_error_decomposition_reference

REL_TOL = apply_cases.REL_TOL
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)
WELL_CONDITIONED = tuple(k for k in apply_cases.KINDS if k != "near_deficient")


@st.composite
def fit_cases(draw, kinds=apply_cases.KINDS):
    """(training set, q_specs, a_mats) with the drawn position as one node."""
    model, ys, i = draw(apply_cases.filter_cases(kinds))
    p, n, m = model.p, ys.m, model.t_mats[0].shape[0]
    others = [k for k in range(len(ys)) if k != i]
    nodes = sorted([i] + draw(st.permutations(others))[: p - 1])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = tuple(center(Ensemble(rng.normal(size=(m, n)) @ ys[k].data
                               + rng.normal(size=(m, ys.s))))
               for k in nodes)
    a_mats = [rng.normal(size=(m, n)) for _ in range(p)] if draw(st.booleans()) else None
    return TrainingSet(xs, ys, tuple(nodes)), model.q_specs, a_mats


def compared(train, q_specs, a_mats):
    """(library, oracle, scale) triples of every compared quantity.

    Also checks that both flag the same degenerate terms.
    """
    model = fit(train, q_specs, a_mats=a_mats)
    want = fit_reference(train, q_specs, a_mats)
    assert model.meta["degenerate_terms"] == want["degenerate_terms"]
    out = [(got, ref, np.linalg.norm(ref)) for got, ref in
           zip(model.t_mats, want["t_mats"], strict=True)]
    for got_row, ref_row in zip(model.r_mats, want["r_mats"], strict=True):
        out += [(got, ref, np.linalg.norm(ref))
                for got, ref in zip(got_row, ref_row, strict=True)]
    out += list(zip(model.meta["residuals"], want["residuals"],
                    want["residual_scales"], strict=True))
    out.append((model.meta["residual_scales"], want["residual_scales"],
                np.linalg.norm(want["residual_scales"])))
    for k in range(train.p):
        got = node_error_decomposition(model, train, k)
        ref = node_error_decomposition_reference(model, train, k)
        out += [(got[key], ref[key], energy(train.s_x[k])) for key in ("lhs", "rhs")]
    return out


def distance(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


@PROPERTY_SETTINGS
@given(case=fit_cases(WELL_CONDITIONED))
def test_fit_and_node_decomposition_match_data_space_oracle(case):
    for got, ref, scale in compared(*case):
        assert distance(got, ref) <= REL_TOL * scale


def test_near_deficient_fit_is_as_accurate_as_the_data_space_oracle():
    # blocks (T, K), residuals and node splits, from the library and from the
    # oracle, as relative distances to the extended-precision values
    errors = {"library": [], "oracle": []}

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(case=fit_cases(("near_deficient",)))
    def collect(case):
        train, q_specs, a_mats = case
        model = fit(train, q_specs, a_mats=a_mats)
        want = fit_reference(train, q_specs, a_mats)
        exact = fit_exact(train, q_specs, a_mats,
                          [c.zero_indices for c in node_cascades(train, q_specs)])
        for name, got in (("library", {"t_mats": model.t_mats, "r_mats": model.r_mats,
                                       "residuals": model.meta["residuals"]}),
                          ("oracle", want)):
            blocks = list(zip(got["t_mats"], exact["t_mats"]))
            blocks += [pair for rows in zip(got["r_mats"], exact["r_mats"])
                       for pair in zip(*rows)]
            errors[name] += [distance(a, b) / np.linalg.norm(b)
                             for a, b in blocks if np.any(b)]
            errors[name] += [abs(a - b) / scale for a, b, scale in
                             zip(got["residuals"], exact["residuals"],
                                 want["residual_scales"]) if scale > 0]
        for k, split in enumerate(exact["decomposition"]):
            for name, got in (("library", node_error_decomposition(model, train, k)),
                              ("oracle", node_error_decomposition_reference(model, train, k))):
                errors[name] += [abs(got[key] - split[key]) / energy(train.s_x[k])
                                 for key in ("lhs", "rhs")]

    collect()
    library, oracle = (np.array(errors[name]) for name in ("library", "oracle"))
    assert np.count_nonzero(oracle > REL_TOL) > 0  # the class is below float64's reach
    assert np.count_nonzero(library > REL_TOL) <= 1.5 * np.count_nonzero(oracle > REL_TOL) + 5
    assert library.max() <= 10 * oracle.max()
