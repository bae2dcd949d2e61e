import numpy as np
import pytest

from iflt import InvalidInput, NotPSD
from iflt.linalg import frob_norm, frob_norm_sq, pseudo_inverse, sym_sqrt
from oracle import penrose_residuals


def random_matrix(rng, max_dim=10):
    """Random matrix, rank-deficient half of the time."""
    r, c = rng.integers(1, max_dim + 1, size=2)
    if rng.random() < 0.5:
        k = int(rng.integers(1, min(r, c) + 1))
        return rng.normal(size=(r, k)) @ rng.normal(size=(k, c))
    return rng.normal(size=(r, c))


def test_pinv_identity():
    assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-12)


def test_pinv_diagonal_reciprocal():
    out = pseudo_inverse(np.diag([2.0, 0.0]))
    assert np.allclose(out, np.diag([0.5, 0.0]), atol=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pinv_treats_subnormal_singular_values_as_zero():
    # 1 / 1e-310 overflows; a normal singular value keeps its reciprocal
    out = pseudo_inverse(np.diag([1e-300, 1e-310]))
    assert np.allclose(out, np.diag([1e300, 0.0]), rtol=1e-15, atol=0.0)
    assert np.array_equal(pseudo_inverse(np.full((3, 2), 4e-320)), np.zeros((2, 3)))


def test_pinv_rank_one_all_ones():
    a = np.ones((2, 2))
    out = pseudo_inverse(a)
    assert np.allclose(out, np.full((2, 2), 0.25), atol=1e-12)
    assert max(penrose_residuals(a, out)) < 1e-8


def test_pinv_zero_matrix():
    assert np.array_equal(pseudo_inverse(np.zeros((3, 2))), np.zeros((2, 3)))


def test_penrose_conditions_random(rng):
    for _ in range(60):
        a = random_matrix(rng)
        assert max(penrose_residuals(a, pseudo_inverse(a))) < 1e-8


def test_pinv_involution_full_rank(rng):
    for _ in range(20):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        back = pseudo_inverse(pseudo_inverse(a))
        assert np.linalg.norm(back - a) < 1e-8 * np.linalg.norm(a)


def test_pinv_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        pseudo_inverse(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_sym_sqrt_identity():
    assert np.allclose(sym_sqrt(np.eye(2)), np.eye(2), atol=1e-12)


def test_sym_sqrt_diagonal():
    assert np.allclose(sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_sym_sqrt_squares_back():
    e = np.array([[2.0, 1.0], [1.0, 2.0]])
    s = sym_sqrt(e)
    assert np.linalg.norm(s @ s - e) < 1e-10 * np.linalg.norm(e)
    assert np.array_equal(s, s.T)


def test_sym_sqrt_properties_random(rng):
    for _ in range(30):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        b = rng.normal(size=(n, k))
        e = b @ b.T  # PSD, possibly rank-deficient
        s = sym_sqrt(e)
        scale = np.linalg.norm(e) or 1.0
        assert np.linalg.norm(s @ s - e) < 1e-10 * scale
        assert np.linalg.norm(s - s.T) < 1e-12 * scale
        assert np.linalg.eigvalsh(s).min() > -1e-10 * scale


def test_sqrt_pinv_commutes_with_cov_pinv(rng):
    # (E^{1/2})^+ agrees with E^+ E^{1/2} for symmetric PSD E
    for _ in range(20):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        b = rng.normal(size=(n, k))
        e = b @ b.T
        s = sym_sqrt(e)
        lhs = pseudo_inverse(s)
        rhs = pseudo_inverse(e) @ s
        scale = np.linalg.norm(lhs) or 1.0
        assert np.linalg.norm(lhs - rhs) < 1e-8 * scale


def test_sym_sqrt_rejects_asymmetric():
    with pytest.raises(InvalidInput):
        sym_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sym_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        sym_sqrt(np.diag([1.0, -1.0]))


def test_sym_sqrt_clips_tiny_negative():
    e = np.diag([1.0, -1e-12])
    s = sym_sqrt(e)
    assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-9)


def test_sym_sqrt_rejects_rectangular():
    with pytest.raises(InvalidInput):
        sym_sqrt(np.ones((2, 3)))


def test_frob_norm_sq_values():
    assert frob_norm_sq(np.eye(3)) == 3.0
    assert frob_norm_sq(np.zeros((4, 2))) == 0.0
    assert frob_norm_sq(np.array([[1.0, 2.0], [3.0, 4.0]])) == 30.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_frob_norm_scales_down_exactly():
    a = np.array([[3.0, 4.0]])
    assert frob_norm(a) == 5.0
    assert frob_norm(np.ldexp(a, 1000)) == np.ldexp(5.0, 1000)
    tiny = np.full((2, 2), 4e-320)  # not scaled up
    assert frob_norm(tiny) == np.linalg.norm(tiny)


def test_frob_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        frob_norm_sq(np.array([[np.inf]] * 2).reshape(1, 2))
