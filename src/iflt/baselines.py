"""Per-pair comparators: a Wiener-type filter and exponentially weighted RLS.

Both estimate one reference ensemble from one observation ensemble. The
Wiener filter is the one-shot least-squares solution through empirical
covariances; RLS reaches a discounted version of the same solution by
streaming realization columns one at a time. ``rls_step`` is that streaming
recursion; ``rls_run`` applies a whole block of columns at once through the
weighted normal equations the recursion solves, and returns the state that
streaming every column with ``rls_step`` would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput, NumericalError
from .linalg import pseudo_inverse
from .signals import Ensemble, est_cov, finish_estimate


@dataclass(frozen=True)
class WienerModel:
    """Single coefficient matrix mapping observations to estimates."""

    t: np.ndarray


def wiener_fit(x: Ensemble, y: Ensemble) -> WienerModel:
    """Least-squares coefficient matrix ``C(x, y) C(y, y)^+``."""
    return WienerModel(est_cov(x, y) @ pseudo_inverse(est_cov(y, y)))


def wiener_apply(model: WienerModel, y: Ensemble) -> Ensemble:
    """Apply the coefficient matrix to every realization column."""
    if model.t.shape[1] != y.m:
        raise InvalidInput(
            f"filter expects {model.t.shape[1]} components, observation has {y.m}"
        )
    return finish_estimate(model.t, y.data, "from the Wiener coefficients")


@dataclass
class RlsState:
    """Streaming least-squares state.

    ``p_inv_corr`` tracks the inverse of the (discounted) observation
    correlation; it is initialized to ``delta * I`` so that large ``delta``
    means a weak prior and convergence to the plain least-squares solution.
    Single-owner mutable: one state must not be updated concurrently.
    """

    weights: np.ndarray
    p_inv_corr: np.ndarray
    forgetting: float
    delta: float
    steps: int = 0


def rls_init(n: int, m: int, forgetting: float = 0.99, delta: float = 1e4) -> RlsState:
    """Fresh state for n-component observations and m-component references."""
    if not 0.0 < forgetting <= 1.0:
        raise InvalidInput("forgetting factor must be in (0, 1]")
    if not (np.isfinite(delta) and delta > 0.0):
        raise InvalidInput("delta must be positive and finite")
    return RlsState(
        weights=np.zeros((m, n)),
        p_inv_corr=delta * np.eye(n),
        forgetting=forgetting,
        delta=delta,
    )


def rls_step(state: RlsState, y_col, x_col) -> RlsState:
    """One gain/update/downdate step on a single realization column.

    gain      g = P y / (lambda + y^T P y)
    inverse   P <- (P - g (P y)^T) / lambda, then resymmetrized
    weights   W <- W + (x - W y) g^T
    """
    y = np.asarray(y_col, dtype=float).reshape(-1)
    x = np.asarray(x_col, dtype=float).reshape(-1)
    n, m = state.p_inv_corr.shape[0], state.weights.shape[0]
    if y.shape[0] != n or x.shape[0] != m:
        raise InvalidInput(f"expected columns of length {n} and {m}")
    lam = state.forgetting
    with np.errstate(over="ignore", invalid="ignore"):  # finiteness checked below
        py = state.p_inv_corr @ y
        gain = py / (lam + y @ py)
        p_new = (state.p_inv_corr - np.outer(gain, py)) / lam
        p_new = 0.5 * (p_new + p_new.T)
        w_new = state.weights + np.outer(x - state.weights @ y, gain)
    if not (np.all(np.isfinite(p_new)) and np.all(np.isfinite(w_new))):
        raise NumericalError("RLS update produced non-finite values")
    state.p_inv_corr = p_new
    state.weights = w_new
    state.steps += 1
    return state


def rls_run(state: RlsState, x: Ensemble, y: Ensemble) -> RlsState:
    """Take every realization column of an aligned (x, y) pair as one block.

    Streaming columns r = 0..s-1 through ``rls_step`` keeps W P^{-1} and
    P^{-1} equal to discounted sums (Haykin, Adaptive Filter Theory, ch. 10),
    so with Lambda = diag(lambda^(s-1-r)) the state after the block is

        Phi = lambda^s P0^{-1} + Y Lambda Y^T,       P = Phi^{-1}
        W   = (lambda^s W0 P0^{-1} + X Lambda Y^T) Phi^{-1}

    from any starting state (W0, P0). This equals the streaming recursion up
    to rounding; ``rls_step`` remains the one-column oracle.
    """
    if x.s != y.s:
        raise InvalidInput(f"realization counts differ: {x.s} vs {y.s}")
    n, m = state.p_inv_corr.shape[0], state.weights.shape[0]
    if y.m != n or x.m != m:
        raise InvalidInput(f"expected columns of length {n} and {m}")
    lam, s = state.forgetting, y.s
    yw = y.data * lam ** np.arange(s - 1, -1, -1, dtype=float)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # finiteness checked below
            prior = np.linalg.inv(state.p_inv_corr) * lam**s
            phi = prior + yw @ y.data.T
            rhs = state.weights @ prior + x.data @ yw.T
            w_new = np.linalg.solve(phi.T, rhs.T).T
            p_new = np.linalg.inv(phi)
            p_new = 0.5 * (p_new + p_new.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("RLS block update is singular") from exc
    if not (np.all(np.isfinite(p_new)) and np.all(np.isfinite(w_new))):
        raise NumericalError("RLS update produced non-finite values")
    state.p_inv_corr = p_new
    state.weights = w_new
    state.steps += s
    return state


def rls_apply(state: RlsState, y: Ensemble) -> Ensemble:
    """Apply the current weights to every realization column."""
    if state.weights.shape[1] != y.m:
        raise InvalidInput(
            f"weights expect {state.weights.shape[1]} components, observation has {y.m}"
        )
    return finish_estimate(state.weights, y.data, "from the RLS weights")
