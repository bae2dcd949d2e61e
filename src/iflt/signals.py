"""Signal ensembles, sequences, empirical covariances, and observation transforms.

An ensemble is an m x s matrix: s realizations (columns) of an m-component
random vector. Ensembles that take part in one experiment share the
realization index, i.e. column r of every ensemble belongs to the same
outcome. Covariance operations require centered data and use the 1/s
maximum-likelihood normalization throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput

CENTER_RTOL = 1e-10
_FLOAT = np.finfo(float)

Q_KINDS = ("identity", "sequence_lag")


def is_centered(arr: np.ndarray) -> bool:
    """Whether every row mean of ``arr`` is at most ``CENTER_RTOL`` times the row RMS.

    Rows whose sum of squares leaves the normal float range are first divided
    by the power of two above their max-abs value, so the test works at any scale.
    """
    mean = np.abs(arr.sum(axis=1) / arr.shape[1])
    sq = np.einsum("ij,ij->i", arr, arr)
    if not ((sq >= _FLOAT.tiny) & (sq <= _FLOAT.max)).all():
        exp = np.frexp(np.abs(arr).max(axis=1))[1]
        arr, mean = np.ldexp(arr, -exp[:, None]), np.ldexp(mean, -exp)
        sq = np.einsum("ij,ij->i", arr, arr)
    return bool((mean <= CENTER_RTOL * np.sqrt(sq / arr.shape[1])).all())


@dataclass(frozen=True)
class Ensemble:
    """m x s realization matrix of a random m-vector.

    ``centered`` asserts that every row mean is at most ``1e-10`` times the
    row RMS; constructing an Ensemble with a false claim raises.
    """

    data: np.ndarray
    centered: bool = False

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2:
            raise InvalidInput(f"ensemble data must be 2-D, got shape {arr.shape}")
        if arr.shape[1] < 2:
            raise InvalidInput("an ensemble needs at least two realizations")
        if not np.isfinite(arr).all():
            raise InvalidInput("ensemble data contains non-finite entries")
        object.__setattr__(self, "data", arr)
        if self.centered and not is_centered(arr):
            raise InvalidInput("data marked centered but row means are too large")

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def s(self) -> int:
        return self.data.shape[1]


def _view(data: np.ndarray) -> Ensemble:
    """A centered Ensemble over checked ``data``, made without the checks."""
    e = object.__new__(Ensemble)
    object.__setattr__(e, "data", data)
    object.__setattr__(e, "centered", True)
    return e


def center_rows(arr: np.ndarray) -> np.ndarray:
    """Subtract each row's empirical mean from the finite ``arr`` in place; returns ``arr``.

    Rounding can leave a row mean above the centering tolerance, as for a
    constant row or a large offset against a small spread; the row means are
    then subtracted once more, and ``InvalidInput`` raised if one is above it
    even then.
    """
    for _ in range(2):
        arr -= arr.sum(axis=1, keepdims=True) / arr.shape[1]
        if is_centered(arr):
            return arr
    raise InvalidInput("row means are too large after centering")


def finish_estimate(t: np.ndarray, data: np.ndarray, where: str) -> Ensemble:
    """The estimate ``t @ data``, each row's mean subtracted by ``center_rows``,
    as a centered Ensemble view: the one finish of every filter's estimate.
    An estimate that is not finite (an overflowed product) raises
    ``InvalidInput`` naming ``where``, with numpy's overflow warnings off."""
    with np.errstate(over="ignore", invalid="ignore"):
        acc = t @ data
        if np.isfinite(acc).all():
            return _view(center_rows(acc))
    raise InvalidInput(f"the estimate {where} overflows: entries are not finite")


class SignalSequence:
    """Ensembles of one shape that share their outcomes, held as one (N, m, s) array.

    Made from ensembles, stacked into a new array and checked once, here:
    each position finite and centered row by row, else ``InvalidInput`` names
    it. ``seq[i]`` is a centered ``Ensemble`` view of position i, made once
    and not checked again, and ``window(lo, hi)`` the view of positions lo..hi.
    """

    __slots__ = ("data", "items")

    def __init__(self, items):
        try:  # no ensembles, or two of different shapes, cannot be stacked
            data = np.stack([e.data for e in items])
        except ValueError as exc:
            raise InvalidInput(f"a signal sequence needs ensembles of one shape: {exc}") from exc
        for pos, arr in enumerate(data):
            if not np.isfinite(arr).all():
                raise InvalidInput(f"sequence position {pos + 1} contains non-finite entries")
            if not is_centered(arr):
                raise InvalidInput(f"sequence position {pos + 1} is not centered: "
                                   "row means are too large")
        self.data, self.items = data, tuple(map(_view, data))

    @classmethod
    def _of_checked(cls, data: np.ndarray) -> "SignalSequence":
        """The sequence over an (N, m, s) float array whose every position its
        maker checked as it wrote it, as the generators and
        ``sigio.load_sequence`` do."""
        seq = object.__new__(cls)
        seq.data, seq.items = data, tuple(map(_view, data))
        return seq

    @property
    def m(self) -> int:
        return self.data.shape[1]

    @property
    def s(self) -> int:
        return self.data.shape[2]

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i: int) -> Ensemble:
        return self.items[i]

    def window(self, lo: int, hi: int) -> np.ndarray:
        return self.data[lo : hi + 1]


@dataclass(frozen=True)
class QOperatorSpec:
    """Declarative transform applied at one position of an observation sequence.

    Every transform is a lag: the observation ``lag`` positions earlier,
    clamped to the start of the sequence. ``kind`` is ``identity`` (lag 0) or
    ``sequence_lag``; both names are kept so that stored models load.
    """

    kind: str
    lag: int = 0

    def __post_init__(self):
        if self.kind not in Q_KINDS:
            raise InvalidInput(f"unknown transform kind {self.kind!r}")
        if (isinstance(self.lag, bool) or not isinstance(self.lag, (int, np.integer))
                or self.lag < 0):
            raise InvalidInput(f"lag must be a nonnegative integer, got {self.lag!r}")
        if self.kind == "identity" and self.lag:
            raise InvalidInput(f"an identity transform has lag 0, got {self.lag!r}")
        object.__setattr__(self, "lag", int(self.lag))

    @staticmethod
    def identity() -> "QOperatorSpec":
        return QOperatorSpec("identity")

    @staticmethod
    def sequence_lag(d: int) -> "QOperatorSpec":
        return QOperatorSpec("sequence_lag", lag=d)

    def position(self, i: int) -> int:
        """The sequence position ``apply_q`` reads to evaluate the transform at ``i``."""
        return max(0, i - self.lag)

    def to_dict(self) -> dict:
        if self.kind == "identity":
            return {"kind": "identity"}
        return {"kind": self.kind, "lag": self.lag}

    @staticmethod
    def from_dict(d: dict) -> "QOperatorSpec":
        if not isinstance(d, dict):
            raise InvalidInput(f"a transform spec must be an object, got {type(d).__name__}")
        return QOperatorSpec(d.get("kind", ""), lag=d.get("lag", 0))


@dataclass(frozen=True)
class TrainingSet:
    """Reference signals paired with positions in an observation sequence.

    ``s_x[k]`` is the reference for the observation at sequence position
    ``s_y_indices[k]`` (0-based, strictly increasing).
    """

    s_x: tuple[Ensemble, ...]
    s_y_context: SignalSequence
    s_y_indices: tuple[int, ...]

    def __post_init__(self):
        s_x = tuple(self.s_x)
        idx = tuple(int(i) for i in self.s_y_indices)
        object.__setattr__(self, "s_x", s_x)
        object.__setattr__(self, "s_y_indices", idx)
        if not s_x:
            raise InvalidInput("training set needs at least one reference signal")
        if len(s_x) != len(idx):
            raise InvalidInput("one sequence position is required per reference signal")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidInput("sequence positions must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= len(self.s_y_context):
            raise InvalidInput("sequence position out of range")
        s, m = self.s_y_context.s, s_x[0].m
        for pos, e in enumerate(s_x):
            if e.s != s:
                raise InvalidInput(
                    f"reference signal {pos} has {e.s} realizations, observations have {s}"
                )
            if e.m != m:
                raise InvalidInput(
                    f"reference signal {pos} has {e.m} components, reference signal 0 has {m}"
                )

    @property
    def p(self) -> int:
        return len(self.s_x)


def center(e: Ensemble) -> Ensemble:
    """``e`` with each row's empirical mean subtracted, by ``center_rows``."""
    return _view(center_rows(e.data.copy()))


def est_cov(a: Ensemble, b: Ensemble) -> np.ndarray:
    """Empirical cross-covariance ``(1/s) A B^T`` of realization-aligned ensembles.

    Both inputs must be centered (covariances of uncentered data would be
    silently biased) and have the same realization count. A product that
    overflows raises instead of returning infinite entries.
    """
    if not (a.centered and b.centered):
        raise InvalidInput("est_cov requires centered ensembles")
    if a.s != b.s:
        raise InvalidInput(f"realization counts differ: {a.s} vs {b.s}")
    with np.errstate(over="ignore", invalid="ignore"):
        c = (a.data @ b.data.T) / a.s
    if not np.all(np.isfinite(c)):
        raise InvalidInput("covariance overflows: entries are not finite")
    return c


def energy(e: Ensemble) -> float:
    """Mean squared Euclidean norm over realizations, ``(1/s) ||data||_F^2``."""
    return float(np.sum(e.data**2)) / e.s


def apply_q(q: QOperatorSpec, seq: SignalSequence, i: int) -> Ensemble:
    """Evaluate one observation transform at sequence position ``i``."""
    if not 0 <= i < len(seq):
        raise InvalidInput(f"sequence position {i + 1} out of range [1, {len(seq)}]")
    return seq[q.position(i)]
