"""Opponent-behavior prediction.

Online least-squares regression (linear, power, quadratic) over the current
thread's offer history estimates when, if ever, the opponent's offers will
reach the agent's reservation utility. A small feed-forward network with
weighted inputs is available as a trainable next-offer-utility predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .domain import (
    DiscretizationScheme,
    NegotiationError,
    PreferenceProfile,
    discretize,
    reservation_utility,
    total_profit,  # not called here; perfbench/test_perfbench.py asserts this binding exists
)

if TYPE_CHECKING:
    from .protocol import SessionTrace

FAMILIES = ("linear", "power", "quadratic")  # simplest first
_MIN_POINTS = {"linear": 2, "power": 2, "quadratic": 3}
SSE_TIE_EPS = 1e-9


class DegenerateDataError(NegotiationError):
    """Too few or collinear observations for the requested fit."""


class RegressionDomainError(NegotiationError):
    """Data violates a family's domain (power needs t > 0 and u > 0)."""


class DataError(NegotiationError):
    """Non-finite or out-of-range training data."""


class NotTrainedError(NegotiationError):
    """Prediction was requested from an untrained network."""


@dataclass(frozen=True)
class ObservationSeries:
    """(time, utility) pairs; time strictly increasing, utility in [0, 100]."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        _check_points(self.points)

    def __len__(self) -> int:
        return len(self.points)


def _check_points(points, last_t: float | None = None) -> None:
    """Raise :class:`DataError` unless the times strictly increase, starting
    after ``last_t``, and every utility lies in [0, 100]."""
    for t, u in points:
        if last_t is not None and t <= last_t:
            raise DataError("observation times must be strictly increasing")
        if not 0 <= u <= 100:
            raise DataError("observed utilities must lie in [0, 100]")
        last_t = t


@dataclass(frozen=True)
class RegressionFit:
    """A fitted curve.  linear: u = b*t + a;  power: u = a*t^b;
    quadratic: u = a*t^2 + b*t + c."""

    family: str
    a: float
    b: float
    sse: float
    c: float = 0.0


# rows of a _Columns buffer; each family's design matrix is a run of adjacent rows
_ONE, _T, _T2, _ONE_LOG, _LOG_T, _U, _LOG_U = range(7)
_LINEAR, _QUADRATIC, _POWER = slice(_ONE, _T2), slice(_ONE, _ONE_LOG), slice(_ONE_LOG, _U)
_EPS = np.finfo(np.float64).eps


class _Columns:
    """The arrays every family's fit reads, grown by doubling as points arrive.

    Each point adds ``[1, t, t^2]`` and ``u``, and, while every point so far
    has t > 0 and u > 0 (the power family's domain), ``[1, log t]`` and
    ``log u``. Each quantity is one contiguous buffer row: numpy may take
    another code path for ``**`` and ``log`` on strided input, and the
    fits must see the floats a one-shot build of the same points gives.
    The attributes are views of the first ``n`` columns, renewed by
    :meth:`extend`; each design matrix is a transposed run of rows.
    """

    def __init__(self, points=()):
        self.n = 0
        self.positive = True
        self._buf = self._allocate(16)
        self.extend(points)

    @staticmethod
    def _allocate(capacity: int) -> np.ndarray:
        buf = np.empty((7, capacity))
        buf[[_ONE, _ONE_LOG]] = 1.0
        return buf

    def extend(self, points) -> None:
        lo, hi = self.n, self.n + len(points)
        if hi > self._buf.shape[1]:
            capacity = self._buf.shape[1]
            while capacity < hi:
                capacity *= 2
            grown = self._allocate(capacity)
            grown[:, :lo] = self._buf[:, :lo]
            self._buf = grown
        buf = self._buf
        for i, (t, u) in enumerate(points, lo):
            buf[_T, i], buf[_T2, i], buf[_U, i] = t, t * t, u  # t * t: numpy's t**2, bit for bit
            self.positive = self.positive and not (t <= 0 or u <= 0)
        if self.positive:
            np.log(buf[_T, lo:hi], out=buf[_LOG_T, lo:hi])
            np.log(buf[_U, lo:hi], out=buf[_LOG_U, lo:hi])
        self.n = hi
        self.t, self.t2, self.u = buf[_T, :hi], buf[_T2, :hi], buf[_U, :hi]
        self.log_u = buf[_LOG_U, :hi]
        self.linear, self.quadratic = buf[_LINEAR, :hi].T, buf[_QUADRATIC, :hi].T
        self.power = buf[_POWER, :hi].T

    def __len__(self) -> int:
        return self.n


def _lstsq(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The coefficients ``np.linalg.lstsq(design, target, rcond=None)`` returns.

    This is the gufunc (LAPACK ``gelsd``) that ``lstsq`` calls, with the same
    arguments, minus the wrapper's checks and copies. The caller sets
    ``np.errstate``: a solve that fails returns NaN coefficients.
    """
    rows, cols = design.shape
    coef, _, rank, _ = _umath_linalg.lstsq(
        design, target[:, None], _EPS * max(rows, cols), signature="ddd->ddid"
    )
    if rank < cols:
        raise DegenerateDataError("design matrix is singular (degenerate observation times)")
    return coef[:, 0]


def fit_regression(series: ObservationSeries, family: str) -> RegressionFit:
    """Least-squares fit of one family; SSE is always on the original scale."""
    if family not in FAMILIES:
        raise ValueError(f"unknown regression family {family!r}")
    n = len(series)
    if n < _MIN_POINTS[family]:
        raise DegenerateDataError(
            f"{family} fit needs >= {_MIN_POINTS[family]} points, got {n}"
        )
    with np.errstate(all="ignore"):
        a, b, c, sse = _fit(family, _Columns(series.points))
    return RegressionFit(family=family, a=a, b=b, c=c, sse=sse)


def _fit(family: str, cols: _Columns) -> tuple[float, float, float, float]:
    """``(a, b, c, sse)`` of one family's fit, in :class:`RegressionFit`'s terms."""
    t, u = cols.t, cols.u
    if family == "linear":
        a, b = _lstsq(cols.linear, u).tolist()
        c = 0.0
        pred = b * t + a
    elif family == "quadratic":
        c, b, a = _lstsq(cols.quadratic, u).tolist()
        pred = a * cols.t2 + b * t + c
    else:  # power, via log-log linearization
        if not cols.positive:
            raise RegressionDomainError("power fit needs all t > 0 and all u > 0")
        log_a, b = _lstsq(cols.power, cols.log_u).tolist()
        try:
            a, c = math.exp(log_a), 0.0
        except OverflowError:  # past about 709; NaN and -inf pass through to the check below
            raise DegenerateDataError(f"{family} fit produced non-finite parameters") from None
        pred = a * t**b
    if not all(map(math.isfinite, (a, b, c))):
        raise DegenerateDataError(f"{family} fit produced non-finite parameters")
    # np.add.reduce is ndarray.sum's pairwise sum, without the method's wrapper
    return a, b, c, float(np.add.reduce((pred - u) ** 2))


def select_model(series: ObservationSeries | _Columns) -> RegressionFit:
    """Fit every admissible family and keep the lowest SSE.

    Takes a series, or the columns a :class:`PredictorState` grew. Power is
    only admissible on strictly positive data. SSE ties (within 1e-9) go to
    the simpler family: linear < power < quadratic.
    """
    if len(series) < _MIN_POINTS["quadratic"]:
        raise DegenerateDataError("model selection needs at least 3 points")
    cols = series if isinstance(series, _Columns) else _Columns(series.points)
    with np.errstate(all="ignore"):  # family -> (a, b, c, sse), simplest family first
        fits = {f: _fit(f, cols) for f in FAMILIES if f != "power" or cols.positive}
    best_sse = min(sse for *_, sse in fits.values())
    family = next(f for f, (*_, sse) in fits.items() if sse <= best_sse + SSE_TIE_EPS)
    a, b, c, sse = fits[family]
    return RegressionFit(family=family, a=a, b=b, c=c, sse=sse)


def evaluate_fit(fit: RegressionFit, t: float) -> float:
    """Raw (unclamped) value of the fitted curve at t."""
    if fit.family == "linear":
        return fit.b * t + fit.a
    if fit.family == "power":
        if t == 0:
            return 0.0 if fit.b > 0 else (fit.a if fit.b == 0 else math.inf)
        return fit.a * t**fit.b
    return fit.a * t**2 + fit.b * t + fit.c


def predict_utility(fit: RegressionFit, t: float) -> float:
    """Fitted utility at t, clamped to [0, 100] (raw value via evaluate_fit)."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t:g}")
    return min(max(evaluate_fit(fit, t), 0.0), 100.0)


def estimate_crossing(
    fit: RegressionFit, own_reservation_utility: float, own_deadline: float
) -> float | None:
    """First time in [0, deadline] the fitted curve reaches the reservation.

    ``None`` means the curve never gets there before the deadline: the
    thread is predicted unprofitable. Every family has a closed form.
    """
    r = own_reservation_utility
    if evaluate_fit(fit, 0.0) >= r:
        return 0.0
    if fit.family == "power":
        # a > 0 for every power fit, so only a rising curve (b > 0) gets there
        t_star = (r / fit.a) ** (1.0 / fit.b) if fit.b > 0 else None
    else:
        # smallest positive root of g(t) = qa*t^2 + qb*t + qc, where g(0) = f(0) - r < 0
        if fit.family == "linear":
            qa, qb, qc = 0.0, fit.b, fit.a - r
        else:
            qa, qb, qc = fit.a, fit.b, fit.c - r
        disc = qb * qb - 4.0 * qa * qc
        if qa == 0:
            roots = [-qc / qb] if qb != 0 else []
        elif disc < 0:
            roots = []
        else:
            # q cannot be 0 because qc < 0; this form avoids cancelling qb against the root
            q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
            roots = [q / qa, qc / q]
        # a tiny positive root may underflow to +0.0; IEEE keeps the sign of zero
        t_star = min((t for t in roots if math.copysign(1.0, t) > 0), default=None)
    return t_star if t_star is not None and t_star <= own_deadline else None


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


class NeuralPredictor:
    """Feed-forward net whose inputs are feature signals times importance weights.

    One hidden sigmoid layer (default 3 neurons) and a single linear output
    neuron, trained by full-batch backpropagation. Deterministic for a given
    seed: weights start uniform in [-0.5, 0.5] drawn from the seed.
    """

    def __init__(
        self,
        issue_weights: Sequence[float],
        hidden_size: int = 3,
        learning_rate: float = 0.1,
        epochs: int = 200,
        seed: int = 0,
    ):
        if hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1, got {hidden_size}")
        self.issue_weights = np.asarray(issue_weights, dtype=float)
        self.hidden_size = hidden_size
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.seed = seed
        self.epochs_trained = 0
        self._w1 = None  # (n_features, hidden)
        self._b1 = None
        self._w2 = None  # (hidden,)
        self._b2 = None
        self.mse_history: list[float] = []

    def get_params(self) -> dict:
        return {
            "issue_weights": tuple(self.issue_weights),
            "hidden_size": self.hidden_size,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "seed": self.seed,
        }

    @property
    def trained(self) -> bool:
        return self._w1 is not None and self.epochs_trained > 0

    def _validate(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if not np.all(np.isfinite(X)):
            raise DataError("features must be finite")
        if X.shape[1] != self.issue_weights.shape[0]:
            raise DataError(
                f"expected {self.issue_weights.shape[0]} features, got {X.shape[1]}"
            )
        if np.any(X < -1e-9) or np.any(X > 1 + 1e-9):
            raise DataError("features must be scaled to [0, 1]")
        return X

    def _init_weights(self, n_features: int) -> None:
        rng = np.random.default_rng(self.seed)
        self._w1 = rng.uniform(-0.5, 0.5, size=(n_features, self.hidden_size))
        self._b1 = rng.uniform(-0.5, 0.5, size=self.hidden_size)
        self._w2 = rng.uniform(-0.5, 0.5, size=self.hidden_size)
        self._b2 = rng.uniform(-0.5, 0.5)

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        signals = X * self.issue_weights
        hidden = _sigmoid(signals @ self._w1 + self._b1)
        out = hidden @ self._w2 + self._b2
        return signals, hidden, out

    def fit(self, X, y) -> "NeuralPredictor":
        X = self._validate(X)
        y = np.asarray(y, dtype=float).ravel()
        if not np.all(np.isfinite(y)):
            raise DataError("targets must be finite")
        if len(y) != X.shape[0] or len(y) < 1:
            raise DataError("need at least one (features, target) sample")
        if self._w1 is None:
            self._init_weights(X.shape[1])
        n = X.shape[0]
        lr = self.learning_rate
        self.mse_history = []
        for _ in range(self.epochs):
            signals, hidden, out = self._forward(X)
            err = out - y
            self.mse_history.append(float(np.mean(err**2)))
            grad_out = 2.0 * err / n
            grad_w2 = hidden.T @ grad_out
            grad_b2 = float(np.sum(grad_out))
            grad_hidden = np.outer(grad_out, self._w2) * hidden * (1.0 - hidden)
            grad_w1 = signals.T @ grad_hidden
            grad_b1 = grad_hidden.sum(axis=0)
            self._w2 -= lr * grad_w2
            self._b2 -= lr * grad_b2
            self._w1 -= lr * grad_w1
            self._b1 -= lr * grad_b1
        _, _, out = self._forward(X)
        self.mse_history.append(float(np.mean((out - y) ** 2)))
        self.epochs_trained += self.epochs
        return self

    @property
    def initial_mse(self) -> float:
        if not self.mse_history:
            raise NotTrainedError("network has not been trained")
        return self.mse_history[0]

    @property
    def final_mse(self) -> float:
        if not self.mse_history:
            raise NotTrainedError("network has not been trained")
        return self.mse_history[-1]

    def predict(self, X) -> np.ndarray:
        if self._w1 is None:
            raise NotTrainedError("network has not been trained")
        X = self._validate(X)
        return self._forward(X)[2]

    def weights_digest(self) -> tuple:
        """Flat, hashable view of all trainable parameters (for reproducibility checks)."""
        if self._w1 is None:
            raise NotTrainedError("network has not been trained")
        return (
            tuple(self._w1.ravel()),
            tuple(self._b1),
            tuple(self._w2),
            float(self._b2),
        )


def nn_train(
    predictor: NeuralPredictor, samples: Sequence[tuple[Sequence[float], float]]
) -> tuple[NeuralPredictor, float]:
    """Full-batch training on (feature vector, target utility) samples."""
    if not samples:
        raise DataError("need at least one training sample")
    X = np.array([features for features, _ in samples], dtype=float)
    y = np.array([target for _, target in samples], dtype=float)
    predictor.fit(X, y)
    return predictor, predictor.final_mse


def nn_predict(predictor: NeuralPredictor, features: Sequence[float]) -> float:
    if not predictor.trained:
        raise NotTrainedError("network has not been trained")
    return float(predictor.predict(np.asarray(features, dtype=float))[0])


def scale_numeric(value: float, lower: float, upper: float) -> float:
    """Min-max scale a numeric feature into [0, 1]."""
    if upper <= lower:
        raise DataError(f"invalid scaling bounds [{lower:g}, {upper:g}]")
    return min(max((value - lower) / (upper - lower), 0.0), 1.0)


def encode_categorical(value: float, scheme: DiscretizationScheme) -> float:
    """Bin a raw value and map the bins to equally spaced points in [0, 1]."""
    label = discretize(value, scheme)
    labels = scheme.labels()
    if len(labels) == 1:
        return 0.5
    return labels.index(label) / (len(labels) - 1)


@dataclass(frozen=True)
class PredictorConfig:
    enabled: bool = False
    warmup: int = 5  # rounds of pure observation before any advice

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ValueError(f"enabled must be true or false, got {self.enabled!r}")
        warmup = self.warmup
        if not isinstance(warmup, int) or isinstance(warmup, bool) or warmup < 0:
            raise ValueError(f"warmup must be a non-negative integer, got {warmup!r}")

    @classmethod
    def from_dict(cls, raw: dict | None) -> "PredictorConfig":
        if raw is None:
            return cls()
        if not isinstance(raw, dict):
            raise ValueError(f"must be a mapping, got {raw!r}")
        return cls(enabled=raw.get("enabled", False), warmup=raw.get("warmup", 5))


@dataclass(frozen=True)
class Advice:
    kind: str  # none | continue | terminate-unprofitable | acceptance-forecast
    t_star: float | None = None  # forecast acceptance round (own-deadline units)


class PredictorState:
    """Per-agent, per-session prediction state: warm-up observation then advice.

    The state follows one session's trace: each call of :func:`advise`
    records only the rows added since the previous call, checks each new
    observation once and appends it once to the fit columns.
    """

    def __init__(self, config: PredictorConfig):
        self.config = config
        self.columns = _Columns()
        self.fit: RegressionFit | None = None
        self.valid = True  # False for good once an observation breaks the series rules
        self.reservation: float | None = None  # the agent's, looked up on first use
        self._rows_seen = 0
        self._last_t: float | None = None

    @property
    def mode(self) -> str:
        return "warm-up" if len(self.columns) < self.config.warmup else "active"

    @property
    def observations(self) -> list[tuple[float, float]]:
        """The recorded (time, utility) points, read back from the columns."""
        return list(zip(self.columns.t.tolist(), self.columns.u.tolist()))

    def record(self, trace: "SessionTrace", profile: PreferenceProfile) -> None:
        """Append the opponent's offers that joined ``trace`` since the last call."""
        new = [
            (row.round / profile.deadline, row.utility_receiver)
            for row in trace[self._rows_seen:]
            if row.proposer != profile.agent_id and row.action == "offer"
        ]
        self._rows_seen = len(trace)
        if not new:
            return
        if self.valid:
            try:
                _check_points(new, self._last_t)
            except DataError:
                self.valid = False
        self._last_t = new[-1][0]
        self.columns.extend(new)


def advise(state: PredictorState, trace: "SessionTrace", profile: PreferenceProfile) -> Advice:
    """Record the opponent's offers and, once active, judge the thread.

    Active mode fits the best regression over (normalized time, utility of
    the opponent's offers under this agent's profile) and estimates when the
    curve reaches the agent's reservation; no crossing before the deadline
    means the thread is not worth pursuing. Once an observation is out of
    order or out of range, every later call advises ``continue``.
    """
    state.record(trace, profile)
    if state.mode == "warm-up":
        return Advice(kind="none")
    if not state.valid:
        return Advice(kind="continue")
    try:
        state.fit = select_model(state.columns)
    except DegenerateDataError:
        return Advice(kind="continue")
    if state.reservation is None:
        state.reservation = reservation_utility(profile)
    t_star = estimate_crossing(state.fit, state.reservation, 1.0)
    if t_star is None:
        return Advice(kind="terminate-unprofitable")
    return Advice(kind="acceptance-forecast", t_star=t_star * profile.deadline)
