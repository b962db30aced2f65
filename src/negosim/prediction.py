"""Opponent-behavior prediction.

Online least-squares regression (linear, power, quadratic) over the current
thread's offer history estimates when, if ever, the opponent's offers will
reach the agent's reservation utility. A small feed-forward network with
weighted inputs is available as a trainable next-offer-utility predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .domain import (
    DiscretizationScheme,
    NegotiationError,
    discretize,
    is_int,
    total_profit,  # not called here; perfbench/test_perfbench.py asserts this binding exists
)

if TYPE_CHECKING:
    from .protocol import TraceRow
    from .tactics import OfferTable

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
    """(time, utility) pairs; time strictly increasing, utility in [0, 100].

    Each point is converted to floats (an integer past the float range
    becomes ±inf, which the rules reject) and checked as it is stored; the
    first rule a point breaks raises :class:`DataError`. ``times`` and
    ``utilities`` are the columns every fit reads. ``positive`` is True when
    every point has t > 0 and u > 0, the power family's domain.
    """

    points: tuple[tuple[float, float], ...]
    times: tuple[float, ...] = field(init=False, repr=False, compare=False)
    utilities: tuple[float, ...] = field(init=False, repr=False, compare=False)
    positive: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times, utilities, latest = [], [], -math.inf
        for t, u in self.points:
            t, u = _float(t), _float(u)
            if not math.isfinite(t):
                raise DataError("observation times must be finite")
            if t <= latest:
                raise DataError("observation times must be strictly increasing")
            if not 0 <= u <= 100:
                raise DataError("observed utilities must lie in [0, 100]")
            latest = t
            times.append(t)
            utilities.append(u)
        # times increase, so the first is the least
        positive = not times or (times[0] > 0 and min(utilities) > 0)
        object.__setattr__(self, "times", tuple(times))
        object.__setattr__(self, "utilities", tuple(utilities))
        object.__setattr__(self, "positive", positive)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class RegressionFit:
    """A fitted curve.  linear: u = b*t + a;  power: u = a*t^b;
    quadratic: u = a*t^2 + b*t + c."""

    family: str
    a: float
    b: float
    sse: float
    c: float = 0.0


def _float(value) -> float:
    """``value`` as a float; an integer past the float range is ±inf, which the series rules reject."""
    try:
        return value * 1.0  # unlike float(), leaves a string a TypeError, as math.isfinite does
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _lstsq(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The coefficients ``np.linalg.lstsq(design, target, rcond=None)`` returns.

    :class:`DegenerateDataError` if the design has a non-finite entry (the
    quadratic design's t² is inf from |t| ≈ 1.3e154 on), if its rank is below
    its width, or if the solve fails. A non-finite design never reaches
    LAPACK, which would print ``DLASCL`` errors before failing.
    """
    if not np.isfinite(design).all():
        raise DegenerateDataError("design matrix has a non-finite entry")
    try:
        coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    except np.linalg.LinAlgError:
        raise DegenerateDataError("least-squares solve failed (non-finite design)") from None
    if rank < design.shape[1]:
        raise DegenerateDataError("design matrix is singular (degenerate observation times)")
    return coef


def fit_regression(series: ObservationSeries, family: str) -> RegressionFit:
    """Least-squares fit of one family; SSE is always on the original scale."""
    if family not in FAMILIES:
        raise ValueError(f"unknown regression family {family!r}")
    n = len(series)
    if n < _MIN_POINTS[family]:
        raise DegenerateDataError(
            f"{family} fit needs >= {_MIN_POINTS[family]} points, got {n}"
        )
    if family == "power" and not series.positive:
        raise RegressionDomainError("power fit needs all t > 0 and all u > 0")
    with np.errstate(all="ignore"):
        return _fit(family, np.array(series.times), np.array(series.utilities))


def _fit(
    family: str, t: np.ndarray, u: np.ndarray, design: np.ndarray | None = None
) -> RegressionFit:
    """One family's least-squares fit to the points (t, u); power needs them positive.

    ``design`` is ``np.vander(t, 3, increasing=True)``, the columns [1, t, t²],
    built here if not given: quadratic fits all three columns and linear the
    first two, which are ``np.vander(t, 2, increasing=True)`` bit for bit.
    """
    if design is None and family != "power":
        design = np.vander(t, 3, increasing=True)
    if family == "linear":
        a, b = _lstsq(design[:, :2], u).tolist()
        c = 0.0
        pred = b * t + a
    elif family == "quadratic":
        c, b, a = _lstsq(design, u).tolist()
        pred = a * t**2 + b * t + c
    else:  # power, via log-log linearization
        log_a, b = _lstsq(np.vander(np.log(t), 2, increasing=True), np.log(u)).tolist()
        try:
            a, c = math.exp(log_a), 0.0
        except OverflowError:  # past about 709; NaN and -inf pass through to the check below
            raise DegenerateDataError(f"{family} fit produced non-finite parameters") from None
        pred = a * t**b
    if not all(map(math.isfinite, (a, b, c))):
        raise DegenerateDataError(f"{family} fit produced non-finite parameters")
    # np.add.reduce is ndarray.sum's pairwise sum, without the method's wrapper
    return RegressionFit(family, a, b, float(np.add.reduce((pred - u) ** 2)), c)


@np.errstate(all="ignore")  # a fit that fails gives NaN or inf, and DegenerateDataError
def select_model(series: ObservationSeries) -> RegressionFit:
    """Fit every admissible family and keep the lowest SSE.

    Power is only admissible on strictly positive data. SSE ties (within
    1e-9) go to the simpler family: linear < power < quadratic. The first
    family whose fit fails raises its error.
    """
    if len(series) < _MIN_POINTS["quadratic"]:
        raise DegenerateDataError("model selection needs at least 3 points")
    admissible = FAMILIES if series.positive else ("linear", "quadratic")
    t, u = np.array(series.times), np.array(series.utilities)
    design = np.vander(t, 3, increasing=True)  # one for both polynomial families
    fits = [_fit(f, t, u, design) for f in admissible]  # simplest family first
    # a power fit whose a underflows to 0 can give a NaN SSE, which never wins
    best_sse = min([fit.sse for fit in fits if not math.isnan(fit.sse)])
    return next(fit for fit in fits if fit.sse <= best_sse + SSE_TIE_EPS)


def evaluate_fit(fit: RegressionFit, t: float) -> float:
    """Raw (unclamped) value of the fitted curve at t."""
    if fit.family == "linear":
        return fit.b * t + fit.a
    if fit.family == "power":
        if t == 0:
            return 0.0 if fit.b > 0 else (fit.a if fit.b == 0 else math.inf)
        try:
            return fit.a * t**fit.b
        except OverflowError:  # t^b is past the float range; a is 0 if exp(log a) underflowed
            return math.inf if fit.a else 0.0
    # Horner's form: a value past the float range is ±inf by the sign of a*t + b, never inf - inf
    return (fit.a * t + fit.b) * t + fit.c


def predict_utility(fit: RegressionFit, t: float) -> float:
    """Fitted utility at t, clamped to [0, 100] (raw value via evaluate_fit)."""
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t:g}")
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
        # only a rising curve (b > 0) gets there, and a = 0 (exp(log a) underflowed)
        # is 0 everywhere; a t* past the float range is past any deadline
        t_star = None
        if fit.a > 0 and fit.b > 0:
            try:
                t_star = (r / fit.a) ** (1.0 / fit.b)
            except OverflowError:
                pass
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
    warmup: int = 5  # advice starts at the warmup-th offer the agent answers; 0 is the first

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ValueError(f"enabled must be true or false, got {self.enabled!r}")
        if not is_int(self.warmup) or self.warmup < 0:
            raise ValueError(f"warmup must be a non-negative integer, got {self.warmup!r}")


@dataclass(frozen=True)
class Advice:
    """What :func:`advise` makes of the opponent's offers so far.

    ``kind`` is ``continue`` (no usable fit), ``terminate-unprofitable``
    (the fitted curve never reaches the reservation before the deadline) or
    ``acceptance-forecast``, whose ``t_star`` is the round by which the
    fitted curve reaches the reservation.
    """

    kind: str
    t_star: float | None = None  # own-deadline rounds


def advise(trace: Iterable["TraceRow"], table: "OfferTable") -> Advice:
    """Fit the opponent's offers in ``trace`` and judge the thread.

    ``table`` is the judging agent's :class:`~negosim.tactics.OfferTable`.
    The opponent's offers are the rows of ``trace`` that another party
    proposed with action ``offer``; each is observed at (round / the
    agent's deadline, its utility under the agent's profile), in trace
    order. The best regression over them estimates when the curve reaches
    the agent's reservation; no crossing before the deadline means the
    thread is not worth pursuing. A series that breaks a rule, as a
    hand-built trace can, or that no family fits advises ``continue``.

    :func:`~negosim.protocol.run_session` calls this only once warm-up is
    over and the offer answered is at or below the reservation: an offer
    above it already makes the thread profitable.
    """
    me, deadline = table.profile.agent_id, table.profile.deadline
    points = tuple(
        (row.round / deadline, row.utility_receiver)
        for row in trace
        if row.proposer != me and row.action == "offer"
    )
    try:
        fit = select_model(ObservationSeries(points=points))
    except (DataError, DegenerateDataError):
        return Advice(kind="continue")
    t_star = estimate_crossing(fit, table.reservation, 1.0)
    if t_star is None:
        return Advice(kind="terminate-unprofitable")
    return Advice(kind="acceptance-forecast", t_star=t_star * deadline)
