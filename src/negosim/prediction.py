"""Opponent-behavior prediction.

Online least-squares regression (linear, power, quadratic) over the current
thread's offer history estimates when, if ever, the opponent's offers will
reach the agent's reservation utility. A small feed-forward network with
weighted inputs is available as a trainable next-offer-utility predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .domain import (
    DiscretizationScheme,
    NegotiationError,
    discretize,
    is_int,
    total_profit,  # not called here; perfbench/test_perfbench.py asserts this binding exists
    unknown_keys,
)

if TYPE_CHECKING:
    from .protocol import TraceRow
    from .tactics import OfferTable

FAMILIES = ("linear", "power", "quadratic")  # simplest first
_MIN_POINTS = {"linear": 2, "power": 2, "quadratic": 3}
SSE_TIE_EPS = 1e-9
_SSE_GUARD = 1e-7  # share of Σu² that bounds an SSE estimate's error; see _approximate_sse


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
    columns: _Columns = field(init=False, repr=False, compare=False)  # what the fits read

    def __post_init__(self) -> None:
        columns = _Columns(self.points)
        if columns.problem is not None:
            raise DataError(columns.problem)
        object.__setattr__(self, "columns", columns)

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


# rows of a _Columns buffer; each family's design matrix is a run of adjacent rows
_ONE, _T, _T2, _ONE_LOG, _LOG_T, _U, _LOG_U = range(7)
_LINEAR, _QUADRATIC, _POWER = slice(_ONE, _T2), slice(_ONE, _ONE_LOG), slice(_ONE_LOG, _U)
_EPS = np.finfo(np.float64).eps
_KAPPA_MAX = _SSE_GUARD / (64 * _EPS)  # about 7.0e6: n * kappa up to which _SSE_GUARD holds


class _Columns:
    """The arrays every family's fit reads, grown by doubling as points arrive.

    Each point adds ``[1, t, t^2]`` and ``u``, and, while every point so far
    has t > 0 and u > 0 (the power family's domain), ``[1, log t]`` and
    ``log u``; the logs are filled in when a power fit first reads them.
    Each quantity is one contiguous buffer row: numpy may take another code
    path for ``**`` and ``log`` on strided input, and the fits must see the
    floats a one-shot build of the same points gives. The properties are
    views of the first ``n`` columns; each design matrix is a transposed
    run of rows.

    ``sums`` holds the running sums (Σt, Σt², Σt³, Σt⁴, Σu, Σtu, Σt²u, Σu²)
    and, while the points are positive, ``log_sums`` holds (Σx, Σx², Σy,
    Σxy, Σy²) for x = log t and y = log u; :func:`_approximate_sse` reads them.
    ``problem`` is None while every stored point is valid, else the first
    series rule a point broke; each point is checked as it is stored.
    """

    def __init__(self, points=()):
        self.n = 0
        self.positive = True
        self.problem: str | None = None
        self.latest = -math.inf  # the last point's time
        self.sums = (0.0,) * 8
        self.log_sums = (0.0,) * 5
        self._logged = 0  # columns whose log rows are filled in
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
        buf, positive, problem, latest = self._buf, self.positive, self.problem, self.latest
        s1, s2, s3, s4, su, stu, st2u, suu = self.sums
        x1, x2, y1, xy, y2 = self.log_sums
        for i, (t, u) in enumerate(points, lo):
            t, u = _float(t), _float(u)
            if problem is None:
                if not math.isfinite(t):
                    problem = "observation times must be finite"
                elif t <= latest:
                    problem = "observation times must be strictly increasing"
                elif not 0 <= u <= 100:
                    problem = "observed utilities must lie in [0, 100]"
            latest = t
            t2 = t * t  # numpy's t**2, bit for bit
            buf[_T, i], buf[_T2, i], buf[_U, i] = t, t2, u
            s1, s2, s3, s4 = s1 + t, s2 + t2, s3 + t2 * t, s4 + t2 * t2
            su, stu, st2u, suu = su + u, stu + t * u, st2u + t2 * u, suu + u * u
            positive = positive and not (t <= 0 or u <= 0)
            if positive:
                x, y = math.log(t), math.log(u)
                x1, x2, y1, xy, y2 = x1 + x, x2 + x * x, y1 + y, xy + x * y, y2 + y * y
        self.sums = s1, s2, s3, s4, su, stu, st2u, suu
        self.log_sums = x1, x2, y1, xy, y2
        self.positive, self.problem, self.latest = positive, problem, latest
        self.n = hi

    def _logs(self) -> np.ndarray:
        """The buffer, its log rows filled in up to ``n`` (meaningful while positive)."""
        lo, hi, buf = self._logged, self.n, self._buf
        if hi > lo:
            np.log(buf[_T, lo:hi], out=buf[_LOG_T, lo:hi])
            np.log(buf[_U, lo:hi], out=buf[_LOG_U, lo:hi])
            self._logged = hi
        return buf

    t = property(lambda self: self._buf[_T, : self.n])
    t2 = property(lambda self: self._buf[_T2, : self.n])
    u = property(lambda self: self._buf[_U, : self.n])
    linear = property(lambda self: self._buf[_LINEAR, : self.n].T)
    quadratic = property(lambda self: self._buf[_QUADRATIC, : self.n].T)
    power = property(lambda self: self._logs()[_POWER, : self.n].T)
    log_u = property(lambda self: self._logs()[_LOG_U, : self.n])

    def __len__(self) -> int:
        return self.n


def _float(value) -> float:
    """``value`` as a float; an integer past the float range is ±inf, which the series rules reject."""
    try:
        return value * 1.0  # unlike float(), leaves a string a TypeError, as math.isfinite does
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
        return _fit(family, series.columns)


def _fit(family: str, cols: _Columns) -> RegressionFit:
    """One family's least-squares fit to the points of ``cols``."""
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
    return RegressionFit(family, a, b, float(np.add.reduce((pred - u) ** 2)), c)


def _approximate_sse(cols: _Columns) -> dict[str, tuple[float, float]]:
    """``family -> (sse, guard)``: the SSE :func:`_fit` would return lies
    within ``guard`` of ``sse``, and ``_fit`` would raise nothing.

    Only the families the running sums can vouch for are present. Linear
    and quadratic come from the sums alone: Gram-Schmidt on the normal
    equations of ``[1, t, t^2]`` in centred form, whose last pivot is the
    SSE. A running sum of n terms is off by at most n*eps times the sum of
    the terms' sizes, and each pivot step multiplies a relative error by at
    most its diagonal-to-pivot ratio; with ``kappa`` the product of those
    ratios, the closed form is within c*n*eps*kappa*Σu² of the exact
    least-squares SSE. ``_fit`` solves with gelsd, which is normwise
    backward stable, so its SSE, residual rounding included, is within
    c*n*eps*kappa_x*Σu² of the same value, kappa_x the design's 2-norm
    condition number (here bounded by trace(G) * trace(G^-1) for the Gram
    matrix G). With c = 64, both stay under ``_SSE_GUARD * Σu²`` as long as
    n * max(kappa, kappa_x) <= :data:`_KAPPA_MAX`; the bound on kappa_x
    also keeps gelsd's rank test (cut-off eps * n) from dropping a column.

    Power's SSE is on the original scale, so it needs a pass over the
    points: with a and b from the closed-form log-log line and p = t^b, it
    is a²Σp² - 2aΣpu + Σu². Each point's fitted log value is within
    c*n*eps*kappa*||log u|| of gelsd's, which moves the SSE by at most three
    times that share of (Σu² + SSE), and the three terms lose at most
    c*n*eps*(Σu² + SSE) to cancellation; the guard covers both while
    n * kappa * (1 + ||log u||) <= _KAPPA_MAX.
    Power is left out unless ``|log a| <= 700``, so ``exp`` neither
    overflows (past 709.78) nor underflows in either fit.
    """
    approx = {}
    n = cols.n
    s1, s2, s3, s4, su, stu, st2u, suu = cols.sums
    vt = s2 - s1 * s1 / n  # t's pivot: Σ(t - mean t)²
    if vt > 0:
        ct = s3 - s1 * s2 / n  # Σ(t - mean t)(t² - mean t²)
        vt2 = s4 - s2 * s2 / n  # Σ(t² - mean t²)²
        vq = vt2 - ct * ct / vt  # t²'s pivot, after 1 and t
        if vq > 0:
            kappa = s2 / vt * (s4 / vq)
            # kappa_x² <= trace(G) * trace(G^-1); det G = n*vt*vq, and s2*s4 bounds
            # the cofactor s2*s4 - s3²
            kappa_x2 = (n + s2 + s4) * (n * (vt + vt2) + s2 * s4) / n / vt / vq
            limit = _KAPPA_MAX / n
            if kappa <= limit and kappa_x2 <= limit * limit:  # False on NaN
                cu = stu - s1 * su / n  # Σ(t - mean t)(u - mean u)
                qu = st2u - s2 * su / n - ct * cu / vt  # t²'s pivot column against u
                linear = suu - su * su / n - cu * cu / vt
                guard = _SSE_GUARD * suu
                approx["linear"] = linear, guard
                approx["quadratic"] = linear - qu * qu / vq, guard
    if cols.positive:
        x1, x2, y1, xy, y2 = cols.log_sums
        vx = x2 - x1 * x1 / n
        if vx > 0:
            b = (xy - x1 * y1 / n) / vx
            log_a = (y1 - b * x1) / n
            limit = _KAPPA_MAX / (n * (1.0 + math.sqrt(y2)))
            kappa, kappa_x2 = x2 / vx, (n + x2) * (n + x2) / (n * vx)  # as above, for [1, x]
            if kappa <= limit and kappa_x2 <= limit * limit and abs(log_a) <= 700.0:
                a, p = math.exp(log_a), cols.t**b
                sse = a * (a * float(p @ p) - 2.0 * float(p @ cols.u)) + suu
                approx["power"] = sse, _SSE_GUARD * (suu + abs(sse))
    return approx


def _candidates(cols: _Columns) -> list[str]:
    """The admissible families, in :data:`FAMILIES` order, whose exact fit may
    have the lowest SSE or tie with it.

    A family is left out only when :func:`_approximate_sse` shows that its
    SSE exceeds another family's by more than ``SSE_TIE_EPS``: then it is
    neither the minimum nor tied with it, and raises nothing.
    """
    admissible = FAMILIES if cols.positive else ("linear", "quadratic")
    approx = _approximate_sse(cols)
    if not approx:
        return admissible
    cut = min([sse + guard for sse, guard in approx.values()]) + SSE_TIE_EPS
    return [f for f in admissible if f not in approx or not approx[f][0] - approx[f][1] > cut]


@np.errstate(all="ignore")  # a fit that fails gives NaN or inf, and DegenerateDataError
def select_model(series: ObservationSeries | _Columns) -> RegressionFit:
    """Fit every admissible family that can win and keep the lowest SSE.

    Takes a series, or the columns a :class:`PredictorState` grew. Power is
    only admissible on strictly positive data. SSE ties (within 1e-9) go to
    the simpler family: linear < power < quadratic. Only the families
    :func:`_candidates` keeps are fitted; the result, and any error raised,
    is that of fitting every admissible family.
    """
    if len(series) < _MIN_POINTS["quadratic"]:
        raise DegenerateDataError("model selection needs at least 3 points")
    cols = series if isinstance(series, _Columns) else series.columns
    fits = [_fit(f, cols) for f in _candidates(cols)]  # simplest family first
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
    warmup: int = 5  # rounds of pure observation before any advice

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ValueError(f"enabled must be true or false, got {self.enabled!r}")
        if not is_int(self.warmup) or self.warmup < 0:
            raise ValueError(f"warmup must be a non-negative integer, got {self.warmup!r}")

    @classmethod
    def from_dict(cls, raw: dict | None) -> "PredictorConfig":
        if raw is None:
            return cls()
        if not isinstance(raw, dict):
            raise ValueError(f"must be a mapping, got {raw!r}")
        unknown = unknown_keys(raw, {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        return cls(**raw)  # a key left out takes the field's default


@dataclass(frozen=True)
class Advice:
    kind: str  # none | continue | terminate-unprofitable | acceptance-forecast
    t_star: float | None = None  # forecast acceptance round (own-deadline units)


class PredictorState:
    """Per-agent, per-session prediction state: warm-up observation then advice.

    Each call of :func:`advise` appends one observation to the fit columns,
    which check it as they store it.
    """

    def __init__(self, config: PredictorConfig):
        self.config = config
        self.columns = _Columns()
        self.fit: RegressionFit | None = None

    @property
    def mode(self) -> str:
        return "warm-up" if len(self.columns) < self.config.warmup else "active"


def advise(state: PredictorState, incoming: "TraceRow", table: "OfferTable") -> Advice:
    """Record the opponent's offer ``incoming`` and, once active, judge the thread.

    The caller passes each of the opponent's offers once, in the order they
    were made, with the agent's own :class:`~negosim.tactics.OfferTable`.
    Active mode fits the best regression over (normalized time, utility of
    the opponent's offers under this agent's profile) and estimates when the
    curve reaches the agent's reservation; no crossing before the deadline
    means the thread is not worth pursuing. Once an observation is out of
    order or out of range, every later call advises ``continue``.
    """
    deadline = table.profile.deadline
    state.columns.extend(((incoming.round / deadline, incoming.utility_receiver),))
    if state.mode == "warm-up":
        return Advice(kind="none")
    if state.columns.problem is not None:
        return Advice(kind="continue")
    try:
        state.fit = select_model(state.columns)
    except DegenerateDataError:
        return Advice(kind="continue")
    t_star = estimate_crossing(state.fit, table.reservation, 1.0)
    if t_star is None:
        return Advice(kind="terminate-unprofitable")
    return Advice(kind="acceptance-forecast", t_star=t_star * deadline)
