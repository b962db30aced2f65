import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from negosim.domain import (
    DiscretizationScheme,
    Issue,
    IssueOption,
    OfferVector,
    make_profile,
    reservation_utility,
)
from negosim.prediction import (
    Advice,
    DataError,
    DegenerateDataError,
    NeuralPredictor,
    NotTrainedError,
    ObservationSeries,
    PredictorConfig,
    RegressionDomainError,
    RegressionFit,
    FAMILIES,
    SSE_TIE_EPS,
    _fit,
    _lstsq,
    advise,
    encode_categorical,
    estimate_crossing,
    evaluate_fit,
    fit_regression,
    nn_predict,
    nn_train,
    predict_utility,
    scale_numeric,
    select_model,
)
from negosim import prediction, protocol
from negosim.protocol import SessionTrace, TraceRow, run_session
from negosim.tactics import OfferTable, Tactic

from conftest import ladder_profile, random_profile
from test_protocol import random_tactic, rerated


def series(*points):
    return ObservationSeries(points=tuple(points))


def incoming_trace(profile, utilities, rounds=None):
    """Opponent offers on the ladder profile at the given rounds.

    Gaps between opponent rounds are filled with the agent's own offers so the
    trace stays contiguous, as it would be in a real alternating session.
    """
    trace = SessionTrace()
    rounds = rounds if rounds is not None else list(range(len(utilities)))
    by_round = dict(zip(rounds, utilities))
    for r in range(max(rounds) + 1):
        if r in by_round:
            u = by_round[r]
            offer = OfferVector({"value": f"p{int(u) // 10}"})
            trace.append(TraceRow(r, "opponent", offer, 100.0 - u, u, "offer"))
        else:
            offer = OfferVector({"value": "p9"})
            trace.append(TraceRow(r, profile.agent_id, offer, 90.0, 10.0, "offer"))
    return trace


def opponent_points(rows, profile):
    """The opponent's offers in ``rows`` as advise observes them: (round /
    deadline, utility under ``profile``), in trace order."""
    return tuple(
        (row.round / profile.deadline, row.utility_receiver)
        for row in rows
        if row.proposer != profile.agent_id and row.action == "offer"
    )


class Scripted(Tactic):
    """The opener's tactic: at round 2k, the ladder option worth utilities[k] to the agent."""

    def __init__(self, utilities):
        self.utilities = utilities

    def propose(self, table, trace, round):
        return OfferVector({"value": f"p{int(self.utilities[round // 2]) // 10}"})


class Holdout(Tactic):
    """Always p9: worth 90 on the ladder, 10 on the reversed ladder."""

    def propose(self, table, trace, round):
        return OfferVector({"value": "p9"})


def answer(monkeypatch, utilities, deadline, reservation, warmup):
    """A session in which the opponent opens and offers the agent, every other
    round, the ladder options worth ``utilities`` to it, and the agent, which
    predicts, counters with p9 until it has answered them all. Neither party
    accepts and no other rule ends the session. Returns its outcome and trace,
    and the rounds at which run_session called advise."""
    agent = ladder_profile(deadline=deadline, reservation=reservation)
    reversed_ladder = Issue("value", tuple(IssueOption(f"p{i}", 10.0 * (10 - i)) for i in range(11)))
    opponent = make_profile("opponent", [reversed_ladder], {"value": 100.0}, deadline=1000)
    live_advise, called = protocol.advise, []

    def recorded_advise(trace, table):
        called.append(len(trace))
        return live_advise(trace, table)

    monkeypatch.setattr(protocol, "advise", recorded_advise)
    outcome, trace = run_session(
        agent, opponent, Holdout(), Scripted(utilities),
        predictor_config={"agent": PredictorConfig(enabled=True, warmup=warmup)},
        max_rounds=2 * len(utilities), opener="opponent",
    )
    return outcome, trace, called


def no_fit(cols):
    raise AssertionError("select_model was called")


class TestObservationSeries:
    def test_non_increasing_times_rejected(self):
        with pytest.raises(DataError, match="^observation times must be strictly increasing$"):
            series((0.0, 10.0), (0.0, 20.0))

    def test_out_of_range_utility_rejected(self):
        with pytest.raises(DataError, match=r"^observed utilities must lie in \[0, 100\]$"):
            series((0.0, 10.0), (1.0, 120.0))

    @pytest.mark.parametrize(
        "points, rule",
        [
            # one point breaks two rules: time is checked before utility
            (((1.0, 10.0), (0.5, 120.0)), "strictly increasing"),
            (((math.nan, 120.0),), "finite"),
            # two points break one rule each: the earlier point's rule is reported
            (((0.0, -1.0), (0.0, 20.0)), "utilities"),
        ],
    )
    def test_first_broken_rule_is_reported(self, points, rule):
        with pytest.raises(DataError, match=rule):
            series(*points)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_non_finite_time_rejected(self, bad, at):
        points = [(0.0, 10.0), (1.0, 20.0), (2.0, 30.0)]
        points[at] = (bad, points[at][1])
        with pytest.raises(DataError, match="finite"):
            series(*points)

    @pytest.mark.parametrize(
        "points, rule",
        [
            (((0.0, 10**400),), "utilities"),
            (((0.0, 50.0), (10**400, 50.0)), "finite"),
        ],
        ids=["utility", "time"],
    )
    def test_integer_past_the_float_range_is_a_data_error(self, points, rule):
        with pytest.raises(DataError, match=rule):
            series(*points)

    def test_large_integer_time_is_stored_as_its_float(self):
        assert series((10**200, 50.0)).times == (1e200,)


class TestFitRegression:
    def test_linear_exact_recovery(self):
        fit = fit_regression(series((0, 10), (1, 12), (2, 14)), "linear")
        assert fit.a == pytest.approx(10.0)
        assert fit.b == pytest.approx(2.0)
        assert fit.sse == pytest.approx(0.0, abs=1e-18)

    def test_power_exact_recovery(self):
        fit = fit_regression(series((1, 3), (2, 12), (3, 27)), "power")
        assert fit.a == pytest.approx(3.0)
        assert fit.b == pytest.approx(2.0)
        assert fit.sse == pytest.approx(0.0, abs=1e-18)

    def test_quadratic_exact_recovery(self):
        fit = fit_regression(series((0, 3), (1, 6), (2, 11)), "quadratic")
        assert fit.a == pytest.approx(1.0)
        assert fit.b == pytest.approx(2.0)
        assert fit.c == pytest.approx(3.0)

    def test_linear_least_squares_on_noisy_data(self):
        # normal-equation oracle computed by hand for these four points
        pts = ((0, 10.0), (1, 13.0), (2, 13.0), (3, 17.0))
        fit = fit_regression(series(*pts), "linear")
        t = np.array([p[0] for p in pts], dtype=float)
        u = np.array([p[1] for p in pts], dtype=float)
        slope = np.cov(t, u, bias=True)[0, 1] / np.var(t)
        intercept = u.mean() - slope * t.mean()
        assert fit.b == pytest.approx(slope)
        assert fit.a == pytest.approx(intercept)

    def test_sse_reported_on_original_scale(self):
        pts = ((1, 2.0), (2, 9.0), (3, 27.0), (4, 60.0))
        fit = fit_regression(series(*pts), "power")
        expected = sum((fit.a * t**fit.b - u) ** 2 for t, u in pts)
        assert fit.sse == pytest.approx(expected)

    def test_power_rejects_zero_time(self):
        with pytest.raises(RegressionDomainError):
            fit_regression(series((0, 3), (1, 6), (2, 12)), "power")

    def test_power_rejects_zero_utility(self):
        with pytest.raises(RegressionDomainError):
            fit_regression(series((1, 0), (2, 6), (3, 12)), "power")

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_regression(series((0, 10)), "linear")
        with pytest.raises(DegenerateDataError):
            fit_regression(series((0, 10), (1, 12)), "quadratic")

    @pytest.mark.parametrize(
        "family, times",
        [
            ("linear", (1.0, math.nextafter(1.0, 2.0))),
            ("power", (1.0, math.nextafter(1.0, 2.0))),
            ("quadratic", (0.5, 1.0, math.nextafter(1.0, 2.0))),
        ],
    )
    def test_rank_deficient_design_rejected(self, family, times):
        # times one ulp apart give a design matrix of numerically deficient rank
        points = tuple((t, 10.0 + 5.0 * i) for i, t in enumerate(times))
        with pytest.raises(DegenerateDataError, match="singular"):
            fit_regression(series(*points), family)

    def test_design_past_the_float_range_rejected(self):
        # t² overflows to inf in the quadratic design, and the solve fails
        points = tuple((k * 1e200, 10.0 * k) for k in (1, 2, 3))
        with pytest.raises(DegenerateDataError):
            fit_regression(series(*points), "quadratic")

    def test_design_past_the_float_range_never_reaches_lapack(self, capfd):
        # handed the quadratic design's infinite t², LAPACK prints "On entry to
        # DLASCL parameter number 4 had an illegal value" (OpenBLAS to stdout)
        s = series((1e200, 10.0), (2e200, 20.0), (3e200, 30.0))
        with pytest.raises(DegenerateDataError):
            select_model(s)
        with pytest.raises(DegenerateDataError):
            fit_regression(s, "quadratic")
        out, err = capfd.readouterr()
        assert (out, err) == ("", "")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            fit_regression(series((0, 10), (1, 12)), "cubic")


class TestSelectModel:
    def test_linear_data_selects_linear(self):
        fit = select_model(series((0, 10), (1, 12), (2, 14), (3, 16)))
        assert fit.family == "linear"

    def test_power_data_selects_power(self):
        fit = select_model(series((1, 3), (2, 12), (3, 27), (4, 48)))
        assert fit.family == "power"

    def test_quadratic_data_selects_quadratic(self):
        # includes t=0, so power is inadmissible and linear fits poorly
        fit = select_model(series((0, 3), (1, 4), (2, 11), (3, 24)))
        assert fit.family == "quadratic"

    def test_tie_prefers_simpler_family(self):
        # perfectly linear through t=0: quadratic also reaches SSE 0
        fit = select_model(series((0, 5), (1, 10), (2, 15), (3, 20)))
        assert fit.family == "linear"

    def test_needs_three_points(self):
        with pytest.raises(DegenerateDataError):
            select_model(series((0, 10), (1, 12)))

    def test_power_intercept_beyond_float_is_degenerate(self):
        # log a is about 2e6, so exp(log a) overflows instead of giving inf
        with pytest.raises(DegenerateDataError):
            select_model(series((0.01, 1.0), (0.0100001, 50.0), (0.0100002, 100.0)))


class TestPredictUtility:
    def test_linear_example(self):
        fit = fit_regression(series((0, 10), (1, 12), (2, 14)), "linear")
        assert predict_utility(fit, 5.0) == pytest.approx(20.0)

    def test_power_example(self):
        fit = fit_regression(series((1, 3), (2, 12), (3, 27)), "power")
        assert predict_utility(fit, 4.0) == pytest.approx(48.0)

    def test_quadratic_example(self):
        fit = fit_regression(series((0, 3), (1, 6), (2, 11)), "quadratic")
        assert predict_utility(fit, 2.0) == pytest.approx(11.0)

    def test_clamped_to_range(self):
        fit = fit_regression(series((0, 10), (1, 60)), "linear")
        assert predict_utility(fit, 10.0) == 100.0
        falling = fit_regression(series((0, 60), (1, 10)), "linear")
        assert predict_utility(falling, 10.0) == 0.0
        assert evaluate_fit(falling, 10.0) < 0.0

    def test_negative_time_rejected(self):
        fit = fit_regression(series((0, 10), (1, 12)), "linear")
        with pytest.raises(ValueError):
            predict_utility(fit, -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        fit = fit_regression(series((0, 10), (1, 12)), "linear")
        with pytest.raises(ValueError):
            predict_utility(fit, t)

    def test_quadratic_curve_past_the_float_range(self):
        # t^2 overflows: the curve is +-inf by the term that dominates, never inf - inf
        assert predict_utility(RegressionFit("quadratic", a=1.0, b=0.0, sse=0.0), 1e200) == 100.0
        steep = RegressionFit("quadratic", a=1e300, b=-1e300, sse=0.0)
        assert evaluate_fit(steep, 1e10) == math.inf
        assert predict_utility(steep, 1e10) == 100.0
        sinking = RegressionFit("quadratic", a=1.0, b=-1e300, sse=0.0, c=50.0)
        assert evaluate_fit(sinking, 1e200) == -math.inf  # b*t outweighs a*t^2 there
        assert predict_utility(sinking, 1e200) == 0.0

    def test_power_curve_past_the_float_range(self):
        # t^b overflows: the curve is +inf there, or 0 if exp(log a) underflowed to a = 0
        steep = RegressionFit("power", a=1.0, b=1000.0, sse=0.0)
        assert evaluate_fit(steep, 3.0) == math.inf
        assert predict_utility(steep, 3.0) == 100.0
        vanished = fit_regression(series((2.0, 1e-320), (4.0, 100.0)), "power")
        assert vanished.a == 0.0
        assert predict_utility(vanished, 3.0) == 0.0


class TestEstimateCrossing:
    def test_rising_line_crosses(self):
        fit = fit_regression(series((0, 10), (1, 12), (2, 14)), "linear")
        assert estimate_crossing(fit, 26.0, 10.0) == pytest.approx(8.0)

    def test_flat_line_never_crosses(self):
        fit = fit_regression(series((0, 30), (1, 30), (2, 30)), "linear")
        assert estimate_crossing(fit, 80.0, 10.0) is None

    def test_crossing_beyond_deadline_is_none(self):
        fit = fit_regression(series((0, 10), (1, 12), (2, 14)), "linear")
        assert estimate_crossing(fit, 90.0, 10.0) is None

    def test_already_profitable_crosses_at_zero(self):
        fit = fit_regression(series((0, 50), (1, 52), (2, 54)), "linear")
        assert estimate_crossing(fit, 40.0, 10.0) == 0.0

    def test_power_closed_form(self):
        fit = fit_regression(series((1, 3), (2, 12), (3, 27)), "power")
        # 3 t^2 = 48  ->  t = 4
        assert estimate_crossing(fit, 48.0, 10.0) == pytest.approx(4.0)

    def test_quadratic_bisection_within_tolerance(self):
        fit = fit_regression(series((0, 3), (1, 6), (2, 11), (3, 18)), "quadratic")
        # t^2 + 2t + 3 = 38  ->  t = 5
        t_star = estimate_crossing(fit, 38.0, 10.0)
        assert t_star == pytest.approx(5.0, abs=1e-5)

    def test_quadratic_never_crossing_is_none(self):
        fit = fit_regression(series((0, 30), (1, 28), (2, 22), (3, 12)), "quadratic")
        assert estimate_crossing(fit, 80.0, 10.0) is None

    def test_power_curve_with_underflowed_intercept_never_crosses(self):
        # exp(log a) underflows to a = 0: the curve is 0 everywhere
        fit = fit_regression(series((2.0, 1e-320), (4.0, 100.0)), "power")
        assert fit.a == 0.0
        assert estimate_crossing(fit, 10.0, 5.0) is None


def scan_crossing(fit, reservation, deadline, steps=2**16):
    """Reference for estimate_crossing: first grid point at or above the
    reservation, then bisection down to 1e-10."""
    if evaluate_fit(fit, 0.0) >= reservation:
        return 0.0
    grid = np.linspace(0.0, deadline, steps + 1)
    reached = np.flatnonzero(fit.a * grid**2 + fit.b * grid + fit.c >= reservation)
    if reached.size == 0:
        return None
    lo, hi = float(grid[reached[0] - 1]), float(grid[reached[0]])
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if evaluate_fit(fit, mid) >= reservation else (mid, hi)
    return 0.5 * (lo + hi)


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(-100, 100),
    b=st.floats(-200, 200),
    gap=st.floats(0, 100),  # reservation - f(0): start below the reservation
    reservation=st.floats(0, 100),
    deadline=st.floats(0.5, 2.0),
)
def test_quadratic_crossing_matches_dense_scan(a, b, gap, reservation, deadline):
    fit = RegressionFit("quadratic", a=a, b=b, c=reservation - gap, sse=0.0)
    # skip ill-conditioned cases (a tangency, or a root at the deadline), where
    # a 1e-6 nudge of the reservation flips the answer or moves t* far
    low, high = (scan_crossing(fit, reservation + d, deadline) for d in (-1e-6, 1e-6))
    assume((low is None) == (high is None))
    assume(low is None or abs(high - low) < 1e-3)
    expected = scan_crossing(fit, reservation, deadline)
    t_star = estimate_crossing(fit, reservation, deadline)
    assert (t_star is None) == (expected is None)
    if expected is not None:
        assert t_star == pytest.approx(expected, abs=1e-6)


class TestNeuralPredictor:
    def samples(self, rng, n):
        X = rng.uniform(0.0, 1.0, size=(n, 3))
        y = 0.5 * X[:, 0] + 0.3 * X[:, 1] - 0.2 * X[:, 2] + 0.1
        return X, y

    def test_training_reduces_mse(self):
        rng = np.random.default_rng(42)
        X, y = self.samples(rng, 50)
        net = NeuralPredictor([50.0, 30.0, 20.0], seed=42).fit(X, y)
        assert net.final_mse <= 0.5 * net.initial_mse

    def test_mse_history_monotone_non_increasing(self):
        rng = np.random.default_rng(7)
        X, y = self.samples(rng, 40)
        net = NeuralPredictor([50.0, 30.0, 20.0], seed=7).fit(X, y)
        history = net.mse_history
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_single_sample_memorized(self):
        net = NeuralPredictor([1.0, 1.0], epochs=500, seed=3)
        net, mse = nn_train(net, [((0.4, 0.7), 0.6)])
        assert mse <= 1e-3
        assert nn_predict(net, (0.4, 0.7)) == pytest.approx(0.6, abs=0.05)

    def test_holdout_generalization(self):
        rng = np.random.default_rng(11)
        X, y = self.samples(rng, 80)
        net = NeuralPredictor([5.0, 3.0, 2.0], epochs=1000, seed=11).fit(X[:60], y[:60])
        errors = np.abs(net.predict(X[60:]) - y[60:])
        assert float(errors.max()) < 0.15

    def test_same_seed_same_weights(self):
        rng = np.random.default_rng(5)
        X, y = self.samples(rng, 30)
        digest1 = NeuralPredictor([50.0, 30.0, 20.0], seed=9).fit(X, y).weights_digest()
        digest2 = NeuralPredictor([50.0, 30.0, 20.0], seed=9).fit(X, y).weights_digest()
        assert digest1 == digest2

    def test_different_seed_different_weights(self):
        rng = np.random.default_rng(5)
        X, y = self.samples(rng, 30)
        digest1 = NeuralPredictor([50.0, 30.0, 20.0], seed=1).fit(X, y).weights_digest()
        digest2 = NeuralPredictor([50.0, 30.0, 20.0], seed=2).fit(X, y).weights_digest()
        assert digest1 != digest2

    def test_zero_importance_weights_yield_constant_output(self):
        rng = np.random.default_rng(13)
        X, y = self.samples(rng, 30)
        net = NeuralPredictor([0.0, 0.0, 0.0], epochs=500, seed=13).fit(X, y)
        predictions = net.predict(X)
        assert float(np.ptp(predictions)) == pytest.approx(0.0, abs=1e-12)
        assert float(predictions[0]) == pytest.approx(float(y.mean()), abs=0.01)

    def test_unscaled_features_rejected(self):
        net = NeuralPredictor([1.0, 1.0])
        with pytest.raises(DataError):
            net.fit([[2.0, 0.5]], [0.5])

    def test_feature_count_mismatch_rejected(self):
        net = NeuralPredictor([1.0, 1.0])
        with pytest.raises(DataError):
            net.fit([[0.5]], [0.5])

    def test_predict_before_fit_rejected(self):
        with pytest.raises(NotTrainedError):
            NeuralPredictor([1.0]).predict([[0.5]])

    def test_get_params_round_trip(self):
        net = NeuralPredictor([50.0, 50.0], hidden_size=4, learning_rate=0.2, epochs=10, seed=8)
        params = net.get_params()
        clone = NeuralPredictor(**params)
        assert clone.get_params() == params


class TestFeatureEncoding:
    def test_scale_numeric_midpoint(self):
        assert scale_numeric(15.0, 10.0, 20.0) == 0.5

    def test_scale_numeric_clamps(self):
        assert scale_numeric(25.0, 10.0, 20.0) == 1.0
        assert scale_numeric(5.0, 10.0, 20.0) == 0.0

    def test_scale_numeric_bad_bounds(self):
        with pytest.raises(DataError):
            scale_numeric(1.0, 5.0, 5.0)

    def test_encode_categorical_equally_spaced(self):
        scheme = DiscretizationScheme(
            bins=(("youth", 10, 25), ("middle-aged", 25, 50), ("old", 50, math.inf))
        )
        assert encode_categorical(17.0, scheme) == 0.0
        assert encode_categorical(30.0, scheme) == 0.5
        assert encode_categorical(70.0, scheme) == 1.0


@pytest.mark.parametrize(
    "fields",
    [{"enabled": True, "warmup": -3}, {"warmup": True}, {"warmup": 2.0}, {"enabled": "no"}],
    ids=["warmup-negative", "warmup-bool", "warmup-float", "enabled-str"],
)
def test_bad_predictor_config_rejected_at_construction(fields):
    # checked once, however the config is built, not only when loaded from a scenario
    with pytest.raises(ValueError):
        PredictorConfig(**fields)


class TestAdvise:
    def test_warmup_gives_no_advice(self, monkeypatch):
        # the agent answers its offers at rounds 1, 3, 5, ...: the third, at round 5, ends warm-up
        outcome, _, called = answer(monkeypatch, [10, 20, 30, 40, 50], 10, 60.0, warmup=3)
        assert called == [5, 7, 9]
        assert outcome.kind == "deadline-expiry"

    def test_rising_offers_forecast_acceptance(self):
        profile = ladder_profile(deadline=20, reservation=60.0)
        trace = incoming_trace(profile, [10.0, 20.0, 30.0, 40.0, 50.0], rounds=[0, 2, 4, 6, 8])
        advice = advise(trace, OfferTable(profile))
        assert advice.kind == "acceptance-forecast"
        # linear trend u = 10 + 5*round reaches 60 at round 10
        assert advice.t_star == pytest.approx(10.0)

    def test_crossing_past_the_float_range_advises_termination(self):
        # power fit u = 30 t^0.001 (t = round / 40) reaches 90 at t = 3^1000, past any float
        profile = ladder_profile(deadline=40, reservation=90.0)
        rounds = list(range(1, 20, 2))
        trace = incoming_trace(profile, [30.0 * (r / 40) ** 0.001 for r in rounds], rounds=rounds)
        advice = advise(trace, OfferTable(profile))
        fit = select_model(series(*opponent_points(trace, profile)))
        assert (fit.family, fit.b) == ("power", pytest.approx(0.001))
        assert advice.kind == "terminate-unprofitable"

    def test_flat_low_offers_advise_termination(self):
        profile = ladder_profile(deadline=10, reservation=80.0)
        trace = incoming_trace(profile, [30.0, 30.0, 30.0, 30.0, 30.0], rounds=[0, 2, 4, 6, 8])
        assert advise(trace, OfferTable(profile)).kind == "terminate-unprofitable"

    def test_degenerate_history_advises_continue(self):
        # too few points for any fit
        profile = ladder_profile(deadline=10, reservation=40.0)
        trace = incoming_trace(profile, [30.0, 40.0])
        assert advise(trace, OfferTable(profile)).kind == "continue"

    def test_power_intercept_beyond_float_advises_continue(self):
        # rounds 50..52 of 10**6: the power fit's exp(log a) overflows
        profile = ladder_profile(deadline=10**6, reservation=100.0)
        trace = incoming_trace(profile, [1.0, 50.0, 100.0], rounds=[50, 51, 52])
        assert advise(trace, OfferTable(profile)).kind == "continue"

    @pytest.mark.parametrize(
        "fault", ["backwards", 100.5, -1.0, math.nan], ids=["round", "above", "below", "nan"]
    )
    def test_broken_series_advises_continue(self, fault):
        # a hand-built trace can break a series rule; a session's cannot
        profile = ladder_profile(deadline=10, reservation=80.0)
        rows = list(incoming_trace(profile, [30.0, 30.0, 30.0, 30.0], rounds=[0, 2, 4, 6]))
        last = rows[-1]
        rows[-1] = last._replace(round=3) if fault == "backwards" else last._replace(utility_receiver=fault)
        assert advise(rows[:-1], OfferTable(profile)).kind == "terminate-unprofitable"
        assert advise(rows, OfferTable(profile)) == Advice(kind="continue")

    def test_offers_above_the_reservation_are_not_fitted(self, monkeypatch):
        # every offer answered, 50 to 70, is above the reservation of 40
        utilities = [50.0, 60.0, 50.0, 70.0, 60.0]
        monkeypatch.setattr(prediction, "select_model", no_fit)
        outcome, trace, called = answer(monkeypatch, utilities, 10, 40.0, warmup=0)
        assert called == []
        assert outcome.kind == "deadline-expiry"
        profile = ladder_profile(deadline=10, reservation=40.0)
        assert estimate_crossing(select_model(series(*opponent_points(trace, profile))), 40.0, 1.0) == 0.0

    def test_zigzag_above_the_reservation_is_not_terminated(self, monkeypatch):
        # the linear fit to 10, 60, 10, ... never reaches 50 by the deadline,
        # but the offer answered, 60, is above it: the thread is profitable
        utilities = [10, 60, 10, 60, 10, 60]
        monkeypatch.setattr(prediction, "select_model", no_fit)
        # active from the sixth offer on, answered at round 11
        outcome, trace, called = answer(monkeypatch, utilities, 11, 50.0, warmup=6)
        assert called == []
        assert outcome.kind == "deadline-expiry"
        profile = ladder_profile(deadline=11)
        assert estimate_crossing(select_model(series(*opponent_points(trace, profile))), 50.0, 1.0) is None

    def test_latest_offer_at_the_reservation_is_fitted(self, monkeypatch):
        # equal is not above: the fit decides, and this one never reaches 60
        fitted = []

        def recorded_fit(series):
            fitted.append(len(series))
            return select_model(series)

        monkeypatch.setattr(prediction, "select_model", recorded_fit)
        outcome, _, called = answer(monkeypatch, [10, 60, 10, 60, 10, 60], 11, 60.0, warmup=6)
        assert called == [11] and fitted == [6]
        assert (outcome.round, outcome.reason) == (11, "unprofitable")

    def test_the_gate_opens_at_the_reservation_and_not_a_ulp_above(self, monkeypatch):
        outcome, _, called = answer(monkeypatch, [60] * 6, 11, 60.0, warmup=3)
        assert called[0] == 5
        below = math.nextafter(60.0, 0.0)  # every offer answered is a ulp above it
        outcome, _, called = answer(monkeypatch, [60] * 6, 11, below, warmup=3)
        assert called == []
        assert outcome.kind == "deadline-expiry"

    def test_observations_rebuilt_from_trace(self, monkeypatch):
        profile = ladder_profile(deadline=10)
        trace = incoming_trace(profile, [10.0, 20.0], rounds=[0, 2])
        seen = []

        def recorded_fit(series):
            seen.append(series)
            return select_model(series)

        monkeypatch.setattr(prediction, "select_model", recorded_fit)
        assert advise(trace, OfferTable(profile)) == Advice(kind="continue")
        assert [(s.times, s.utilities) for s in seen] == [((0.0, 0.2), (10.0, 20.0))]


def fit_or_error(series):
    """select_model's fit, or the type of the error it raises."""
    try:
        return select_model(series)
    except DegenerateDataError as exc:
        return type(exc)


def rebuilt_advice(rows, profile, warmup):
    """Reference: whether run_session's gate calls advise on the last of the
    opponent's offers in ``rows``, the advice from a series rebuilt, and
    checked, from all of them, and the one-shot fit (or its error type)
    behind it, None if the series breaks a rule.

    During warm-up there is neither advice nor fit: ``(False, None, None)``.
    After it, the gate is open where the offer answered is at or below the
    reservation; the advice and the fit are made either way.
    """
    points = opponent_points(rows, profile)
    if len(points) < warmup:
        return False, None, None
    reservation = reservation_utility(profile)
    due = points[-1][1] <= reservation
    try:
        series = ObservationSeries(points=points)
    except DataError:
        return due, Advice(kind="continue"), None
    fit = fit_or_error(series)
    if isinstance(fit, type):
        return due, Advice(kind="continue"), fit
    t_star = estimate_crossing(fit, reservation, 1.0)
    if t_star is None:
        return due, Advice(kind="terminate-unprofitable"), fit
    return due, Advice(kind="acceptance-forecast", t_star=t_star * profile.deadline), fit


def test_incremental_state_matches_the_rebuilt_series_randomized():
    # after each incoming row past warm-up, advise on the rows so far equals
    # the advice rebuilt from them, whether or not the gate is open
    rng = random.Random(2024)
    kinds = set()
    broken_calls, skipped = 0, 0
    for _ in range(300):
        reservation = rng.choice((None, rng.uniform(0.0, 100.0)))
        profile = ladder_profile(deadline=rng.randint(5, 60), reservation=reservation)
        table = OfferTable(profile)
        warmup = rng.randint(0, 6)
        start, slope = rng.uniform(0.0, 100.0), rng.uniform(-1.0, 1.5)
        on_ladder = rng.random() < 0.3  # multiples of 10: ties, zeros and flat runs
        faulty = rng.random() < 0.3
        # a list of rows stands in for the trace, so that rounds can go backwards
        rows, broken, last_time = [], False, None
        for r in range(rng.randint(1, 80)):
            if rng.random() < 0.5:
                own = OfferVector({"value": "p9"})
                rows.append(TraceRow(r, profile.agent_id, own, 90.0, 10.0, "offer"))
            else:
                u = min(max(start + slope * r + rng.gauss(0.0, 3.0), 0.0), 100.0)
                u = float(round(u, -1)) if on_ladder else u
                round_no = r
                if faulty and rng.random() < 0.05:
                    u = rng.choice((100.5, -1.0, math.nan))
                if faulty and last_time is not None and rng.random() < 0.05:
                    round_no = rows[-1].round if rows[-1].proposer == "opponent" else r - 2
                time = round_no / profile.deadline
                out_of_order = last_time is not None and time <= last_time
                broken = broken or out_of_order or not 0 <= u <= 100
                last_time = time
                theirs = OfferVector({"value": "p5"})
                rows.append(TraceRow(round_no, "opponent", theirs, 100.0 - u, u, "offer"))
                due, expected, fit = rebuilt_advice(rows, profile, warmup)
                if expected is None:
                    kinds.add("warm-up")
                    continue
                advice = advise(rows, table)
                assert advice == expected
                skipped += fit is not None and not due
                if broken:
                    assert advice.kind == "continue"
                    broken_calls += 1
                kinds.add(advice.kind)
    assert kinds == {"warm-up", "continue", "terminate-unprofitable", "acceptance-forecast"}
    assert broken_calls > 100
    assert skipped > 1000


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_lstsq_is_numpys_lstsq_bit_for_bit():
    rng = np.random.default_rng(31)
    for n in range(3, 301):
        t = np.sort(rng.uniform(0.0, rng.choice((1.0, 3.0)), n))
        u = rng.uniform(0.0, 100.0, n)
        for width in (2, 3):
            design = np.column_stack([np.ones(n), t, t**2][:width])
            expected = np.linalg.lstsq(design, u, rcond=None)[0]
            assert same_bits(_lstsq(design, u), expected), (n, width)


def test_lstsq_rejects_and_truncates_as_numpy_does():
    # repeated times (spread 0) are rank deficient; times a hair apart put
    # the smallest singular value near lstsq's cut-off
    rng = np.random.default_rng(32)
    ranks = set()
    for spread in (0.0, *np.logspace(-16, -6, 400)):
        n = int(rng.integers(3, 40))
        t = 0.5 + np.sort(rng.uniform(0.0, spread, n))
        u = rng.uniform(0.0, 100.0, n)
        for width in (2, 3):
            design = np.column_stack([np.ones(n), t, t**2][:width])
            expected, _, rank, _ = np.linalg.lstsq(design, u, rcond=None)
            ranks.add((width, rank))
            if rank < width:
                with pytest.raises(DegenerateDataError, match="singular"):
                    _lstsq(design, u)
            else:
                assert same_bits(_lstsq(design, u), expected), (spread, n, width)
    assert {(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)} <= ranks


@pytest.mark.parametrize("first_time, zero_utility_at", [(0.0, None), (0.01, None), (0.01, 40)])
@pytest.mark.parametrize("chunk", [1, 3, 16])
def test_grown_columns_fit_as_the_one_shot_series(first_time, zero_utility_at, chunk):
    # advise rebuilds its series from the trace at each fit: the series of a
    # prefix grown chunk points at a time fits as each family's fit of its
    # columns, and t = 0 or u = 0 anywhere makes power inadmissible from then on
    rng = random.Random(5)
    points = [(first_time, rng.uniform(1.0, 100.0))]
    for i in range(1, 71):
        u = 0.0 if i == zero_utility_at else rng.uniform(1.0, 100.0)
        points.append((points[-1][0] + rng.uniform(0.001, 0.05), u))
    for lo in range(0, len(points), chunk):
        grown = series(*points[: lo + chunk])
        positive = first_time > 0 and (zero_utility_at is None or len(grown) <= zero_utility_at)
        assert grown.positive == positive
        if len(grown) >= 3:
            t, u = np.array(grown.times), np.array(grown.utilities)
            fits = [_fit(family, t, u) for family in FAMILIES if positive or family != "power"]
            assert [fit_regression(grown, fit.family) for fit in fits] == fits
            assert select_model(grown) in fits
    assert grown.positive == (first_time > 0 and zero_utility_at is None)


def test_advise_in_sessions_matches_the_one_shot_fit_randomized(monkeypatch):
    # at every responding round, run_session calls advise exactly where the
    # reference's gate is open, advise equals a from-scratch fit of the
    # opponent's offers so far, and the session ends unprofitable exactly
    # where that fit says so; a replay with one observation corrupted covers
    # series that break a rule
    rng = random.Random(8080)
    calls, invalid_calls, skipped, kinds = 0, 0, 0, set()
    live_advise = protocol.advise
    advised = {}  # (agent, round) -> the advice run_session got

    def recorded_advise(trace, table):
        advice = live_advise(trace, table)
        advised[table.profile.agent_id, len(trace)] = advice
        return advice

    monkeypatch.setattr(protocol, "advise", recorded_advise)
    for n in range(200):
        # longer deadlines than random_profile's give longer series
        a = replace(random_profile(rng, "a"), deadline=rng.randint(5, 60))
        b = replace(rerated(rng, a, "b"), deadline=rng.randint(5, 60))
        warmup = rng.randint(0, 5)
        advised.clear()
        _, trace = run_session(
            a, b, random_tactic(rng), random_tactic(rng),
            predictor_config=PredictorConfig(enabled=True, warmup=warmup),
            max_rounds=rng.randint(10, 80), opener=rng.choice("ab"),
        )
        rows = trace.rows
        for row in rows[1:]:  # every row from round 1 on answers the standing offer
            if row.action in ("withdraw", "terminate-threshold", "terminate-diverging"):
                continue  # ended before the predictor's turn
            profile = a if row.proposer == "a" else b
            due, expected, fit = rebuilt_advice(rows[: row.round], profile, warmup)
            advice = advised.pop((row.proposer, row.round), None)
            assert (advice is not None) == due, row
            unprofitable = due and expected.kind == "terminate-unprofitable"
            assert (row.action == "terminate-unprofitable") == unprofitable
            if expected is None:
                continue
            calls += 1
            if due:
                assert advice == expected
                kinds.add(advice.kind)
            else:
                skipped += fit is not None
        assert not advised  # advise was called at no other round
        if n % 2:
            continue
        rows = list(rows)
        # a observes b's offers; corrupt one of them
        observed = [i for i, r in enumerate(rows) if r.proposer == "b" and r.action == "offer"]
        if not observed:
            continue
        i = rng.choice(observed)
        rows[i] = rows[i]._replace(utility_receiver=rng.choice((100.5, -1.0, math.nan)))
        table = OfferTable(a)
        for stop in observed:
            _, expected, _ = rebuilt_advice(rows[: stop + 1], a, warmup)
            if expected is None:
                continue
            advice = advise(rows[: stop + 1], table)
            assert advice == expected
            kinds.add(advice.kind)
            if stop >= i:
                assert advice.kind == "continue"
                invalid_calls += 1
    assert calls > 500 and invalid_calls > 20 and skipped > 100
    assert kinds == {"continue", "terminate-unprofitable", "acceptance-forecast"}


# --- select_model against a reference that fits every admissible family -----


def reference_fit(t: np.ndarray, u: np.ndarray, family: str):
    """One family's ``(a, b, c, sse)`` from ``np.linalg.lstsq`` and the residual
    formulas in :class:`RegressionFit`'s terms."""
    ones = np.ones(len(t))
    if family == "linear":
        design, target = np.column_stack([ones, t]), u
    elif family == "quadratic":
        design, target = np.column_stack([ones, t, t**2]), u
    else:
        design, target = np.column_stack([ones, np.log(t)]), np.log(u)
    if not np.isfinite(design).all():  # LAPACK would fail on it, printing DLASCL errors
        raise DegenerateDataError("non-finite")
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateDataError("singular")
    if family == "linear":
        (a, b), c = coef.tolist(), 0.0
        pred = b * t + a
    elif family == "quadratic":
        c, b, a = coef.tolist()
        pred = a * t**2 + b * t + c
    else:
        log_a, b = coef.tolist()
        try:
            a, c = math.exp(log_a), 0.0
        except OverflowError:
            raise DegenerateDataError("overflow") from None
        pred = a * t**b
    if not all(map(math.isfinite, (a, b, c))):
        raise DegenerateDataError("non-finite")
    return a, b, c, float(((pred - u) ** 2).sum())


def reference_fits(t: np.ndarray, u: np.ndarray) -> dict:
    """``family -> fit``, or the type of the error it raised, for every
    admissible family, simplest first; power needs t > 0 and u > 0."""
    fits = {}
    for family in FAMILIES if np.all(t > 0) and np.all(u > 0) else ("linear", "quadratic"):
        try:
            with np.errstate(all="ignore"):
                fits[family] = reference_fit(t, u, family)
        except DegenerateDataError as exc:
            fits[family] = type(exc)
    return fits


def reference_select_model(fits: dict):
    """The first family's error, if any; else the lowest SSE, ties within
    SSE_TIE_EPS going to the simpler family."""
    for fit in fits.values():
        if isinstance(fit, type):
            return fit
    best_sse = min(sse for *_, sse in fits.values())
    family = next(f for f, (*_, sse) in fits.items() if sse <= best_sse + SSE_TIE_EPS)
    a, b, c, sse = fits[family]
    return RegressionFit(family=family, a=a, b=b, c=c, sse=sse)


def bits(outcome):
    """A fit as its family and the exact bits of its floats, or an error's type."""
    if isinstance(outcome, RegressionFit):
        return outcome.family, *(x.hex() for x in (outcome.a, outcome.b, outcome.c, outcome.sse))
    return outcome


def check_against_reference(cols: ObservationSeries):
    """Assert that select_model gives the reference's fit, or raises its error
    type, bit for bit; return the reference's outcome."""
    fits = reference_fits(np.array(cols.times), np.array(cols.utilities))
    expected = reference_select_model(fits)
    assert bits(fit_or_error(cols)) == bits(expected), (cols.times, cols.utilities)
    return expected


def answered_past_warmup(workload):
    """Per session of a synthetic perfbench workload: its outcome, and for
    each responding round past the responder's warm-up that reaches the
    predictor's gate, the responder's reservation, the offer answered and the
    series of the opponent's offers so far, rebuilt from the trace."""
    warmup = workload.predictor.warmup
    for key in range(workload.units):
        outcome, trace = workload.run(key)
        profiles = {p.agent_id: p for p in workload.sessions[key][:2]}
        rows, answers = trace.rows, []
        for row in rows[1:]:
            if row.action in ("withdraw", "terminate-threshold", "terminate-diverging"):
                continue
            profile = profiles[row.proposer]
            points = opponent_points(rows[: row.round], profile)
            if len(points) >= warmup:
                answered = rows[row.round - 1]
                answers.append((reservation_utility(profile), answered, series(*points)))
        yield outcome, answers


def test_select_model_matches_the_reference_on_every_long_horizon_fit():
    # the benchmark's seed-1 long_horizon sessions, with the series of every
    # responding round past warm-up checked, whether or not the gate fits it;
    # where the offer answered is above the reservation and nothing is fitted,
    # the fit would not have terminated the thread either, so no benchmark
    # verdict changes
    from perfbench import workloads

    checked, skipped = 0, 0
    for _, answers in answered_past_warmup(workloads.make("long_horizon", 1, None)):
        for reservation, answered, cols in answers:
            checked += 1
            expected = check_against_reference(cols)
            if answered.utility_receiver > reservation:
                skipped += 1
                assert isinstance(expected, type) or (
                    estimate_crossing(expected, reservation, 1.0) is not None
                ), (cols.times, cols.utilities, reservation)
    assert checked > 20_000 and skipped > 0.9 * checked


def test_long_horizon_fits_rarely_and_ends_the_same_sessions(monkeypatch):
    # seed 1: nearly every responding round past warm-up answers an offer above
    # the reservation and fits nothing, the gate fits at every other one, and the
    # 14 sessions whose offers sit flat at the reservation end unprofitable
    from perfbench import workloads

    live_select_model = prediction.select_model
    active, due, fits, reasons = 0, 0, 0, []

    def counted_select_model(cols):
        nonlocal fits
        fits += 1
        return live_select_model(cols)

    monkeypatch.setattr(prediction, "select_model", counted_select_model)
    for outcome, answers in answered_past_warmup(workloads.make("long_horizon", 1, None)):
        reasons.append(outcome.reason)
        active += len(answers)
        due += sum(answered.utility_receiver <= reservation for reservation, answered, _ in answers)
    assert active > 20_000
    assert fits == due <= 0.02 * active
    assert reasons.count("unprofitable") == 14


def test_fit_counts_are_pinned_across_seeds(monkeypatch):
    # select_model calls over each workload's whole pool: the gate in
    # run_session fits exactly where advise fitted when it judged every round
    from perfbench import workloads

    live_select_model, fits = prediction.select_model, 0

    def counted_select_model(cols):
        nonlocal fits
        fits += 1
        return live_select_model(cols)

    monkeypatch.setattr(prediction, "select_model", counted_select_model)
    counts = {}
    for name in ("long_horizon", "large_domain"):
        for seed in range(1, 7):
            fits, workload = 0, workloads.make(name, seed, None)
            for key in range(workload.units):
                workload.run(key)
            counts.setdefault(name, []).append(fits)
    assert counts == {"long_horizon": [233, 244, 253, 259, 244, 217], "large_domain": [0] * 6}


def test_select_model_matches_the_reference_on_hard_series():
    rng = random.Random(11)
    cases = []
    # flat series: every family's SSE is rounding noise, so all tie
    for first in (0.0, 0.005):
        for n in (3, 4, 10, 60):
            for level in (0.0, 37.5, 60.0, 100.0):
                cases.append([(first + i / 200, level) for i in range(n)])
    # times packed into ever narrower ranges, up to a singular design
    for width in np.logspace(-1, -9, 33):
        for start in (0.5, 1.0):
            n = rng.randint(3, 40)
            times = start + np.sort(rng.sample(range(10**6), n)) / 10**6 * width
            cases.append([(float(t), rng.uniform(1.0, 100.0)) for t in times])
    cases += [
        [(0.01, 1.0), (0.0100001, 50.0), (0.0100002, 100.0)],  # power's exp(log a) overflows
        [(0.0, 3.0), (1.0, 4.0), (2.0, 11.0), (3.0, 24.0)],  # t = 0: power is inadmissible
        [(1.0, 0.0), (2.0, 6.0), (3.0, 12.0), (4.0, 13.0)],  # u = 0: likewise
        [(1.0, 10.0), (math.nextafter(1.0, 2.0), 15.0), (1.5, 20.0)],  # times one ulp apart
        # power's a underflows to 0 and t**b overflows, so its SSE is NaN
        [(0.3, 100.0), (0.375, 1e-150), (0.45, 1e-300)],
        [(10**100, 10), (2 * 10**100, 20), (3 * 10**100, 50)],  # t^4 is too large a float
    ]
    for points in cases:
        check_against_reference(series(*points))
    times = [np.array([t for t, _ in points], dtype=float) for points in cases]
    conditions = [np.linalg.cond(np.column_stack([np.ones(len(t)), t, t * t])) for t in times]
    assert sorted(conditions)[-10] > 1e6  # kappa(XᵀX) = kappa(X)² passes 1e12


def test_the_shared_design_at_the_float_edge():
    # from |t| ≈ 1.34e154 on, t² is inf in select_model's shared design while
    # [1, t] stays finite: linear fits those two columns, as np.vander(t, 2), so
    # it fails as that design does (rank 1), not on the quadratic column's inf
    cols = series((2e154, 10.0), (2.5e154, 20.0), (3e154, 30.0))
    t, u = np.array(cols.times), np.array(cols.utilities)
    with np.errstate(over="ignore"):
        design = np.vander(t, 3, increasing=True)
    assert np.isinf(design[:, 2]).all() and np.isfinite(design[:, :2]).all()

    def error(fit):
        with pytest.raises(DegenerateDataError) as info:
            fit()
        return str(info.value)

    expected = error(lambda: _lstsq(np.vander(t, 2, increasing=True), u))
    assert "singular" in expected
    assert error(lambda: _fit("linear", t, u, design)) == expected
    assert error(lambda: fit_regression(cols, "linear")) == expected
    assert error(lambda: select_model(cols)) == expected  # linear is fitted first
    assert error(lambda: _fit("quadratic", t, u, design)) == "design matrix has a non-finite entry"
    check_against_reference(cols)


def near_tie_cases(rng, count):
    """Quadratic series whose linear SSE sits within a few ulps of the tie
    margin: u = 40 + 10 t + k t^2 for the floats k around the crossing."""
    cases = []
    for _ in range(count):
        times = sorted(rng.sample(range(1, 1000), rng.randint(4, 30)))
        # one scale per time, as drawn; sorted, since a series' times must increase
        times = sorted({t / rng.choice((1000, 200)) for t in times})

        def series_for(k):
            return [(t, 40.0 + 10.0 * t + k * t * t) for t in times]

        def linear_wins(k):
            t, u = np.array(series_for(k)).T
            fits = reference_fits(t, u)
            return fits["linear"][3] <= fits["quadratic"][3] + SSE_TIE_EPS

        lo, hi = 0.0, 1.0  # linear wins at k = 0 and loses at k = 1
        while math.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if linear_wins(mid) else (lo, mid)
        k = lo
        for _ in range(4):
            k = math.nextafter(k, 0.0)
        for _ in range(9):
            cases.append(series_for(k))
            k = math.nextafter(k, 2.0)
    return cases


def test_select_model_matches_the_reference_at_near_ties():
    cases = near_tie_cases(random.Random(12), 25)
    columns = [series(*points) for points in cases]
    winners = {select_model(cols).family for cols in columns}
    assert winners == {"linear", "quadratic"}
    for cols in columns:
        check_against_reference(cols)


def test_select_model_matches_the_reference_randomized():
    rng = np.random.default_rng(13)
    for _ in range(1500):
        n = int(rng.integers(3, 150))
        start = rng.choice((0.0, 1 / 250, rng.uniform(0.0, 1.0)))
        times = start + np.cumsum(rng.uniform(0.001, 0.05, n))
        shape = rng.integers(4)
        if shape == 0:  # noise
            u = rng.uniform(0.0, 100.0, n)
        elif shape == 1:  # a concession curve on a ladder of 2.5
            u = 2.5 * np.round((rng.uniform(5, 40) + rng.uniform(-30, 30) * times ** rng.uniform(0.3, 3)) / 2.5)
        elif shape == 2:  # power law with noise
            u = rng.uniform(1, 30) * times ** rng.uniform(-1, 2) + rng.normal(0, rng.choice((0.0, 0.01, 1.0)), n)
        else:  # quadratic with noise
            u = 50 + rng.normal(0, 10) * times + rng.normal(0, 10) * times**2 + rng.normal(0, 0.1, n)
        u = np.clip(u, 0.0, 100.0)
        check_against_reference(series(*zip(times.tolist(), u.tolist())))
