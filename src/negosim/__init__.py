"""negosim: deterministic multi-agent e-negotiation simulator."""

from .domain import (
    DiscretizationScheme,
    Issue,
    IssueOption,
    NegotiationError,
    OfferVector,
    PreferenceProfile,
    discretize,
    enumerate_offers,
    make_profile,
    reservation_utility,
    total_profit,
    validate_profile,
)
from .protocol import (
    Accept,
    Offer,
    SessionOutcome,
    SessionTrace,
    Withdraw,
    check_termination,
    respond,
    run_session,
)
from .tactics import (
    BehaviorDependentTactic,
    MixedTactic,
    ResourceDependentTactic,
    TimeDependentTactic,
    tactic_from_dict,
)
from .prediction import (
    Advice,
    NeuralPredictor,
    ObservationSeries,
    PredictorConfig,
    RegressionFit,
    advise,
    estimate_crossing,
    fit_regression,
    nn_predict,
    nn_train,
    predict_utility,
    select_model,
)
from .coordination import (
    ContractChoice,
    CoordinationPlan,
    SubBuyerResult,
    coordinate_adapted,
    coordinate_desperate,
    coordinate_patient,
    run_one_to_many,
)
from .registry import DiscoveryQuery, ServiceRecord, ServiceRegistry
from .harness import (
    Scenario,
    SummaryStats,
    bundled_scenario,
    compare_prediction,
    load_scenario,
    run_batch,
    write_outputs,
)

__version__ = "0.1.0"
