"""beliefnet: discrete Bayesian networks for categorical survey data.

Learn structure from data (AIC-scored tabu search with bootstrap model
averaging), fit Dirichlet-smoothed parameters, answer exact queries by
variable elimination, and quantify influence with Sobol variance
decomposition and one-way CPT sensitivity.
"""

from .analysis import (
    CptParameterId,
    DirectedShift,
    ScenarioDef,
    ScenarioResult,
    SobolMatrix,
    SobolResult,
    TornadoBar,
    influence_colors,
    node_influence,
    perturb_parameter,
    scenario_posteriors,
    sensitivity_slope,
    sobol_first_order,
    sobol_matrix,
    tornado,
)
from .data import (
    CountTable,
    DataTable,
    RawTable,
    RecodeSpec,
    ThemeSpec,
    VariableRecode,
    collapse_rare,
    counts,
    drop_incomplete,
    group_themes,
    load_csv,
    load_datatable,
    recode,
    save_datatable,
    split_population,
)
from .errors import BeliefnetError
from .inference import (
    Factor,
    QueryResult,
    conditional_table,
    fit_bayes,
    fit_mle,
    posterior,
    sample,
)
from .learn import (
    ArcStrengthTable,
    Constraints,
    TabuConfig,
    TabuLog,
    averaged_network,
    bootstrap_strengths,
    l1_threshold,
    optimal_threshold,
    tabu_search,
    tiers_to_blacklist,
)
from .model import (
    CategoricalVariable,
    Cpt,
    Dag,
    Evidence,
    FittedNetwork,
    TierSpec,
    d_separated,
    joint_probability,
    parameter_count,
    topological_order,
)
from .modelio import deserialize, export_dot, load, save, serialize
from .scores import ScoreCache, local_loglik, local_score, score

__version__ = "0.1.0"
