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
    DataTable,
    RawTable,
    RecodeSpec,
    ThemeSpec,
    VariableRecode,
    collapse_rare,
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
    QueryResult,
    fit_bayes,
    posterior,
    sample,
)
from .learn import (
    ArcStrengthTable,
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
    FittedNetwork,
    TierSpec,
    topological_order,
)
from .modelio import deserialize, export_dot, load, save, serialize

__all__ = [
    "ArcStrengthTable", "BeliefnetError", "CategoricalVariable", "Cpt",
    "CptParameterId", "Dag", "DataTable", "DirectedShift", "FittedNetwork",
    "QueryResult", "RawTable", "RecodeSpec", "ScenarioDef", "ScenarioResult",
    "SobolMatrix", "SobolResult", "TabuConfig", "TabuLog", "ThemeSpec",
    "TierSpec", "TornadoBar", "VariableRecode", "averaged_network",
    "bootstrap_strengths", "collapse_rare", "deserialize", "drop_incomplete",
    "export_dot", "fit_bayes", "group_themes", "influence_colors",
    "l1_threshold", "load", "load_csv", "load_datatable", "node_influence",
    "optimal_threshold", "perturb_parameter", "posterior", "recode", "sample",
    "save", "save_datatable", "scenario_posteriors", "sensitivity_slope",
    "serialize", "sobol_first_order", "sobol_matrix", "split_population",
    "tabu_search", "tiers_to_blacklist", "topological_order", "tornado",
]

__version__ = "0.1.0"
