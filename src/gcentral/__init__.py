"""Group centrality on undirected graphs: degree, closeness, betweenness and
random-walk scores for vertex sets, exact size-k optimum search by subset
enumeration, analytic and Monte-Carlo random-walk hitting times, graph
sampling, and a separating graph family generator.
"""

from .errors import (
    BudgetExceededError,
    GCentralError,
    InputError,
    NumericalError,
    SamplingBudgetError,
    TruncationError,
)
from .graph import (
    Graph,
    VertexSet,
    as_vertex_set,
    format_edge_list,
    is_connected,
    load_edge_list,
    multi_source_distances,
    parse_label_file,
)
from .measures import (
    Measure,
    Score,
    check_upper_bound,
    evaluate,
    group_betweenness,
    group_closeness,
    group_degree,
    group_randomwalk,
)
from .randomwalk import (
    ROUTE_ABSORBING,
    ROUTE_CONTRACTION,
    ROUTE_MONTE_CARLO,
    HittingSolution,
    contract,
    fundamental_matrix,
    hitting_time_set,
    monte_carlo_hitting,
    stationary,
    transition_matrix,
)
from .optimize import (
    CrossMeasureReport,
    OptimumResult,
    cross_measure_report,
    optimumset,
)
from .sampling import (
    FamilyParams,
    GadgetFamily,
    SampleConfig,
    SampleResult,
    generate_family,
    random_walk_sample,
)

__version__ = "0.1.0"
