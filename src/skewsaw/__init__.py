"""Weighted self-avoiding walks on the skewed square lattice.

Exact enumeration with integrable plaquette weights, plus numerical
verification of the local contour relations, the parallelogram and
strip boundary identities, the hexagon flip property and the honeycomb
specialisation.
"""

__version__ = "0.1.0"

from .geometry import (
    MidEdge,
    ParallelogramDomain,
    PlaquetteState,
    Rhombus,
    Step,
    step_candidates,
)
from .walks import (
    HONEYCOMB_RULE,
    LengthRule,
    UNIT_RULE,
    Walk,
    build_walk,
    enumerate_walks,
    walk_from_dump,
    walk_to_dump,
    weight_of,
)
from .weights import (
    LocalResiduals,
    WeightSet,
    critical_weights,
    local_residuals,
    loop_parameter,
    on_weights,
    sigma_one_family,
    sigma_weights,
    solve_local_system,
)
from .observable import (
    ObservableTable,
    StripSums,
    bridge_chain_check,
    cr_residual,
    max_cr_residual,
    observable,
    side_coefficients,
    strip_limits,
    strip_sums,
)
from .loops import (
    HexagonInstance,
    hexagon,
    on_observable,
    on_observable_cr_check,
    yang_baxter_residual,
)
from .series import SeriesReport, honeycomb_crosscheck, series_report
