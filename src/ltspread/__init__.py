"""Linear triple systems: construction, propagation, and extremal tools.

A linear triple system pairs up to one block with every vertex pair.  This
package builds the classic families (Steiner systems, spreading systems on
6p+3 vertices, crowned systems, Cayley-table systems, star expansions),
checks the propagation properties (spreading, weak spreading, strong
connectivity, neighbourhood expansion) with deterministic witnesses,
searches for minimum weakly spreading systems at small orders, and
computes the related density bound constants.
"""

from .bounds import (
    BoundsReport,
    ResidueSet,
    bounds_report,
    construction_density,
    lower_bound_constants,
    residues,
    restricted_sumset,
    sumset,
    tau,
    tau_objective,
)
from .closure import (
    ExpanderReport,
    PropertyVerdict,
    closure,
    expander_deficiency,
    is_spreading,
    is_strongly_connected,
    is_weakly_spreading,
    neighbourhood,
)
from .constructions import (
    bose_skolem,
    cayley_latin,
    crowning,
    from_latin_square,
    spreading_6p3,
    star_expansion,
)
from .core import Pair, Triple, TripleSystem, build_system
from .errors import (
    BudgetExceeded,
    DegenerateTriple,
    DuplicatePairCoverage,
    LtsError,
    OutOfRange,
    ParseError,
    ValidationError,
    VertexOutOfRange,
)
from .extremal import SearchResult, min_weakly_spreading, ordering_witness

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "TripleSystem",
    "Triple",
    "Pair",
    "build_system",
    "neighbourhood",
    "closure",
    "is_spreading",
    "is_weakly_spreading",
    "is_strongly_connected",
    "expander_deficiency",
    "PropertyVerdict",
    "ExpanderReport",
    "bose_skolem",
    "spreading_6p3",
    "crowning",
    "cayley_latin",
    "from_latin_square",
    "star_expansion",
    "SearchResult",
    "min_weakly_spreading",
    "ordering_witness",
    "ResidueSet",
    "residues",
    "sumset",
    "restricted_sumset",
    "tau",
    "tau_objective",
    "BoundsReport",
    "bounds_report",
    "lower_bound_constants",
    "construction_density",
    "LtsError",
    "ValidationError",
    "VertexOutOfRange",
    "DegenerateTriple",
    "DuplicatePairCoverage",
    "BudgetExceeded",
    "OutOfRange",
    "ParseError",
]
