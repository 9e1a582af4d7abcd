"""Total cut complexes and bounded independence complexes of simple graphs,
with exact integer homology and theorem-verification suites."""

from .graphs import (
    Graph,
    GraphFormatError,
    chordal_elimination,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    from_descriptor,
    girth,
    graph_from_json,
    graph_power,
    graph_to_json,
    grid,
    independence_number,
    induced_subgraph,
    path,
    rook,
)
from .complexes import (
    SimplicialComplex,
    alexander_dual,
    bounded_independence_complex,
    complex_from_json,
    complex_intersection,
    complex_to_json,
    complex_union,
    deletion,
    full_simplex,
    is_skeleton_full,
    join,
    link,
    relabel_complex,
    simplex_boundary,
    skeleton,
    total_cut_complex,
    void_complex,
)
from .homology import (
    ChainComplex,
    HomologyProfile,
    WedgeClaim,
    alexander_duality_holds,
    chain_complex,
    cohomology_from_homology,
    matches_wedge,
    reduced_homology,
    relative_homology,
    verify_alexander_duality,
)
from .limits import SizeCapError
from .posets import (
    CompositionPoset,
    composition_poset,
    compositions,
    order_complex,
)
from .report import ReportEntry, VerificationReport
from .snf import bareiss_rank, smith_normal_form, smith_normal_form_dense
from .verify import SUITES, run_all

__version__ = "0.1.0"
