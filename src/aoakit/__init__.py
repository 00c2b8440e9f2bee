"""Workbench for almost-orthogonal fixed-level arrays.

Evaluation (tolerance/unbalance, D-criteria, L2 discrepancies), algebraic
two-block constructions over small Galois fields, symmetric orbit encodings,
a local Pareto search with a brute-force oracle, and an integer-program
emitter with solution verification.  The ``aoakit`` console script exposes
the same functionality on the command line.
"""

from .arrays import (
    Array,
    bandwidth,
    count_tuple,
    cyclic_oa,
    hamming_similarity,
    is_oa,
    lower_bound_unb22,
    normalized_unbalance,
    random_array,
    rao_max_factors,
    repeat_factors_bounds,
    tolerance,
    trivial_construct,
    unbalance,
    unbalance2_via_hamming,
)
from .constructions import (
    ConstructionSpec,
    ak_ext_even,
    ak_ext_odd,
    ak_half,
    construct,
    gamma_set,
    verify_construction,
)
from .discrepancy import (
    CENTERED,
    MIXTURE,
    WRAPAROUND,
    DdParams,
    cd,
    cd_coupling,
    check_discrepancy_bounds,
    dd,
    dd_lower_bound,
    discrepancy,
    discrepancy_sq,
    md,
    md_coupling,
    points_of,
    wd,
    wd_coupling,
)
from .fileio import (
    ParseError,
    catalog_add,
    catalog_list,
    catalog_recheck,
    parse_array,
    parse_encoding,
    read_array,
    read_encoding,
    serialize_array,
    serialize_encoding,
    write_array,
    write_encoding,
)
from .galois import Field, make_field
from .ipmodel import (
    IpInstance,
    add_symmetry,
    build_model,
    canonical_assignment,
    emit_lp,
    emit_mps,
    exhaustive_optimum,
    parse_lp,
    parse_solution,
    verify_solution,
)
from .metrics import (
    LevelContrast,
    check_dcriterion_bounds,
    d1,
    d2,
    d_phi_theta,
    d_value,
    default_contrast,
    design_matrix,
    j2,
)
from .search import (
    ParetoFront,
    SearchConfig,
    brute_force_optimum,
    local_pareto_search,
)
from .symmetry import (
    GroupElement,
    SymmetricEncoding,
    act,
    bicyclic_generator,
    compress,
    equivalent,
    expand,
    is_automorphism,
    klein_generator,
    semicyclic_generator,
)

from ._version import __version__
