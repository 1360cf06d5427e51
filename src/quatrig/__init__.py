"""quatrig: quaternion algebra censuses, Brauer-class arithmetic over Q and
quadratic fields, hyperbolic volume/length formulas, and effective rigidity
experiments, all in exact or precision-tracked arithmetic."""

__version__ = "0.1.0"

from .arith import (
    PellSolution,
    SieveTable,
    chebyshev_theta,
    class_number,
    class_number_imaginary,
    dirichlet_L,
    kronecker_symbol,
    pell_fundamental,
    ramanujan_sum,
    zeta_k_at_2,
)
from .brauer import (
    CentralSimpleAlgebraQ,
    QuaternionAlgebraL,
    QuaternionAlgebraQ,
    descends,
    disc_norm,
    embeds,
    is_restriction,
    iso,
    make_csa,
    opposite,
    parse_ram_set,
    parse_ram_set_l,
    restrict,
    tensor_class,
)
from .census import (
    CountTable,
    count_division,
    count_quat_with_subfields,
    fundamental_discriminant_count,
    smallest_inert_prime,
    splitting_density,
)
from .fields import (
    INFINITY,
    PlaceQ,
    QuadraticField,
    QuadraticInteger,
    QuadraticPlace,
    SplittingType,
    basis_bound,
    height,
    make_field,
    places_above,
    regulator,
    splitting,
)
from .geometry import (
    CommensurabilityClass,
    GeodesicDatum,
    class_census_fuchsian,
    class_census_with_lengths,
    coarea_maximal_order,
    covolume_kleinian,
    disc_bound_from_volume,
    fuchsian_classes,
    geodesic_census,
    geodesic_from_field,
    length_from_trace,
    minimal_covolume_cf,
    rational_classes,
    surface_census,
    trace_from_length,
)
from .asymptotics import (
    delta_mn,
    delta_n,
    embed_constant_general,
    embed_constant_r1,
    embed_quads_lower_bound,
    prediction_report,
)
from .rigidity import (
    BoundReport,
    brauer_rigidity_bound,
    chlr_length_bound,
    distinguish_brauer_pairs,
    distinguish_quaternions,
    grunwald_wang_conductor_bound,
    length_preserving_family,
    limit_pair,
    mcreid_area_bound,
    recognizing_bound,
    rigidity_scan,
)
