"""covariant-kit: executable transformation laws and commutator checks.

A numpy toolkit that builds Lorentz/Poincare and internal-symmetry
group actions, applies passive/active/frame transformation laws to
sampled fields, extracts generators by differentiating parametrised group
families, and numerically verifies the resulting commutator identities.
"""

from .geometry import (
    ETA,
    PLANES,
    AffineChart,
    AffineMap,
    ChartTransition,
    LorentzTransform,
    PoincareElement,
    chart_transition,
    lorentz_exp,
    lorentz_exp_stack,
    lorentz_generators,
    lorentz_log_params,
    lorentz_residuals,
    minkowski_metric,
    plane_generator,
    transition_jacobian,
)
from .representations import (
    FieldRep,
    GammaBasis,
    homomorphism_check,
    rep_matrix,
    rep_matrix_for_element,
    sigma_tensor,
)
from .fields import (
    FieldFunction,
    FrameChange,
    GridSpec,
    SingularFrameError,
    active_transform,
    cocycle_check,
    constant_field,
    dump_field_csv,
    frame_change_components,
    gradient_fd_residual,
    pairing,
    pairings,
    passive_transform,
    transform_test_function,
    wave_packet,
)
from .generators import (
    FDScheme,
    GeneratorCoefficients,
    ParamFamily,
    analytic_rep_derivatives,
    det_trace_residual,
    extract_all,
    flow_fields,
    internal_family,
    poincare_family,
    poincare_frame_family,
    rep_generators,
    volume_rates,
)
from .heisenberg import (
    GroupoidReport,
    RelationReport,
    ToyOperatorModel,
    charge_unitary,
    frame_independence_check,
    lowering_operator,
    number_operator_model,
    observer_groupoid_check,
    sample_points,
    toy_commutator_check,
    verify_bundle_relation,
    verify_local_relation,
)

__version__ = "0.1.0"
