"""gftkit: numerical verification toolkit for meromorphic convexity.

Exact order-3 jets feed Schwarzian derivatives and disk-sampled family
functionals; a Sturm-type ODE route (y'' + q y = 0) supplies independent
sufficiency, factorization, and sharpness checks; radius and duality
results round out the structural picture.  See README.md for the map.
"""

from .catalog import CatalogEntry, FamilyClaim, catalog_json, cot_scaled, entries, get_entry, names, power_ratio
from .errors import (
    BranchPointOrPole,
    DegenerateMobius,
    DivisionAtZero,
    EvaluationFailed,
    ExprSyntaxError,
    ExtrapolationDiverged,
    GftError,
    LocallyNonUnivalent,
    NonAnalyticSample,
    NonnegativityViolated,
    QuadratureFailed,
    StepSizeUnderflow,
    TargetOutOfRange,
    UnivalenceNotChecked,
    WronskianDrift,
    YVanishes,
)
from .expressions import (
    FunctionExpr,
    LaurentProbe,
    compose_mobius,
    const_expr,
    eval_jet,
    laurent_b_check,
    parse,
    scale_variable,
    var_expr,
)
from .families import (
    B_FAMILIES,
    DiskSampler,
    Family,
    FamilyVerdict,
    functional_value,
    injectivity_spot_check,
    membership,
    order_estimate,
)
from .jets import Jet3, variable
from .numerics import bisect, golden_min, golden_polish, quasi_random_disk, richardson
from .palpha import (
    IntegralCheck,
    OdeSolution,
    PalphaVerdict,
    QFunction,
    SharpnessResult,
    check_palpha,
    constant_solver,
    integral_criterion,
    integrate_ivp,
    integrate_q,
    sharpness_construct,
)
from .radius import (
    RadiusCheck,
    RadiusResult,
    RotationWitness,
    radius_inverse_convexity,
    radius_polynomial,
    rotation_witness,
    verify_radius,
)
from .rays import (
    EquivalenceReport,
    RaySolution,
    ReconstructedMap,
    reconstruct_f_from_y,
    solve_ray,
    starlike_equivalence_check,
    starlike_margin,
)
from .schwarzian import (
    InvarianceCheck,
    NormEstimate,
    invariance_residuals,
    pre_schwarzian,
    schwarzian,
    schwarzian_norm,
    weighted_modulus,
)
from .theorems import (
    CHECK_IDS,
    CheckItem,
    TheoremReport,
    dual_transform,
    verify_duality,
    verify_inclusions,
    verify_sufficiency,
)

__version__ = "0.1.0"
