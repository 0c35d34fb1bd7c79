"""gftkit: numerical verification toolkit for meromorphic convexity.

Exact order-3 jets feed Schwarzian derivatives and disk-sampled family
functionals; a Sturm-type ODE route (y'' + q y = 0) supplies independent
sufficiency, factorization, and sharpness checks; radius and duality
results round out the structural picture.  See README.md for the map.

``import gftkit`` loads no submodule: each exported name is imported from
its module on first use (PEP 562), and is a plain attribute after that.
"""

import importlib
import sys
from types import ModuleType

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "catalog": ("CatalogEntry", "FamilyClaim", "catalog_json", "cot_scaled", "entries",
                "get_entry", "names", "power_ratio"),
    "errors": ("BranchPointOrPole", "DegenerateMobius", "DivisionAtZero", "EvaluationFailed",
               "ExprSyntaxError", "ExtrapolationDiverged", "GftError", "LocallyNonUnivalent",
               "NonAnalyticSample", "NonnegativityViolated", "QuadratureFailed",
               "StepSizeUnderflow", "TargetOutOfRange", "UnivalenceNotChecked",
               "WronskianDrift", "YVanishes"),
    "expressions": ("FunctionExpr", "LaurentProbe", "compose_mobius", "const_expr", "eval_jet",
                    "laurent_b_check", "parse", "scale_variable", "var_expr"),
    "shared": ("B_FAMILIES", "CHECK_IDS", "Family"),
    "families": ("DiskSampler", "FamilyVerdict", "functional_value", "injectivity_spot_check",
                 "membership", "order_estimate"),
    "jets": ("Jet3", "variable"),
    "numerics": ("bisect", "golden_min", "golden_polish", "quasi_random_disk", "richardson"),
    "palpha": ("IntegralCheck", "OdeSolution", "PalphaVerdict", "QFunction", "SharpnessResult",
               "check_palpha", "constant_solver", "integral_criterion", "integrate_ivp",
               "integrate_q", "sharpness_construct"),
    "radius": ("RadiusCheck", "RadiusResult", "RotationWitness", "radius_inverse_convexity",
               "radius_polynomial", "rotation_witness", "verify_radius"),
    "rays": ("EquivalenceReport", "RaySolution", "ReconstructedMap", "reconstruct_f_from_y",
             "solve_ray", "starlike_equivalence_check", "starlike_margin"),
    "schwarzian": ("InvarianceCheck", "NormEstimate", "invariance_residuals", "pre_schwarzian",
                   "schwarzian", "schwarzian_norm", "weighted_modulus"),
    "theorems": ("CheckItem", "TheoremReport", "dual_transform", "verify_duality",
                 "verify_inclusions", "verify_sufficiency"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:  # a submodule, as if the package had imported it
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    """The package until its ``schwarzian`` submodule has loaded.

    The import system sets each submodule it loads as an attribute of its
    package, and ``schwarzian`` is also an exported function, which keeps
    the name in every import order.  A submodule is loaded once, so after
    that the package is a plain module again."""

    def __setattr__(self, name, value):
        if name == "schwarzian" and isinstance(value, ModuleType):
            super().__setattr__(name, value.schwarzian)
            self.__class__ = ModuleType
        else:
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
