"""Exact-arithmetic Weyl orbit sums, character rings with lambda-operations,
and the combinatorial classification of theta-divisor summands for the
symplectic, special linear and E6 root systems.

Importing the package loads no submodule: each exported name is imported
from its submodule on first access (PEP 562), so a command-line run pays
only for the layers it uses.
"""

from importlib import import_module

# submodule -> the names the package exports from it
_EXPORTS = {
    "brillnoether": ("CaseSpec", "ClassificationReport", "SupportExpr",
                     "classify_summands", "split_sl", "support_dim_hyp",
                     "support_dim_nonhyp_bound", "support_of_orbit"),
    "charring": ("CharElem", "IrrDecomposition", "decompose_into_irreducibles",
                 "freudenthal_character", "multiply", "orbit_char",
                 "tensor_decompose", "unit_char", "weyl_character_direct",
                 "weyl_dimension"),
    "dominance": ("DominanceWitness", "ReductionTrace", "brute_force_reduce",
                  "degree_length", "dominance_compare", "dominant_ideal",
                  "dominant_weights_below", "reduce_e6", "reduce_hyp",
                  "reduce_nonhyp"),
    "errors": ("BudgetExhaustedError", "CertificationError",
               "InvalidInputError", "ResourceCapError"),
    "lambdaring": ("adams", "factors_through_root_lattice",
                   "lambda_power_effective", "lambda_power_virtual",
                   "newton_transforms", "root_lattice_class"),
    "rootsys": ("E6", "RootSystem", "RootSystemKind", "SlA", "SpC",
                "build_root_system", "parse_kind", "weight_from_dynkin"),
    "suites": ("SUITES", "SuiteResult", "run_suite"),
    "weyl": ("OrbitSum", "dominant_projection", "is_dominant", "orbit",
             "orbit_size", "signed_orbit", "weyl_group_order"),
}
# exported name -> the submodule it lives in; a submodule maps to itself
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names)}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
