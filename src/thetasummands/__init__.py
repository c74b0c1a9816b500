"""Exact-arithmetic Weyl orbit sums, character rings with lambda-operations,
and the combinatorial classification of theta-divisor summands for the
symplectic, special linear and E6 root systems."""

from .brillnoether import (CaseSpec, ClassificationReport, SupportExpr,
                           classify_summands, split_sl, support_dim_hyp,
                           support_dim_nonhyp_bound, support_of_orbit,
                           transpose_partition)
from .charring import (CharElem, IrrDecomposition, char_from_json,
                       decompose_into_irreducibles, freudenthal_character,
                       multiply, orbit_char, tensor_decompose, unit_char,
                       weight_system, weyl_character_direct, weyl_dimension)
from .dominance import (DominanceWitness, ReductionTrace, brute_force_reduce,
                        degree_length, dominance_compare, dominant_ideal,
                        dominant_weights_below, reduce_e6, reduce_hyp,
                        reduce_nonhyp)
from .errors import (BudgetExhaustedError, CertificationError,
                     InvalidInputError, ResourceCapError)
from .lambdaring import (adams, factors_through_root_lattice,
                         lambda_power_effective, lambda_power_virtual,
                         newton_transforms, root_lattice_class)
from .rootsys import (E6, RootSystem, RootSystemKind, SlA, SpC,
                      build_root_system, convert_coordinates, parse_kind,
                      weight_from_dynkin)
from .suites import SUITES, SuiteResult, run_suite
from .weyl import (OrbitSum, dominant_projection, is_dominant, orbit,
                   orbit_size, signed_orbit, weyl_group_order)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
