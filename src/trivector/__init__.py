"""Exact-arithmetic toolkit for trivectors in 9 variables and the genus-2
curve data they encode: normal forms, stability tests, Pfaffian rank loci,
characteristic-3 restricted powers, compatible flags, and the certificates
tying them together."""

__version__ = "0.1.0"

from .fields import GF, Q, parse_field
from .linalg import Matrix, is_semisimple, pfaffian, rank_and_kernel
from .trivector import (CurveCoeffs, ProjPoint, Trivector, build_gamma_c,
                        gamma0, gl_act, permuted_gamma_c, phi_at, phi_pencil,
                        standard_cartan_element, weighted_torus_act)
from .heisenberg import heisenberg_invariants
from .stability import (curve_is_smooth, destabilizer_search,
                        stability_verdict_gamma_c)
from .loci import (cubic_of_Y, curve_point_counts, enumerate_rank_locus,
                   interpolate_cubic, jacobian_order_from_counts,
                   pfaffian_cubic, reconstruct_from_pencil,
                   verify_curve_embedding)
from .e8 import GradedE8Element, bracket, restricted_power, three_rank
from .flags import (Flag1368, chern_top_class, flag_compatible, flag_search,
                    standard_flag)

__all__ = [
    "GF", "Q", "parse_field", "Matrix", "is_semisimple", "pfaffian",
    "rank_and_kernel", "CurveCoeffs", "ProjPoint", "Trivector",
    "build_gamma_c", "gamma0", "gl_act", "permuted_gamma_c", "phi_at",
    "phi_pencil", "standard_cartan_element", "weighted_torus_act",
    "heisenberg_invariants", "curve_is_smooth", "destabilizer_search",
    "stability_verdict_gamma_c", "cubic_of_Y",
    "interpolate_cubic", "pfaffian_cubic", "curve_point_counts",
    "enumerate_rank_locus",
    "jacobian_order_from_counts", "reconstruct_from_pencil",
    "verify_curve_embedding", "GradedE8Element", "bracket",
    "restricted_power", "three_rank", "Flag1368", "chern_top_class",
    "flag_compatible", "flag_search", "standard_flag",
]
