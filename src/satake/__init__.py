"""Exact classification of spherical representations by their parameters.

Everything is integer or rational arithmetic: Smith normal forms drive
finitely generated abelian group computations, characters take values in
an exact model of the circle times the positive reals, and parameter
orbits are searched over the generators of the relative Weyl group.
"""

# set before the submodule imports, so that `report` can read it
__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .abelian import FgAbGroup, GroupCharacter, GroupHom, all_characters, \
    character_count, character_idents, coinvariants, cokernel, induced_hom, \
    invariants_of_induced_action, kernel_of_hom, subgroup_coordinates
from .circle import ExactCircle
from .components import CenterCoverCheck, FoldCheck, \
    check_center_covers_components, check_fixed_weyl_is_folded
from .config import ConfigError, GroupConfig, ResolvedGroup, parse_config, \
    resolve, serialize_config
from .kottwitz import Envelope, KottwitzGroup, ParameterClass, \
    SatakeParameter, SphericalSetting, TorusWithAction, build_induced_torus, \
    character_from_dual_point, classify, cochar_torus, descend_to_kottwitz, \
    induced_character, induced_envelope, induced_torus_cocycle, kottwitz_group, \
    kottwitz_hom, maximal_compact_quotient, modulus_character, \
    parameter_from_character, parameters_equal, setting_for_datum, \
    setting_for_torus, weyl_orbit
from .matrices import IntMatrix, LinearSolver, SmithForm, column_span_basis, \
    kernel_basis, linear_solver, smith_normal_form
from .rootdata import BasedRootDatum, CapExceeded, DEFAULT_WEYL_CAP, \
    FoldingError, GaloisAction, PinnedAutomorphism, RestrictedRootData, \
    check_twist_relation, datum_from_simples, detect_type, dual_datum, \
    folded_generators, galois_action, generated_datum, mulclose, \
    pinned_automorphism, restricted_root_data, root_closure, search, \
    validate

__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
