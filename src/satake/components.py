"""Component groups of fixed points of diagonalizable groups.

Everything is computed on character groups: the fixed-point subgroup D^tau
of a diagonalizable group D with character group M has character group
M_tau (the coinvariants), and pi_0(D^tau) is the Pontryagin dual of the
torsion of M_tau.  Connectedness claims therefore reduce to Smith-normal-
form torsion computations, and the surjectivity of pi_0(Z^tau) ->
pi_0(T^tau) dualizes to injectivity of a torsion map checked by direct
enumeration.
"""

from collections import namedtuple

from .abelian import (FgAbGroup, GroupHom, cokernel, induced_endomorphism,
                      kernel_of_hom)
from .matrices import IntMatrix
from .rootdata import (DEFAULT_WEYL_CAP, closure, compose,
                       fixed_weyl_subgroup, folded_generators,
                       root_permutation, weyl_group)


class DiagonalizableGroup(namedtuple("DiagonalizableGroup", "char_group tau")):
    """A diagonalizable group given by its character group and a tau action."""

    __slots__ = ()

    def __new__(cls, char_group, tau):
        if tau.source != char_group or tau.target != char_group:
            raise ValueError("action must be an endomorphism of the character group")
        ker, _ = kernel_of_hom(tau)
        if not ker.is_trivial() or not tau.is_surjective():
            raise ValueError("action must be an automorphism")
        return super().__new__(cls, char_group, tau)


def diagonalizable_from_lattice(matrix):
    """Torus case: character group Z^n with an automorphism matrix."""
    g = FgAbGroup.free(matrix.nrows)
    return DiagonalizableGroup(g, GroupHom(g, g, matrix))


class Pi0Certificate(namedtuple("Pi0Certificate", "group coinvariants")):
    """pi_0 of a fixed-point group, with the coinvariants as witness:
    `group` is finite (trivial iff connected), `coinvariants` is M_tau,
    whose torsion pi_0 dualizes."""

    __slots__ = ()

    def is_connected(self):
        return self.group.is_trivial()


def pi0_fixed(dgroup):
    """pi_0(D^tau) as the dual of torsion of the coinvariants M_tau, which
    is isomorphic to that torsion group, so the group itself is returned.

    >>> from .matrices import IntMatrix
    >>> pi0_fixed(diagonalizable_from_lattice(IntMatrix([[-1]]))).group.describe()
    'Z/2'
    """
    coinv = (dgroup.tau - GroupHom.identity(dgroup.char_group)).cokernel_group()
    torsion, _ = coinv.torsion_subgroup()
    return Pi0Certificate(torsion, coinv)


def _simple_coroot_permutation(datum, tau):
    """tau's permutation of the simple coroots, as a matrix in that basis."""
    simples = [datum.roots[i] for i in datum.simple_indices]
    cosimples = [datum.coroots[i] for i in datum.simple_indices]
    k = len(simples)
    cols = []
    for i in range(k):
        img = tau.matrix.apply(simples[i])
        j = simples.index(tuple(img))
        cols.append(tuple(int(t == j) for t in range(k)))
    return IntMatrix.from_columns(cols, nrows=k)


def check_tad_connected(datum, tau):
    """pi_0 of the tau-fixed points of the adjoint-side torus.

    Its character group is the span of the coroots, on which a pinned tau
    permutes the simple-coroot basis; the certificate reports the torsion
    of those coinvariants (empty = connected).
    """
    perm = _simple_coroot_permutation(datum, tau)
    return pi0_fixed(diagonalizable_from_lattice(perm))


class CenterCoverCheck(namedtuple("CenterCoverCheck", "surjective pi0_torus"
                                  " pi0_center kernel_witness")):
    """Verdict for pi_0(Z^tau) ->> pi_0(T^tau) with a witness on failure:
    `kernel_witness` is a nonzero torsion class dying in the quotient, if
    any, else ()."""

    __slots__ = ()


def check_center_covers_components(datum, tau):
    """Check that the center's components cover the torus's components.

    Dual formulation: the torsion of the cochar coinvariants must inject
    into the coinvariants of the central quotient (cochars modulo the
    coroot span); checked by enumerating the finite torsion subgroup.
    """
    n = datum.rank
    dual_tau = tau.dual()
    ct = cokernel(dual_tau - IntMatrix.identity(n))
    if datum.coroots:
        span = IntMatrix.from_columns([list(c) for c in datum.coroots], nrows=n)
    else:
        span = IntMatrix.zeros(n, 0)
    central = cokernel(span)
    tau_central = induced_endomorphism(central, dual_tau)
    cz = (tau_central - GroupHom.identity(central)).cokernel_group()
    # composed map: coinvariants of X^ -> central quotient -> its coinvariants
    hom = GroupHom(ct, cz, cz.proj @ central.proj @ ct.lift)
    torsion, incl = ct.torsion_subgroup()
    witness = ()
    for el in torsion.elements():
        if any(el) and hom(incl(el)) == cz.zero():
            witness = el
            break
    tors_z, _ = cz.torsion_subgroup()
    return CenterCoverCheck(surjective=not witness,
                            pi0_torus=torsion,
                            pi0_center=tors_z,
                            kernel_witness=witness)


class FoldCheck(namedtuple("FoldCheck", "match fixed_order folded_order")):
    """Comparison of the tau-fixed Weyl subgroup with the folded group."""

    __slots__ = ()


def check_fixed_weyl_is_folded(datum, tau, cap=DEFAULT_WEYL_CAP):
    """Fixed subgroup W^tau vs the group generated by the folded
    generators, compared as sets of root permutations: exact, since both
    lie in W and W acts faithfully on its roots."""
    fixed = fixed_weyl_subgroup(weyl_group(datum, cap=cap), [tau])
    gens = [root_permutation(w, datum.roots)
            for w in folded_generators(datum, tau)]
    folded = closure(tuple(range(len(datum.roots))), gens, compose, cap)
    return FoldCheck(folded == fixed.permutations, fixed.order, len(folded))
