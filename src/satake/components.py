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

from .abelian import coinvariants, cokernel, induced_hom
from .matrices import IntMatrix, hstack
from .rootdata import (DEFAULT_WEYL_CAP, _gather, folded_generators,
                       root_permutation, search, weyl_walk)


class Pi0Certificate(namedtuple("Pi0Certificate", "group coinvariants")):
    """pi_0 of a fixed-point group, with the coinvariants as witness:
    `group` is finite (trivial iff connected), `coinvariants` is M_tau,
    whose torsion pi_0 dualizes."""

    __slots__ = ()

    def is_connected(self):
        return self.group.is_trivial()


def pi0_fixed(matrix):
    """pi_0(D^tau) for the diagonalizable group D with character group
    Z^n on which tau acts by the automorphism `matrix`: the dual of the
    torsion of the coinvariants M_tau, which is isomorphic to that torsion
    group, so the group itself is returned.

    >>> pi0_fixed(IntMatrix([[-1]])).group.describe()
    'Z/2'
    """
    coinv = coinvariants(matrix)
    torsion, _ = coinv.torsion_subgroup()
    return Pi0Certificate(torsion, coinv)


def check_tad_connected(datum, tau):
    """pi_0 of the tau-fixed points of the adjoint-side torus.

    Its character group is the span of the coroots, on which a pinned tau
    permutes the simple-coroot basis as it permutes the simple roots: the
    coinvariants of a permutation lattice are Z^{#orbits}, torsion-free,
    so the certificate reports connected for every pinned tau.
    """
    return pi0_fixed(IntMatrix.permutation(
        root_permutation(tau.matrix, datum.simple_roots())))


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
    coroot span Q^, which the coroots of the datum's `seed_pairs` span,
    also for non-reduced data), X^ / (Q^ + (tau^ - 1) X^); checked by
    enumerating the finite torsion subgroup.
    """
    n = datum.rank
    dual_tau = tau.dual()
    ct = coinvariants(dual_tau)
    coroots = [bv for _, bv in datum.seed_pairs()]
    cz = cokernel(hstack(IntMatrix.from_columns(coroots, nrows=n),
                         dual_tau - IntMatrix.identity(n)))
    hom = induced_hom(ct, IntMatrix.identity(n), cz)
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
    lie in W and W acts faithfully on its roots.  Only W^tau is kept: w
    commutes with the pinned tau iff w(tau alpha_j) = tau(w alpha_j) for
    each simple alpha_j, as tau w tau^-1 is in W, and an element of W is
    determined by its images of the simple roots.  Most elements fail
    at the first simple root, tested first by two lookups."""
    t = root_permutation(tau.matrix, datum.roots)
    at_simples = _gather(datum.simple_indices)
    at_images = _gather(at_simples(t))  # p -> w(tau alpha_j), each j
    s = datum.simple_indices[0] if datum.simple_indices else None
    fixed = {p for p in weyl_walk(datum, cap)
             if (s is None or p[t[s]] == t[p[s]])
             and at_images(p) == _gather(at_simples(p))(t)}
    moves = [_gather(root_permutation(w, datum.roots))
             for w in folded_generators(datum, tau)]
    folded = set(search([tuple(range(len(datum.roots)))], moves,
                        lambda p, move: move(p), cap, "group enumeration"))
    return FoldCheck(folded == fixed, len(fixed), len(folded))
