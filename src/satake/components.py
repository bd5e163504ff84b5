"""Component groups of fixed points of diagonalizable groups.

Everything is computed on character groups: the fixed-point subgroup D^tau
of a diagonalizable group D with character group M has character group
M_tau (the coinvariants), and pi_0(D^tau) is the Pontryagin dual of the
torsion of M_tau.  The surjectivity of pi_0(Z^tau) -> pi_0(T^tau)
dualizes to injectivity of a torsion map, decided by its kernel.
"""

from collections import namedtuple

from .abelian import coinvariants, cokernel, induced_hom, kernel_of_hom
from .matrices import IntMatrix, hstack
from .rootdata import (DEFAULT_WEYL_CAP, _gather, folded_generators,
                       root_permutation, search, weyl_walk)


class CenterCoverCheck(namedtuple("CenterCoverCheck", "surjective pi0_torus"
                                  " pi0_center kernel_witness")):
    """Verdict for pi_0(Z^tau) ->> pi_0(T^tau) with a witness on failure:
    `kernel_witness` is the first generator of the kernel of the torsion
    map, in the torsion coordinates of the cochar coinvariants, if that
    kernel is nontrivial, else ()."""

    __slots__ = ()


def check_center_covers_components(datum, tau):
    """Check that the center's components cover the torus's components.

    Dual formulation: the torsion of the cochar coinvariants must inject
    into the coinvariants of the central quotient (cochars modulo the
    coroot span Q^, which the coroots of the datum's `seed_pairs` span,
    also for non-reduced data), X^ / (Q^ + (tau^ - 1) X^): the torsion
    map's `kernel_of_hom` must be trivial.
    """
    n = datum.rank
    dual_tau = tau.dual()
    ct = coinvariants(dual_tau)
    coroots = [bv for _, bv in datum.seed_pairs()]
    cz = cokernel(hstack(IntMatrix.from_columns(coroots, nrows=n),
                         dual_tau - IntMatrix.identity(n)))
    torsion, incl = ct.torsion_subgroup()
    kernel, kernel_incl = kernel_of_hom(
        induced_hom(ct, IntMatrix.identity(n), cz).compose(incl))
    witness = kernel_incl.matrix.column(0) if kernel.ngens else ()
    return CenterCoverCheck(surjective=not witness,
                            pi0_torus=torsion,
                            pi0_center=cz.torsion_subgroup()[0],
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
    at the first simple root, tested first by two lookups.  The walk's
    refusal past the cap comes first, when it yields the identity."""
    walk = weyl_walk(datum, cap)
    fixed = {next(walk)}
    t = root_permutation(tau.matrix, datum.roots)
    at_simples = _gather(datum.simple_indices)
    at_images = _gather(at_simples(t))  # p -> w(tau alpha_j), each j
    s = datum.simple_indices[0] if datum.simple_indices else None
    fixed.update(p for p in walk if (s is None or p[t[s]] == t[p[s]])
                 and at_images(p) == _gather(at_simples(p))(t))
    moves = [_gather(root_permutation(w, datum.roots))
             for w in folded_generators(datum, tau)]
    folded = set(search([tuple(range(len(datum.roots)))], moves,
                        lambda p, move: move(p), cap, "group enumeration"))
    return FoldCheck(folded == fixed, len(fixed), len(folded))
