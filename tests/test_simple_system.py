"""Root data read from the simple system first: the Cartan matrix against
one dot product per entry, the seed certificate of a pinned automorphism
against the root-by-root report, and the folded generators by simple
coefficients against the positive-root oracle, on the grid presets,
`random_twisted_data` and the non-reduced BC1-BC3."""

from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from satake.config import GroupConfig, resolve
from satake.matrices import IntMatrix, kernel_basis
from satake.presets import split_gl
from satake.rootdata import (BasedRootDatum, PinnedAutomorphism,
                             _seed_certificate,
                             folded_generators, generated_datum,
                             pinned_violations, restricted_root_data)
from test_kottwitz import random_twisted_data, unimodular
from test_rootdata import GRID_DATA, simple_root_orbits


def bc_config(n):
    """BC_n, the non-reduced fold of flip A_2n, written out as a config
    and resolved."""
    rg = resolve(preset=f"flip A{2 * n}")
    full = restricted_root_data(rg.datum, rg.action.tau).datum
    return resolve(GroupConfig(roots=full.roots, coroots=full.coroots,
                               simple=full.simple_indices))


BC_DATA = {f"BC{n}": bc_config(n) for n in (1, 2, 3)}
POOL = {**GRID_DATA, **BC_DATA}
groups = st.one_of(st.sampled_from(sorted(POOL)).map(POOL.get),
                   random_twisted_data().map(resolve))


def dot_cartan(datum):
    """The oracle for `BasedRootDatum.cartan`: <alpha_i, alpha_j^> as one
    dot product per entry."""
    return tuple(tuple(sum(map(mul, a, bv)) for _, bv in datum.simple_pairs)
                 for a, _ in datum.simple_pairs)


@pytest.mark.parametrize("name", [*sorted(POOL), "split GL100"])
def test_the_cartan_matrix_is_the_pairings_of_the_simple_pairs(name):
    datum = POOL[name].datum if name in POOL else resolve(preset=name).datum
    assert datum.cartan == dot_cartan(datum)


@settings(max_examples=25, deadline=None)
@given(config=random_twisted_data())
def test_the_cartan_matrix_is_the_pairings_on_random_data(config):
    datum = resolve(config).datum
    assert datum.cartan == dot_cartan(datum)


def test_the_bc_configs_are_non_reduced():
    for name, rg in BC_DATA.items():
        doubles = {tuple(2 * v for v in a) for a in rg.datum.roots}
        assert doubles & set(rg.datum.roots), name
        assert len(rg.datum.simple_indices) == int(name[2:])


def central_shears(datum):
    """The involutions x -> x - <x, f> v that fix every root: f in the
    annihilator of the roots with an entry f_c of +-1 or +-2, and
    v = (2 / f_c) e_c + a simple root, so <v, f> = 2.  Their duals
    y -> y - <v, y> f move the coroots that v pairs with, off the
    coroots."""
    n = datum.rank
    annihilator = kernel_basis(IntMatrix(datum.roots, ncols=n)).columns()
    shears = []
    for f in annihilator:
        for c in (c for c in range(n) if f[c] in (1, -1, 2, -2)):
            for a in datum.simple_roots():
                v = [2 // f[c] * (k == c) + a[k] for k in range(n)]
                shears.append(IntMatrix([[int(i == j) - v[i] * f[j]
                                          for j in range(n)]
                                         for i in range(n)]))
    return shears


@st.composite
def automorphisms(draw):
    """A group and a finite-order lattice automorphism of its datum: one
    of its pinned tau and sigma, as it is, negated, after a simple
    reflection, or a signed permutation or a central shear (which fixes
    the roots but not the coroots) instead; then perhaps conjugated by a
    random g in GL_n(Z).  Most are not pinned."""
    rg = draw(groups)
    datum, n = rg.datum, rg.datum.rank
    matrix = draw(st.sampled_from((rg.action.tau, rg.action.sigma))).matrix
    kind = draw(st.sampled_from(("pinned", "negated", "reflected",
                                 "signed", "sheared")))
    shears = central_shears(datum) if kind == "sheared" else []
    if shears:
        matrix = draw(st.sampled_from(shears))
    elif kind == "negated":
        matrix = -matrix
    elif kind == "reflected":
        matrix = datum.reflection_matrix(draw(st.sampled_from(
            datum.simple_indices))) @ matrix
    elif kind == "signed":
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n,
                              max_size=n))
        matrix = IntMatrix([[signs[i] if perm[i] == j else 0
                             for j in range(n)] for i in range(n)])
    if draw(st.booleans()):
        g, inverse = draw(unimodular(n))
        matrix = g @ matrix @ inverse
    return datum, PinnedAutomorphism(matrix, matrix.multiplicative_order())


@settings(max_examples=150, deadline=None)
@given(case=automorphisms())
def test_the_seed_certificate_holds_exactly_when_nothing_is_violated(case):
    datum, aut = case
    assert _seed_certificate(datum, aut) == (pinned_violations(datum, aut)
                                             == [])


def test_the_seed_certificate_fails_with_each_report():
    """Each way to fail: -1 sends simple roots to negative roots, a sign
    change sends roots off the roots, and on GL2 the involution
    [[-1, -2], [0, 1]] fixes both roots but not their coroots."""
    gl2, gl3 = split_gl(2), split_gl(3)
    cases = ((gl3, IntMatrix.diagonal([-1, -1, -1]), "simple root"),
             (gl3, IntMatrix.diagonal([-1, 1, 1]), "image of root"),
             (gl2, IntMatrix([[-1, -2], [0, 1]]), "coroot of root"))
    for datum, matrix, problem in cases:
        aut = PinnedAutomorphism(matrix, 2)
        assert not _seed_certificate(datum, aut)
        assert any(p.startswith(problem)
                   for p in pinned_violations(datum, aut)), problem


@pytest.mark.parametrize("name", sorted(POOL))
def test_the_pinned_actions_pass_by_their_seeds(name):
    """tau and sigma of each preset and BC config pass the certificate,
    and on a generated datum it reads no root beyond the simple ones."""
    rg = POOL[name]
    for aut in (rg.action.tau, rg.action.sigma):
        assert _seed_certificate(rg.datum, aut)
    if rg.datum.simple_pairs:
        simples, cosimples = zip(*rg.datum.simple_pairs)
        fresh = generated_datum(simples, cosimples)
        assert _seed_certificate(fresh, rg.action.tau)
        assert "_lists" not in vars(fresh)


def folded_generators_by_positive_roots(datum, *automorphisms):
    """The oracle for `folded_generators`: the same descent, testing
    w(alpha_j) > 0 by looking the image up among the positive roots."""
    roots, coroots, n = datum.roots, datum.coroots, datum.rank
    positive = {roots[i] for i in datum.positive_indices}
    out = []
    for orbit in simple_root_orbits(datum, *automorphisms):
        members = sorted(orbit)
        w = IntMatrix.identity(n).data
        while True:
            for j in members:
                image = tuple(sum(map(mul, row, roots[j]))
                              for row in w)
                if image in positive:
                    break
            else:
                break
            w = tuple(tuple([x - c * y for x, y in zip(row, coroots[j])])
                      if c else row for row, c in zip(w, image))
        out.append(IntMatrix(w, ncols=n))
    return out


def assert_folding_matches_the_oracle(rg):
    for auts in ((), (rg.action.tau,), (rg.action.tau, rg.action.sigma)):
        assert (folded_generators(rg.datum, *auts)
                == folded_generators_by_positive_roots(rg.datum, *auts))


@pytest.mark.parametrize("name", sorted(POOL))
def test_coefficient_folding_matches_the_positive_roots(name):
    assert_folding_matches_the_oracle(POOL[name])


@settings(max_examples=25, deadline=None)
@given(config=random_twisted_data())
def test_coefficient_folding_matches_the_positive_roots_on_random_data(
        config):
    assert_folding_matches_the_oracle(resolve(config))


@pytest.mark.parametrize("name", ["flip A4", "flip A6", "flip D4",
                                  "triality D4"])
def test_coefficient_folding_matches_on_the_folds(name):
    """The restricted data of the folds, BC2, BC3, the B3 of flip D4 and
    the G2 of triality D4, both full and reduced, with no automorphism."""
    rg = resolve(preset=name)
    folded = restricted_root_data(rg.datum, rg.action.tau)
    for datum in (folded.datum, folded.reduced_datum):
        assert (folded_generators(datum)
                == folded_generators_by_positive_roots(datum))
        assert folded_generators(datum) == folded_generators(
            BasedRootDatum(*datum))


def test_a_generated_datum_checks_its_pairs_when_it_closes():
    """A generated datum refuses unpaired simple roots at once, and the
    rest of what the closure checks on the first read of its roots."""
    with pytest.raises(ValueError, match="one coroot per simple root"):
        generated_datum([(1, -1), (0, 1)], [(1, -1)])
    bad = generated_datum([(2,)], [(2,)])
    with pytest.raises(ValueError, match="must be 2"):
        bad.roots
    a2 = generated_datum([(1, -1, 0), (0, 1, -1)], [(1, -1, 0), (0, 1, -1)])
    assert "_lists" not in vars(a2) and a2.rank == 3
    assert a2 == split_gl(3)._replace(label="") and len(a2.roots) == 6
