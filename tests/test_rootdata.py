"""Based root data, pinned automorphisms, Weyl groups, folding."""

import random
import re
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from satake.abelian import coinvariants
from satake.cli import main
from satake.config import GroupConfig, parse_config, resolve, \
    serialize_config
from satake.kottwitz import TorusWithAction, cochar_torus
from satake.matrices import IntMatrix, LinearSolver
from satake.presets import (
    adjoint_d4, d4_flip_matrix, d4_triality_matrix, flip_negate, split_gl,
    split_pgl, split_sl, split_so, split_sp,
)
from satake import rootdata
from satake.components import check_fixed_weyl_is_folded
from satake.rootdata import (
    DEFAULT_WEYL_CAP, ROOT_CAP, BasedRootDatum, CapExceeded, FoldingError,
    PinnedAutomorphism, RestrictedRootData,
    datum_from_simples, detect_type, dual_datum,
    folded_generators, galois_action, mulclose, pinned_automorphism,
    pinned_violations, restricted_root_data, root_closure, root_permutation,
    search, validate, weyl_order, weyl_walk,
)
from test_acceptance import TWISTED_SUITE
from test_grid import GRID
from test_matrices import sympy_inverse

SL2 = BasedRootDatum(1, ((2,), (-2,)), ((1,), (-1,)), (0,), label="SL2")


def test_sl2_basics():
    assert validate(SL2) == []
    assert SL2.reflection_matrix(0) == IntMatrix([[-1]])
    assert dual_datum(SL2).reflection_matrix(0) == IntMatrix([[-1]])
    assert weyl_group(SL2).order == 2
    assert SL2.two_rho() == (2,)
    assert SL2.cartan == ((2,),)


def test_dual_datum_involution():
    dual = dual_datum(SL2)    # PGL2 shape
    assert validate(dual) == []
    assert dual_datum(dual).roots == SL2.roots
    dsp = dual_datum(split_sp(4))
    assert set(dsp.roots) == set(split_so(5).roots)
    assert set(dsp.coroots) == set(split_so(5).coroots)


def test_gl_weyl_orders():
    for n, worder in ((2, 2), (3, 6), (4, 24)):
        datum = split_gl(n)
        assert validate(datum) == []
        assert weyl_group(datum).order == worder
        assert weyl_group(dual_datum(datum)).order == worder
    assert split_gl(3).two_rho() == (2, 0, -2)
    assert len(split_gl(4).positive_roots()) == 6


def test_root_closure_builds_full_systems():
    simples = [(1, 0), (0, 1)]                # root-lattice coordinates
    cosimples = [(2, -1), (-1, 2)]            # Cartan matrix columns
    roots, coroots, positive = root_closure(simples, cosimples)
    assert len(roots) == 6
    assert [roots[i] for i in positive] == [(0, 1), (1, 0), (1, 1)]
    datum = datum_from_simples(simples, cosimples, label="A2")
    assert validate(datum) == []
    assert detect_type(datum) == "A2"


def test_root_closure_rejects_mismatched_coroots():
    with pytest.raises(ValueError):
        root_closure([(2,)], [(2,)])    # <a, a^> must be 2
    # X and X^ have one rank: a coroot longer or shorter than the simple
    # roots is refused, not truncated by the pairing
    with pytest.raises(ValueError):
        datum_from_simples([(1, -1)], [(1, -1, 0)])
    with pytest.raises(ValueError):
        datum_from_simples([(1, -1, 0)], [(1, -1)])


def test_validate_reports_violations():
    broken = BasedRootDatum(1, ((2,),), ((1,),), (0,))
    problems = validate(broken)
    assert problems, "missing -alpha must be flagged"
    assert any("permute" in p for p in problems)


def test_validate_refuses_dependent_simple_roots():
    doubled = BasedRootDatum(1, ((2,), (-2,)), ((1,), (-1,)), (0, 1))
    assert validate(doubled) == ["simple roots are linearly dependent"]
    gl3 = split_gl(3)
    a1, a2 = gl3.simple_roots()
    a12 = gl3.roots.index(tuple(x + y for x, y in zip(a1, a2)))
    three = BasedRootDatum(gl3.rank, gl3.roots, gl3.coroots,
                           gl3.simple_indices + (a12,))
    assert validate(three) == ["simple roots are linearly dependent"]


DATUM_PRESETS = (tuple(sorted(TWISTED_SUITE))
                 + tuple(f"unitary {kind} {n}"
                         for kind in ("ramified", "unramified")
                         for n in range(2, 6))
                 + tuple(f"split {family}{n}"
                         for family in ("GL", "SL", "PGL") for n in range(2, 6))
                 + ("split Sp4", "split Sp6", "split SO5", "split SO8"))


@pytest.mark.parametrize("name", DATUM_PRESETS)
def test_dual_is_the_inverse_transpose(name):
    action = resolve(preset=name).action
    for aut in (action.tau, action.sigma):
        assert aut.dual() == sympy_inverse(aut.matrix).transpose()


@pytest.mark.parametrize("name", DATUM_PRESETS)
def test_unchecked_cochar_torus_passes_the_torus_checks(name):
    """cochar_torus skips the torus checks; building the same torus
    through them gives it back."""
    rg = resolve(preset=name)
    torus = cochar_torus(rg.datum, rg.action)
    assert TorusWithAction(*torus) == torus


@pytest.mark.parametrize("name", DATUM_PRESETS)
def test_resolving_a_datum_preset_checks_each_matrix_once(name, monkeypatch):
    """One determinant and one order search for tau and for sigma each,
    on the character side only; building the setting adds none."""
    calls = {"det": 0, "multiplicative_order": 0}
    for method in calls:
        original = getattr(IntMatrix, method)

        def counted(self, *args, _original=original, _method=method,
                    **kwargs):
            calls[_method] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(IntMatrix, method, counted)
    rg = resolve(preset=name)
    assert calls == {"det": 2, "multiplicative_order": 2}
    rg.setting()
    assert calls == {"det": 2, "multiplicative_order": 2}


def test_pinned_automorphism_checks():
    gl4 = split_gl(4)
    tau = pinned_automorphism(gl4, flip_negate(4))
    assert tau.order == 2
    assert pinned_automorphism(gl4, IntMatrix.identity(4)).order == 1
    with pytest.raises(ValueError):
        pinned_automorphism(gl4, IntMatrix.diagonal([1, 1, 1, -1]))
    with pytest.raises(ValueError):
        pinned_automorphism(gl4, IntMatrix.identity(3))


def test_galois_action_twist_relation():
    gl4 = split_gl(4)
    act = galois_action(gl4, flip_negate(4), IntMatrix.identity(4), twist=1)
    assert act.tau.order == 2
    with pytest.raises(ValueError):
        galois_action(gl4, flip_negate(4), IntMatrix.identity(4), twist=2)
    # unramified: tau = 1, any twist collapses mod 1
    act_u = galois_action(gl4, IntMatrix.identity(4), flip_negate(4), twist=7)
    assert act_u.sigma.order == 2


def test_weyl_cap_is_enforced():
    with pytest.raises(CapExceeded):
        weyl_group(split_gl(4), cap=5)
    with pytest.raises(CapExceeded):
        mulclose([split_gl(4).reflection_matrix(i)
                  for i in split_gl(4).simple_indices], cap=3)


def test_fixed_subgroup_a3_flip():
    gl4 = split_gl(4)
    tau = pinned_automorphism(gl4, flip_negate(4))
    fixed = fixed_weyl_subgroup(weyl_group(gl4), [tau.matrix])
    assert fixed.order == 8


def test_folding_a3_gives_c2():
    gl4 = split_gl(4)
    tau = pinned_automorphism(gl4, flip_negate(4))
    res = restricted_root_data(gl4, tau)
    assert not res.non_reduced
    assert res.type_name == "C2"
    assert len(res.datum.roots) == 8
    assert validate(res.datum) == []
    assert res.datum.rank == 2
    folded = folded_generators(gl4, tau)
    assert len(folded) == 2
    assert len(mulclose(folded)) == 8
    for m in folded:
        assert m @ tau.matrix == tau.matrix @ m


def test_folding_a2_is_non_reduced():
    gl3 = split_gl(3)
    tau = pinned_automorphism(gl3, flip_negate(3))
    res = restricted_root_data(gl3, tau)
    assert res.non_reduced
    assert "A1" in res.type_name and "non-reduced" in res.type_name
    assert len(res.datum.roots) == 4      # {a, -a, 2a, -2a}
    assert len(res.reduced_datum.roots) == 2
    rset = set(res.datum.roots)
    assert any(tuple(2 * v for v in r) in rset for r in rset)
    # single orbit {alpha_1, alpha_2} folds to s1 s2 s1
    gens = folded_generators(gl3, tau)
    assert len(gens) == 1
    s1 = gl3.reflection_matrix(gl3.simple_indices[0])
    s2 = gl3.reflection_matrix(gl3.simple_indices[1])
    assert gens[0] == s1 @ s2 @ s1


def test_folding_a4_gives_bc2():
    gl5 = split_gl(5)
    tau = pinned_automorphism(gl5, flip_negate(5))
    res = restricted_root_data(gl5, tau)
    assert res.non_reduced
    assert "C2" in res.type_name and "non-reduced" in res.type_name
    assert len(res.datum.roots) == 12     # BC2: 4 short + 4 long + 4 divisible
    assert len(res.reduced_datum.roots) == 8


def test_folding_torus_datum():
    torus = BasedRootDatum(3, (), (), ())
    assert validate(torus) == []
    assert weyl_group(torus).order == 1
    res = restricted_root_data(torus, pinned_automorphism(torus, flip_negate(3)))
    assert res.type_name == "torus"
    assert res.datum.rank == 1


FOLDING_FORMS = {"flip A5": 1, "flip D4": 1, "triality D4": 0}


@pytest.mark.parametrize("name", list(FOLDING_FORMS))
def test_folding_takes_one_smith_form(name, monkeypatch):
    """At most one Smith form, for the tau-coinvariants, and none where
    tau permutes the lattice basis (triality D4), whose coinvariants are
    read off the orbits; the folded datum is the closure of its simple
    pairs, which takes none, and no kernel of tau - 1 is computed."""
    from satake import matrices

    rg = resolve(preset=name)
    calls = []
    real = matrices.smith_normal_form

    def counting(matrix, **kwargs):
        calls.append(matrix)
        return real(matrix, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "smith_normal_form", None) is real:
            monkeypatch.setattr(module, "smith_normal_form", counting)
    restricted_root_data(rg.datum, rg.action.tau)
    assert len(calls) == FOLDING_FORMS[name]


def simple_root_orbits(datum, *automorphisms):
    """The orbits on the simple roots of the group the automorphisms
    generate, each as its sorted root indices, in the order of their
    first simple root: the matrices applied until no simple root is
    new."""
    index = {datum.roots[i]: i for i in datum.simple_indices}
    orbits = []
    for i in datum.simple_indices:
        if any(i in orbit for orbit in orbits):
            continue
        orbit, frontier = {i}, {i}
        while frontier:
            frontier = {index[aut.matrix.apply(datum.roots[j])]
                        for j in frontier for aut in automorphisms} - orbit
            orbit |= frontier
        orbits.append(sorted(orbit))
    return orbits


def reference_restricted_root_data(datum, tau):
    """The all-orbit fold, the reference for `restricted_root_data`:
    every tau-orbit of roots gives its one image in the torsion-free
    coinvariants and its coroot sum, doubled on an orbit that spans an
    A2, as a functional there; one image must get one functional; the
    divisible images are dropped for the reduced datum, which `validate`
    then checks."""
    n = datum.rank
    coinv = coinvariants(tau.matrix)
    k, r = coinv.torsion_count, coinv.free_rank
    proj_free = IntMatrix(coinv.proj.data[k:], ncols=n)
    lift_free_t = IntMatrix(coinv.lift.transpose().data[k:], ncols=n)
    root_set = set(datum.roots)
    perm = root_permutation(tau.matrix, datum.roots)
    orbits = []
    for i in range(len(datum.roots)):
        if all(i not in orbit for orbit in orbits):
            orbit = [i]
            while perm[orbit[-1]] != i:
                orbit.append(perm[orbit[-1]])
            orbits.append(orbit)
    restricted = {}
    for orbit in orbits:
        members = [datum.roots[i] for i in orbit]
        a2 = any(tuple(x + y for x, y in zip(a, b)) in root_set
                 for a in members for b in members if a != b)
        cosum = [sum(c) for c in zip(*(datum.coroots[i] for i in orbit))]
        if a2:
            cosum = [2 * c for c in cosum]
        if tau.dual().apply(cosum) != tuple(cosum):
            raise FoldingError("restricted coroot is not tau-invariant")
        image = proj_free.apply(members[0])
        cofun = lift_free_t.apply(cosum)
        if restricted.setdefault(image, cofun) != cofun:
            raise FoldingError("inconsistent coroots for one restricted root")
    roots = sorted(restricted)
    position = {image: i for i, image in enumerate(roots)}
    simple = []
    for j in datum.simple_indices:  # a tau-orbit has one image
        i = position[proj_free.apply(datum.roots[j])]
        if i not in simple:
            simple.append(i)
    full = BasedRootDatum(r, roots, [restricted[b] for b in roots], simple,
                          label="restricted")
    divisible = {b for b in roots if all(v % 2 == 0 for v in b)
                 and tuple(v // 2 for v in b) in restricted}
    reduced = full
    if divisible:
        keep = [b for b in roots if b not in divisible]
        reduced = BasedRootDatum(r, keep, [restricted[b] for b in keep],
                                 [keep.index(roots[i]) for i in simple],
                                 label="restricted (reduced)")
    problems = validate(reduced)
    if problems:
        raise FoldingError("folded images fail root axioms: "
                           + "; ".join(problems))
    name = detect_type(reduced)
    if divisible:
        name = f"BC-type (non-reduced), reduced {name}"
    return RestrictedRootData(proj_free, full, bool(divisible), reduced, name)


def b3_with_its_end_roots_swapped():
    """B3 on the simple roots e_1, e_2, e_3 (coroots (2, 0, -1),
    (0, 2, -2), (-1, -1, 2); e_3 is the middle node, e_2 the short end)
    and the swap of e_1 and e_2: it permutes the simple roots but not the
    roots or the coroots, and the 18 roots have 12 images, as many as
    the G2 that the fold of its simple pairs would close to."""
    datum = datum_from_simples([(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                               [(2, 0, -1), (0, 2, -2), (-1, -1, 2)])
    swap = IntMatrix.permutation([1, 0, 2])
    return datum, PinnedAutomorphism(swap, 2), "simple coroots"


def raw_identity_fold(simples, cosimples, k=None):
    """A datum built raw from the pairs (a, a^) given and their negatives
    alone, the first k of them simple (all by default), folded by the
    identity, which preserves any datum of distinct roots."""
    roots = simples + [tuple(-v for v in a) for a in simples]
    coroots = cosimples + [tuple(-v for v in a) for a in cosimples]
    n = len(simples[0])
    return (BasedRootDatum(n, roots, coroots, range(k or len(simples))),
            PinnedAutomorphism(IntMatrix.identity(n), 1))


@pytest.mark.parametrize("case", [
    # the swap of e_1, e_3 sends the simple roots of GL3 to negative roots
    (split_gl(3), PinnedAutomorphism(IntMatrix.permutation([2, 1, 0]), 2),
     "does not permute the roots"),
    b3_with_its_end_roots_swapped(),
    # affine A1: the closure of the simple pairs passes the 4 images
    raw_identity_fold([(1, 0), (0, 1)], [(2, -2), (-2, 2)])
    + ("root generation: reached 6 roots, over the cap 4",),
    # a second coroot for one root, before the cap
    raw_identity_fold([(-2, -2), (-2, -1)], [(-2, 1), (-2, 2)])
    + ("inconsistent coroots generated",),
    # +-e_2 is no root of the closure of the one simple root e_1
    raw_identity_fold([(1, 0), (0, 1)], [(2, 0), (0, 2)], k=1)
    + ("not the closure's roots",),
], ids=["gl3-swap", "b3-swap", "affine-a1", "inconsistent", "stray-root"])
def test_a_bad_fold_raises_folding_error(case):
    """Every failure of a fold is a FoldingError (exit 1), never the
    CapExceeded (exit 2) or bare ValueError of the closure, also for a
    raw PinnedAutomorphism that is not pinned; the all-orbit reference
    refuses each case too."""
    datum, tau, message = case
    with pytest.raises(FoldingError, match=message):
        restricted_root_data(datum, tau)
    with pytest.raises(FoldingError):
        reference_restricted_root_data(datum, tau)


def test_a_double_takes_half_the_coroot_of_its_root():
    """The double 2b of a restricted root b takes the coroot b^/2; with
    b^ = (2, 1) there is none in the lattice, and the fold is refused.
    The all-orbit reference validates only the reduced datum and lets
    this one pass."""
    datum, tau = raw_identity_fold([(1, 0), (2, 0)], [(2, 1), (1, 0)], k=1)
    with pytest.raises(FoldingError, match=r"coroot b\^/2"):
        restricted_root_data(datum, tau)
    assert reference_restricted_root_data(datum, tau).non_reduced


# coroot j is column j, so cartan[i][j] = F4_CARTAN[i][j]
F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


def _unit_simples(cartan):
    """The simple roots (unit vectors) and coroots (the columns of the
    Cartan matrix) in simple-root coordinates."""
    n = len(cartan)
    return ([tuple(int(i == j) for j in range(n)) for i in range(n)],
            [tuple(row[j] for row in cartan) for j in range(n)])


def split_f4():
    return datum_from_simples(*_unit_simples(F4_CARTAN), label="F4")


def test_detect_type_families():
    f4 = split_f4()
    assert detect_type(f4) == "F4" and len(f4.roots) == 48
    assert len(list(weyl_walk(f4))) == 1152
    # the double bond inside a longer chain (affine F4), and two double
    # bonds (affine C2), are no finite type
    for cartan in ([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -2, 0],
                    [0, 0, -1, 2, -1], [0, 0, 0, -1, 2]],
                   [[2, -1, 0], [-2, 2, -2], [0, -1, 2]]):
        simples, cosimples = _unit_simples(cartan)
        assert detect_type(BasedRootDatum(len(cartan), simples, cosimples,
                                          range(len(cartan)))) == "unknown"
    assert detect_type(SL2) == "A1"
    assert detect_type(split_gl(3)) == "A2"
    assert detect_type(split_gl(4)) == "A3"
    assert detect_type(split_sp(4)) == "C2"
    assert detect_type(split_so(5)) == "C2"    # rank-2 convention
    assert detect_type(split_so(8)) == "D4"
    assert detect_type(split_so(7)) == "B3"
    assert detect_type(split_sp(6)) == "C3"
    assert detect_type(adjoint_d4()) == "D4"


def _simply_laced(edges, n, order):
    """The simple system of a simply laced diagram on n nodes, the simple
    roots the unit vectors and the nodes listed in `order`."""
    cartan = [[2 * (i == j) - ((i, j) in edges or (j, i) in edges)
               for j in range(n)] for i in range(n)]
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return BasedRootDatum(n, unit, [tuple(row) for row in cartan], order)


def _branched(arms):
    """The edges and node count of a diagram with one node of degree
    len(arms), node 0, and paths of the given lengths from it."""
    edges, n = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return edges, n


@pytest.mark.parametrize("arms,name", [
    ((1, 1, 1), "D4"), ((1, 1, 2), "D5"), ((1, 1, 4), "D7"),
    ((1, 2, 2), "E6"), ((1, 2, 3), "E7"), ((1, 2, 4), "E8"),
    ((2, 2, 2), "unknown"), ((1, 3, 3), "unknown"), ((1, 2, 5), "unknown")])
def test_detect_type_reads_the_arms_of_a_branch_node(arms, name):
    """The arms of the one branch node, the components of the diagram
    without it, name D_n and E6-E8 in any order of the simple roots; the
    affine shapes among them, and two branch nodes, are unknown."""
    edges, n = _branched(arms)
    for order in (range(n), range(n - 1, -1, -1)):
        assert detect_type(_simply_laced(edges, n, order)) == name
    two = edges + [(n + i, n + i + 1) for i in range(3)] + [(n, n + 4),
                                                           (n + 1, 0)]
    assert "unknown" in detect_type(_simply_laced(two, n + 5,
                                                  range(n + 5)))


def test_d4_pins():
    d4 = adjoint_d4()
    tri = pinned_automorphism(d4, d4_triality_matrix())
    assert tri.order == 3
    res = restricted_root_data(d4, tri)
    assert res.type_name == "G2"
    so8 = split_so(8)
    flip = pinned_automorphism(so8, d4_flip_matrix())
    assert flip.order == 2
    assert restricted_root_data(so8, flip).type_name == "B3"


def test_folding_error_for_bad_simple_permutation():
    gl3 = split_gl(3)
    # swap is a root permutation but not compatible with every datum; a
    # non-pinned matrix cannot even be built
    with pytest.raises(ValueError):
        pinned_automorphism(gl3, IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
                            @ IntMatrix.diagonal([1, 1, 2]))


def test_simple_coefficients_are_exact():
    gl4 = split_gl(4)
    highest = max(gl4.positive_roots(),
                  key=lambda r: sum(gl4.simple_coefficients(r)))
    assert sum(gl4.simple_coefficients(highest)) == 3


def simple_coefficients_oracle(datum, root):
    """Per-vector exact Gaussian elimination of [S | root] over Q."""
    simples = datum.simple_roots()
    if not simples:
        return None if any(root) else ()
    rows = [[Fraction(s[i]) for s in simples] + [Fraction(root[i])]
            for i in range(datum.rank)]
    ncols = len(simples)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rows[r] = [v / p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(rows[i][ncols] != 0 for i in range(r, len(rows))):
        return None
    coeffs = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        coeffs[c] = rows[i][ncols]
    return tuple(coeffs)


PRESET_DATA = ([SL2, adjoint_d4(),
                BasedRootDatum(2, (), (), ())]
               + [build(n) for build in (split_gl, split_sl, split_pgl)
                  for n in range(2, 6)]
               + [split_sp(n) for n in (4, 6, 8)]
               + [split_so(n) for n in range(5, 11)])


@pytest.mark.parametrize("datum", PRESET_DATA, ids=lambda d: d.label or "torus")
def test_simple_coefficients_match_elimination_on_roots(datum):
    for root in datum.roots:
        assert datum.simple_coefficients(root) == \
            simple_coefficients_oracle(datum, root)
    assert datum.positive_indices == tuple(
        i for i, r in enumerate(datum.roots)
        if all(c >= 0 for c in simple_coefficients_oracle(datum, r)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_simple_coefficients_match_elimination_on_vectors(data):
    datum = data.draw(st.sampled_from(PRESET_DATA))
    vec = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=datum.rank,
                                   max_size=datum.rank)))
    assert datum.simple_coefficients(vec) == \
        simple_coefficients_oracle(datum, vec)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), data=st.data())
def test_simple_coefficients_outside_the_span_of_gl(n, data):
    # the roots of GL_n span the vectors with coordinate sum 0
    gl = split_gl(n)
    vec = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=n,
                                   max_size=n)))
    expected = simple_coefficients_oracle(gl, vec)
    assert (expected is None) == (sum(vec) != 0)
    assert gl.simple_coefficients(vec) == expected


# --- oracles: the breadth-first Weyl closure and its commuting filter --------

class WeylGroup(namedtuple("WeylGroup", "permutations roots coroots")):
    """A set of elements of the Weyl group of a datum, each recorded as
    the permutation it induces on the roots (W acts faithfully on them):
    a permutation p lists the indices in `roots` of the images of the
    roots; `coroots` are the paired coroots."""

    __slots__ = ()

    @property
    def order(self):
        return len(self.permutations)


def weyl_group(datum, cap=DEFAULT_WEYL_CAP):
    """`weyl_walk` collected; `dual_datum(datum)` gives the coroot side."""
    return WeylGroup(frozenset(weyl_walk(datum, cap)), datum.roots,
                     datum.coroots)


def compose(p, q):
    """The root permutation of a product w g from p of w and q of g:
    w g sends r_i to w(r_q[i]) = r_p[q[i]]."""
    return tuple([p[i] for i in q])


def bfs_weyl_group(datum):
    """W as root permutations by the breadth-first closure of the simple
    reflections under `compose`, the enumeration `weyl_walk` replaced."""
    gens = [root_permutation(datum.reflection_matrix(i), datum.roots)
            for i in datum.simple_indices]
    perms = search([tuple(range(len(datum.roots)))], gens, compose)
    return WeylGroup(frozenset(perms), datum.roots, datum.coroots)


def fixed_weyl_subgroup(weyl, commuting_with):
    """Subgroup of elements commuting with every given matrix, tested on
    the root permutations.

    Each matrix must permute the roots of the group's side and its
    transpose the coroots (FoldingError otherwise).  It then preserves
    the annihilator of the coroots, on which W acts trivially, so it
    commutes with w exactly when their permutations of the roots commute.
    """
    perms = []
    for m in commuting_with:
        perms.append(root_permutation(m, weyl.roots))
        root_permutation(m.transpose(), weyl.coroots)
    kept = frozenset(p for p in weyl.permutations
                     if all(compose(p, t) == compose(t, p) for t in perms))
    return WeylGroup(kept, weyl.roots, weyl.coroots)


# --- Weyl group keyed by root permutations vs matrix closure -----------------

WEYL_PRESETS = tuple(sorted(TWISTED_SUITE)) + ("split Sp4", "split SO5",
                                               "unitary ramified 4")
SIDES = ("char", "cochar")


def matrix_weyl(datum, side):
    """The Weyl group as matrices: the closure of the simple reflections,
    transposed on the cocharacter side."""
    refls = [datum.reflection_matrix(i) for i in datum.simple_indices]
    if side == "cochar":
        refls = [s.transpose() for s in refls]
    return mulclose(refls)


def commuting_by_matrices(elements, mats, roots):
    """Root permutations of the matrices in `elements` that commute with
    every one of `mats`, the commutation tested on the matrices."""
    return {tuple(roots.index(w.apply(r)) for r in roots) for w in elements
            if all(w @ m == m @ w for m in mats)}


@pytest.mark.parametrize("name", WEYL_PRESETS)
@pytest.mark.parametrize("side", SIDES)
def test_weyl_group_matches_matrix_closure(name, side):
    datum = resolve(preset=name).datum
    roots = datum.roots if side == "char" else datum.coroots
    weyl = weyl_group(datum if side == "char" else dual_datum(datum))
    assert weyl.roots == roots
    assert weyl.permutations == commuting_by_matrices(
        matrix_weyl(datum, side), [], roots)


# every datum preset the suite resolves, and the benchmark's B, C, D types
ORDER_PRESETS = (
    tuple(f"flip A{n}" for n in range(2, 8))
    + tuple(f"split {g}" for g in ("GL2", "GL3", "GL4", "GL8", "SL2", "PGL3",
                                   "Sp4", "Sp6", "Sp8", "SO5", "SO8", "SO9",
                                   "SO10"))
    + tuple(f"unitary {kind} {n}" for kind in ("ramified", "unramified")
            for n in (2, 3, 4, 5))
    + ("flip D4", "triality D4"))


@pytest.mark.parametrize("name", ORDER_PRESETS)
def test_weyl_order_of_the_type_matches_enumeration(name):
    rg = resolve(preset=name)
    data = [rg.datum]
    # folded types: B, C, G2
    if rg.action.tau.matrix != IntMatrix.identity(rg.datum.rank):
        data.append(restricted_root_data(rg.datum, rg.action.tau).reduced_datum)
    for datum in data:
        assert weyl_order(detect_type(datum)) == weyl_group(datum).order
    assert weyl_order("G2 x A1") == 24 and weyl_order("E8") == 696729600
    assert weyl_order("torus") == 1 and weyl_order("unknown") is None


def product_datum(first, second):
    """The direct product of two based root data: their simple systems
    side by side in the sum of their lattices, closed again."""
    n, m = first.rank, second.rank
    pad = [lambda v: v + (0,) * m, lambda v: (0,) * n + v]
    simples, cosimples = [], []
    for side, datum in zip(pad, (first, second)):
        simples += [side(datum.roots[i]) for i in datum.simple_indices]
        cosimples += [side(datum.coroots[i]) for i in datum.simple_indices]
    return datum_from_simples(simples, cosimples)


def reduced_fold(name):
    rg = resolve(preset=name)
    return restricted_root_data(rg.datum, rg.action.tau).reduced_datum


# the datum presets, the reduced data of the flip and triality folds (C3
# from flip A5, B3 from flip A6, the reduced side of its BC3, and from
# flip D4, G2 from triality D4), and products
WALK_DATA = dict(
    {name: lambda name=name: resolve(preset=name).datum
     for name in ORDER_PRESETS},
    **{f"fold {name}": lambda name=name: reduced_fold(name)
       for name in ("flip A5", "flip A6", "flip D4", "triality D4")},
    **{"G2 x A1": lambda: product_datum(reduced_fold("triality D4"), SL2),
       "A1 x A1": lambda: product_datum(SL2, split_gl(2)),
       "F4": split_f4})


@pytest.mark.parametrize("name", sorted(WALK_DATA))
def test_weyl_walk_matches_breadth_first_closure(name, monkeypatch):
    """On both sides the walk yields each element of W once, and the
    elements are those of the breadth-first closure.  With W_m generated
    by the first m simple reflections, level m of the walk has
    |W_m| / |W_{m-1}| coset representatives, each order that of the
    Cartan type of W_m."""
    levels = []

    def spy(seeds, generators, product, cap=None, stage=""):
        found = search(seeds, generators, product, cap, stage)
        if stage == "Weyl group enumeration":
            levels.append(len(found))
        return found

    monkeypatch.setattr(rootdata, "search", spy)
    datum = WALK_DATA[name]()
    for side in (datum, dual_datum(datum)):
        levels.clear()
        walked = list(weyl_walk(side))
        assert len(walked) == len(set(walked))
        assert set(walked) == bfs_weyl_group(side).permutations
        orders = [weyl_order(detect_type(side._replace(
            simple_indices=side.simple_indices[:m])))
            for m in range(len(side.simple_indices) + 1)]
        assert levels == [orders[m] // orders[m - 1]
                          for m in range(1, len(orders))]


@pytest.mark.parametrize("name", ORDER_PRESETS)
def test_fixed_weyl_filter_matches_commuting_oracle(name):
    """verify-ks keeps the walked elements commuting with tau on the
    simple roots; they are the oracle's W^tau, found by commuting on
    every root: its order, and the folded group it must equal."""
    rg = resolve(preset=name)
    datum, tau = rg.datum, rg.action.tau
    fixed = fixed_weyl_subgroup(bfs_weyl_group(datum), [tau.matrix])
    check = check_fixed_weyl_is_folded(datum, tau)
    assert check.match and check.fixed_order == fixed.order
    gens = [root_permutation(w, datum.roots)
            for w in folded_generators(datum, tau)]
    folded = search([tuple(range(len(datum.roots)))], gens, compose)
    assert set(folded) == fixed.permutations


def test_walk_without_a_known_order_stops_at_the_cap(monkeypatch):
    """For a type whose order is unknown the walk itself counts: a cap of
    exactly |W| passes, a smaller one names the stage and the count
    reached, and so does one below the size of a level of coset
    representatives, whose search it bounds."""
    monkeypatch.setattr(rootdata, "weyl_order", lambda type_name: None)
    gl4 = split_gl(4)
    assert len(list(weyl_walk(gl4, cap=24))) == 24
    with pytest.raises(CapExceeded, match="Weyl group enumeration: reached"
                       " 6 elements, over the cap 5"):
        weyl_group(gl4, cap=5)
    # the third level has the 4 representatives of A3 / A2
    with pytest.raises(CapExceeded, match="Weyl group enumeration: reached"
                       " 4 elements, over the cap 3"):
        weyl_group(gl4, cap=3)


def test_walk_refuses_a_simple_reflection_off_the_roots():
    """A raw A2 datum holding only +-alpha and +-beta: s_alpha sends beta
    to alpha + beta, which is not a root, so the walk stops before its
    first level, as `validate` reports."""
    roots = ((1, 0), (-1, 0), (0, 1), (0, -1))
    coroots = ((2, -1), (-2, 1), (-1, 2), (1, -2))
    raw = BasedRootDatum(2, roots, coroots, (0, 2))
    assert "reflection in root 0 does not permute the roots" in validate(raw)
    with pytest.raises(FoldingError, match="does not permute the roots"):
        list(weyl_walk(raw))


def test_the_walk_names_the_simple_reflection_off_the_roots():
    """The walk's refusal is its own, naming the stage and the first
    simple root whose reflection leaves the roots, by its index as
    `validate` names it; no matrix was given to blame."""
    roots = ((0, 1), (0, -1), (1, 0), (-1, 0))
    coroots = ((-1, 2), (1, -2), (2, -1), (-2, 1))
    raw = BasedRootDatum(2, roots, coroots, (2, 0))
    with pytest.raises(FoldingError) as refusal:
        list(weyl_walk(raw))
    assert str(refusal.value) == ("Weyl group enumeration: the reflection in"
                                  " simple root 2 does not permute the roots")


def test_walk_asks_the_kernel_for_no_coroot_image(monkeypatch, capsys):
    """verify-ks on flip D4 walks W from the root side alone: every move
    of the reflection kernel that `weyl_walk` builds (through
    `_reflected`) carries no coroot image, while those of the preset's
    closure, built by `_closure_lists` on the first read of its roots,
    carry theirs."""
    kernel = rootdata._reflections
    coroot_images = {}

    def spy(pairs):
        moves = kernel(pairs)
        seen = coroot_images.setdefault(sys._getframe(2).f_code.co_name, [])

        def spied(*sides):
            for i, b, bv in moves(*sides):
                seen.append(bv)
                yield i, b, bv
        return spied

    monkeypatch.setattr(rootdata, "_reflections", spy)
    assert main(["verify-ks", "--preset", "flip D4"]) == 0
    capsys.readouterr()
    assert coroot_images["weyl_walk"]
    assert set(coroot_images["weyl_walk"]) == {None}
    assert coroot_images["_closure_lists"]
    assert None not in coroot_images["_closure_lists"]


@pytest.mark.parametrize("name", WEYL_PRESETS)
def test_fixed_weyl_subgroup_matches_matrix_commutation(name):
    rg = resolve(preset=name)
    tau, sigma = rg.action.tau.matrix, rg.action.sigma.matrix
    roots = rg.datum.roots
    weyl = weyl_group(rg.datum)
    elements = sorted(matrix_weyl(rg.datum, "char"), key=IntMatrix.key)
    for mats in ([tau], [sigma], [tau, sigma]):
        assert (fixed_weyl_subgroup(weyl, mats).permutations
                == commuting_by_matrices(elements, mats, roots))
    # centralizers of Weyl elements: no pinned automorphism needed
    for w in elements[:: max(1, len(elements) // 12)]:
        assert (fixed_weyl_subgroup(weyl, [w]).permutations
                == commuting_by_matrices(elements, [w], roots))
    # cocharacter side, with the dual matrices
    coweyl = weyl_group(dual_datum(rg.datum))
    duals = [rg.torus.tau, rg.torus.sigma]
    assert (fixed_weyl_subgroup(coweyl, duals).permutations
            == commuting_by_matrices(matrix_weyl(rg.datum, "cochar"), duals,
                                     rg.datum.coroots))


def test_fixed_weyl_subgroup_refuses_matrices_off_the_roots():
    gl2 = split_gl(2)
    weyl = weyl_group(gl2)
    with pytest.raises(FoldingError):     # (1, -1) goes to (0, -1)
        fixed_weyl_subgroup(weyl, [IntMatrix([[1, 1], [0, 1]])])
    # fixes both roots but moves (1, 1) off the annihilator of the
    # coroots: s does not commute with it, though it fixes every root
    shear = IntMatrix([[2, 1], [-1, 0]])
    assert commuting_by_matrices(matrix_weyl(gl2, "char"), [shear],
                                 gl2.roots) == {(0, 1)}
    with pytest.raises(FoldingError):
        fixed_weyl_subgroup(weyl, [shear])


# --- validate against reflections as matrices ---------------------------------

def validate_by_matrices(datum):
    """The reference for `validate`: each reflection built as a matrix and
    applied to every root, its transpose to every coroot; independence by
    sympy's rank and root coefficients by exact elimination."""
    import sympy

    problems = []
    if len(set(datum.roots)) != len(datum.roots):
        problems.append("duplicate roots")
    for idx, (a, av) in enumerate(zip(datum.roots, datum.coroots)):
        pairing = sum(x * y for x, y in zip(a, av))
        if len(a) != datum.rank or len(av) != datum.rank:
            problems.append(f"root/coroot {idx} has wrong length")
        elif pairing != 2:
            problems.append(f"<root {idx}, coroot {idx}> = {pairing},"
                            " expected 2")
    if problems:
        return problems
    problems = [f"simple index {i} out of range" for i in datum.simple_indices
                if not 0 <= i < len(datum.roots)]
    if problems:
        return problems
    simples = datum.simple_roots()
    if simples and sympy.Matrix(simples).rank() < len(simples):
        return ["simple roots are linearly dependent"]
    for idx in range(len(datum.roots)):
        s = datum.reflection_matrix(idx)
        if {s.apply(r) for r in datum.roots} != set(datum.roots):
            problems.append(f"reflection in root {idx} does not permute"
                            " the roots")
        if ({s.transpose().apply(r) for r in datum.coroots}
                != set(datum.coroots)):
            problems.append(f"coreflection in root {idx} does not permute"
                            " the coroots")
    for idx, r in enumerate(datum.roots):
        coeffs = simple_coefficients_oracle(datum, r)
        if coeffs is None:
            problems.append(f"root {idx} is not in the span of the simple"
                            " roots")
        elif any(c.denominator != 1 for c in coeffs):
            problems.append(f"root {idx} is not an integer combination of"
                            " simple roots")
        elif not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
            problems.append(f"root {idx} has mixed-sign simple coefficients")
    return problems


def corrupted_copies(datum):
    """One non-simple root dropped with its coroot, the first coroot
    doubled, the first and last coroots swapped, and (in rank 2 and up)
    the coroot of the dropped root moved by a vector orthogonal to the
    root, so that every pairing <alpha, alpha^> stays 2."""
    n = len(datum.roots)
    if n < 2:
        return []
    roots, coroots = list(datum.roots), list(datum.coroots)
    drop = max(i for i in range(n) if i not in datum.simple_indices)
    dropped = BasedRootDatum(
        datum.rank, roots[:drop] + roots[drop + 1:],
        coroots[:drop] + coroots[drop + 1:],
        [i - (i > drop) for i in datum.simple_indices])
    doubled = [tuple(2 * v for v in coroots[0])] + coroots[1:]
    swapped = [coroots[-1]] + coroots[1:-1] + [coroots[0]]
    changed = [doubled, swapped]
    if datum.rank > 1:
        r = roots[drop]
        i = next(j for j, v in enumerate(r) if v)
        l = (i + 1) % datum.rank
        moved = list(coroots[drop])
        moved[i] += r[l]
        moved[l] -= r[i]
        changed.append(coroots[:drop] + [tuple(moved)] + coroots[drop + 1:])
    return [dropped] + [BasedRootDatum(datum.rank, roots, c,
                                       datum.simple_indices)
                        for c in changed]


def _valid_cases():
    data = list(PRESET_DATA)
    for name in DATUM_PRESETS:
        rg = resolve(preset=name)
        data.append(rg.datum)
        if rg.action.tau.matrix != IntMatrix.identity(rg.datum.rank):
            folded = restricted_root_data(rg.datum, rg.action.tau)
            data += [folded.datum, folded.reduced_datum]
    return data


def _validate_cases():
    data = _valid_cases()
    return data + [bad for datum in data for bad in corrupted_copies(datum)]


def test_validate_matches_matrix_reflections():
    cases = _validate_cases()
    assert sum(bool(validate_by_matrices(d)) for d in cases) > len(cases) // 3
    for datum in cases:
        assert validate(datum) == validate_by_matrices(datum), datum.label


def _spy(monkeypatch, certified, full, refuse=False):
    """Record the seed roots of each call of `rootdata.root_closure`, the
    certificate, in `certified`, and the datum of each call of
    `rootdata._reflected`, the root-by-root report, in `full`; with
    `refuse`, the report fails the test."""
    closure, reflected = rootdata.root_closure, rootdata._reflected

    def certify(simples, cosimples, cap):
        certified.append(list(simples))
        return closure(simples, cosimples, cap)

    def report(datum, bases):
        assert isinstance(bases, range)
        full.append(datum)
        if refuse:
            raise AssertionError(f"full reflection check on {datum.label}")
        return reflected(datum, bases)

    monkeypatch.setattr(rootdata, "root_closure", certify)
    monkeypatch.setattr(rootdata, "_reflected", report)


def test_the_certificate_decides_every_valid_datum(monkeypatch):
    """Every valid case of the validate suite is decided by one closure,
    and none reaches the root-by-root report, which is patched to fail;
    every corrupted copy that passes the pairing checks reaches the
    report, and every copy with a root dropped or a coroot moved does."""
    data = _valid_cases()
    for datum in data:
        datum.roots  # a preset's own closure, built on this first read
    certified, full = [], []
    _spy(monkeypatch, certified, full, refuse=True)
    assert all(validate(datum) == [] for datum in data)
    assert len(certified) == len(data) and full == []
    monkeypatch.undo()
    _spy(monkeypatch, certified, full)
    for datum in data:
        copies = corrupted_copies(datum)
        for k, bad in enumerate(copies):
            certified.clear()
            full.clear()
            problems = validate(bad)
            assert problems
            paired = not any("expected 2" in p for p in problems)
            assert full == ([bad] if paired else [])
            assert len(certified) <= len(full)
            if k in (0, 3):    # a root dropped, a coroot moved
                assert full == [bad]


def test_the_certificate_reaches_every_root(monkeypatch):
    """A root the simple reflections do not reach is not certified: here
    +-(1, 1) and +-(1, -1) beside the A1 of (2, 0), which its reflection
    carries pair to pair, though the reflection in (1, 1) sends (2, 0)
    to (0, -2).  The closure of the one simple pair has 2 roots, not 6."""
    roots = ((2, 0), (-2, 0), (1, 1), (-1, -1), (1, -1), (-1, 1))
    stray = BasedRootDatum(2, roots, ((1, 0), (-1, 0)) + roots[2:], (0,))
    assert rootdata._reflected(stray, [0])[1] == [set()]
    certified, full = [], []
    _spy(monkeypatch, certified, full)
    problems = validate(stray)
    assert certified == [[(2, 0)]] and full == [stray]
    assert problems == validate_by_matrices(stray)
    assert "reflection in root 2 does not permute the roots" in problems


def test_non_reduced_bc1_validates_by_the_certificate(monkeypatch):
    """Roots +-e, +-2e with coroots +-2e^, +-e^: the double of the simple
    root is a seed of the closure, and the config resolves without the
    root-by-root report."""
    certified = []
    _spy(monkeypatch, certified, [], refuse=True)
    bc1 = BasedRootDatum(1, ((1,), (-1,), (2,), (-2,)),
                         ((2,), (-2,), (1,), (-1,)), (0,), label="BC1")
    assert validate(bc1) == []
    assert certified == [[(1,), (2,)]]
    config = parse_config("roots = [[1], [-1], [2], [-2]]\n"
                          "coroots = [[2], [-2], [1], [-1]]\nsimple = [0]\n")
    assert resolve(config).datum == bc1._replace(label="custom")
    monkeypatch.undo()
    assert validate_by_matrices(bc1) == []
    # based at the long root instead, the short roots +-e are halves
    long_based = bc1._replace(simple_indices=(2,))
    assert validate(long_based) == validate_by_matrices(long_based) == [
        f"root {i} is not an integer combination of simple roots"
        for i in (0, 1)]


# --- the closure certificate against the W-orbit certificate ---------------

def reference_reflected(datum, bases):
    """`_reflected` as it was with its "pair" kind (a root sent to a root
    whose coroot is not the image of its own), each pair reflected by the
    dense formula (b - <b, a^> a, b^ - <a, b^> a^).  A pair whose supports
    meet neither a^ nor a, so that both pairings vanish term by term, is
    left fixed as its own index."""
    roots, coroots = datum.roots, datum.coroots
    index = {r: i for i, r in enumerate(roots)}
    coroot_set = set(coroots)
    perms, leaves = [], []
    for g in bases:
        a, av = roots[g], coroots[g]
        perm, left = list(range(len(roots))), set()
        for idx, (b, bv) in enumerate(zip(roots, coroots)):
            if not any(chain(map(mul, b, av), map(mul, a, bv))):
                continue
            p, q = sum(map(mul, b, av)), sum(map(mul, a, bv))
            image = tuple(x - p * y for x, y in zip(b, a))
            co_image = tuple(x - q * y for x, y in zip(bv, av))
            j = perm[idx] = index.get(image)
            if j is None or coroots[j] != co_image:
                left.add("root" if j is None else "pair")
                if co_image not in coroot_set:
                    left.add("coroot")
        perms.append(perm)
        leaves.append(left)
    return perms, leaves


def reference_validate(datum):
    """`validate` as it was before the closure certificate: `_reflected`
    on the simple roots and their doubles that are roots, and a `search`
    over root indices that must reach every root; else the reflection in
    every root; then the simple coefficients of every root."""
    problems = []
    if len(set(datum.roots)) != len(datum.roots):
        problems.append("duplicate roots")
    for idx, (a, av) in enumerate(zip(datum.roots, datum.coroots)):
        if len(a) != datum.rank or len(av) != datum.rank:
            problems.append(f"root/coroot {idx} has wrong length")
            continue
        p = sum(x * y for x, y in zip(a, av))
        if p != 2:
            problems.append(f"<root {idx}, coroot {idx}> = {p}, expected 2")
    if problems:
        return problems
    for i in datum.simple_indices:
        if not 0 <= i < len(datum.roots):
            problems.append(f"simple index {i} out of range")
    if problems:
        return problems
    solver = datum._coefficient_solver
    if datum.rank - solver.consistency.nrows < len(datum.simple_indices):
        return ["simple roots are linearly dependent"]
    index = {r: i for i, r in enumerate(datum.roots)}
    simples = datum.simple_indices
    doubles = (index.get(tuple([2 * v for v in datum.roots[i]]))
               for i in simples)
    bases = list(simples) + [i for i in doubles if i is not None]
    perms, leaves = reference_reflected(datum, bases)
    if any(leaves) or len(search(bases, perms[:len(simples)],
                                 lambda i, perm: perm[i])) < len(datum.roots):
        _, leaves = reference_reflected(datum, range(len(datum.roots)))
        for idx, left in enumerate(leaves):
            if "root" in left:
                problems.append(f"reflection in root {idx} does not permute"
                                " the roots")
            if "coroot" in left:
                problems.append(f"coreflection in root {idx} does not"
                                " permute the coroots")
    den = solver.den
    for idx, nums in enumerate(solver.numerators(datum.roots)):
        if nums is None:
            problems.append(f"root {idx} is not in the span of the simple"
                            " roots")
            continue
        if any(c % den for c in nums):
            problems.append(f"root {idx} is not an integer combination of"
                            " simple roots")
            continue
        if not (all(c >= 0 for c in nums) or all(c <= 0 for c in nums)):
            problems.append(f"root {idx} has mixed-sign simple coefficients")
    return problems


def shuffled(datum, seed):
    """The datum with its pairs in a random order."""
    order = list(range(len(datum.roots)))
    random.Random(seed).shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    return BasedRootDatum(datum.rank, [datum.roots[i] for i in order],
                          [datum.coroots[i] for i in order],
                          [where[i] for i in datum.simple_indices],
                          label=datum.label)


def with_stray_double(datum):
    """+-2b for the last root b, with coroots +-e, e a unit vector on
    which b is 1 (so each pairing is 2); None when b has no entry +-1."""
    b = datum.roots[-1]
    i = next((i for i, v in enumerate(b) if v in (1, -1)), None)
    if i is None:
        return None
    e = tuple(b[i] * (k == i) for k in range(datum.rank))
    double = tuple(2 * v for v in b)
    neg = tuple(-v for v in double)
    return BasedRootDatum(datum.rank, datum.roots + (double, neg),
                          datum.coroots + (e, tuple(-v for v in e)),
                          datum.simple_indices, label=datum.label + " 2b")


def _certificate_data():
    names = ([name for name in sorted(GRID_DATA)]
             + [f"flip A{n}" for n in range(2, 10)]
             + [f"unitary {kind} {n}" for kind in ("ramified", "unramified")
                for n in range(2, 9)])
    data = []
    for name in names:
        rg = resolve(preset=name)
        data.append(rg.datum._replace(label=name))
        if rg.action.tau.order > 1:
            folded = restricted_root_data(rg.datum, rg.action.tau)
            if folded.non_reduced:
                data.append(folded.datum._replace(label=f"{name} full"))
    return data


def _certificate_cases():
    cases = []
    for k, datum in enumerate(_certificate_data()):
        datum = shuffled(datum, k)
        copies = corrupted_copies(datum)
        cases += [datum, copies[0]] + copies[3:]
        stray = with_stray_double(datum)
        if stray is not None:
            cases.append(stray)
    gl3 = split_gl(3)
    a1, a2 = gl3.simple_roots()
    a12 = gl3.roots.index(tuple(x + y for x, y in zip(a1, a2)))
    cases.append(gl3._replace(simple_indices=(gl3.simple_indices[0], a12),
                              label="A2 with simples a1, a1 + a2"))
    cases.append(BasedRootDatum(1, ((2,), (-2,)), ((1,), (-1,)), (0, 1),
                                label="rank 1, dependent simples"))
    cases.append(BasedRootDatum(2, BC2_ROOTS[1:], BC2_COROOTS[1:],
                                (BC2_ROOTS.index((1, -1)) - 1,
                                 BC2_ROOTS.index((0, 1)) - 1),
                                label="BC2 without the double (2, 0)"))
    cases.append(BasedRootDatum(2, (), (), (), label="rootless"))
    return cases


# BC2: +-e_i with coroot +-2e_i, +-2e_i with coroot +-e_i, +-e_1 +- e_2
BC2_ROOTS = ((2, 0), (-2, 0), (0, 2), (0, -2), (1, 0), (-1, 0), (0, 1),
             (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))
BC2_COROOTS = ((1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (-2, 0), (0, 2),
               (0, -2)) + BC2_ROOTS[8:]


def test_validate_matches_the_w_orbit_reference():
    """On the datum presets, flip A2-A9, unitary 2-8 and the BC data of
    their folds, each shuffled, on their corrupted copies and on the
    special cases: the problems of the W-orbit certificate's `validate`,
    and the positive side of the coefficient solver."""
    cases = _certificate_cases()
    valid = [d for d in cases if not reference_validate(BasedRootDatum(*d))]
    assert 50 < len(valid) < len(cases) - 100
    assert validate(BasedRootDatum(2, BC2_ROOTS, BC2_COROOTS, (10, 6))) == []
    for datum in cases:
        assert validate(datum) == reference_validate(BasedRootDatum(*datum)), \
            datum.label
        assert (datum.positive_indices
                == BasedRootDatum(*datum).positive_indices), datum.label


def test_reflected_moves_are_the_dense_permutations_sparse():
    """`_reflected` keeps, per reflection, only the roots it may move:
    read with every other root fixed, each map is the dense permutation
    of the reference, None where a root leaves, and it leaves the datum
    as the reference does, on every certificate case, for the simple
    roots and for every root.  On the root side
    alone, as the walk reads it, a datum of distinct roots gets the same
    maps and only the "root" leaves."""
    for datum in _certificate_cases():
        if any(len(a) != datum.rank or len(av) != datum.rank
               for a, av in zip(datum.roots, datum.coroots)):
            continue
        ids = range(len(datum.roots))
        for bases in (datum.simple_indices, ids):
            moved, left = rootdata._reflected(datum, bases)
            perms, leaves = reference_reflected(datum, bases)
            assert [list(map(m.get, ids, ids)) for m in moved] == perms, \
                datum.label
            assert left == [side - {"pair"} for side in leaves], datum.label
            if len(set(datum.roots)) == len(ids):
                moved, left = rootdata._reflected(datum, bases, False)
                assert [list(map(m.get, ids, ids)) for m in moved] == perms
                assert left == [side & {"root"} for side in leaves]
    # in GL8 the reflection in e_i - e_j moves the 26 roots with i or j
    gl8 = split_gl(8)
    moved, _ = rootdata._reflected(gl8, range(len(gl8.roots)))
    assert {len(m) for m in moved} == {26} and len(gl8.roots) == 56


def _written_out(datum, path):
    path.write_text(serialize_config(GroupConfig(
        roots=datum.roots, coroots=datum.coroots,
        simple=datum.simple_indices)))
    return str(path)


@pytest.mark.parametrize("name", ["split GL4", "flip A5", "flip A4 full",
                                  "unitary ramified 5 full"])
def test_a_certified_config_solves_no_coefficients_of_its_roots(
        name, monkeypatch, tmp_path, capsys):
    """A valid config is decided by its closure: neither the
    root-by-root report nor a coefficient solve of all its roots runs,
    through `modulus`, which reads 2 rho.  A copy with a root dropped
    reaches the report and exits 1."""
    datum = next(d for d in _certificate_data() if d.label == name)
    datum = shuffled(datum, 3)
    solved = []
    numerators = LinearSolver.numerators

    def spy(self, vectors):
        solved.append(list(vectors))
        return numerators(self, vectors)

    monkeypatch.setattr(LinearSolver, "numerators", spy)
    _spy(monkeypatch, [], [], refuse=True)
    path = _written_out(datum, tmp_path / "good.cfg")
    assert main(["modulus", "--config", path]) == 0
    assert main(["kottwitz", "--config", path]) == 0
    assert list(datum.roots) not in solved
    monkeypatch.undo()
    monkeypatch.setattr(LinearSolver, "numerators", spy)
    full = []
    _spy(monkeypatch, [], full)
    bad = corrupted_copies(datum)[0]
    assert main(["modulus", "--config",
                 _written_out(bad, tmp_path / "bad.cfg")]) == 1
    assert "invalid root datum" in capsys.readouterr().err
    assert [d.roots for d in full] == [bad.roots]
    assert list(bad.roots) in solved


# --- the root-set products against one root at a time ------------------------

def pinned_violations_by_root(datum, aut):
    """The reference for `pinned_violations`: each root, and its coroot
    under the dual, mapped by its own matrix-vector product."""
    problems = []
    if not datum.roots:
        return problems
    root_index = {r: i for i, r in enumerate(datum.roots)}
    dual = aut.dual()
    for i, r in enumerate(datum.roots):
        j = root_index.get(aut.matrix.apply(r))
        if j is None:
            problems.append(f"image of root {i} is not a root")
            continue
        if dual.apply(datum.coroots[i]) != datum.coroots[j]:
            problems.append(f"coroot of root {i} is not carried to the"
                            " matching coroot")
    simple_set = {datum.roots[i] for i in datum.simple_indices}
    for i in datum.simple_indices:
        if aut.matrix.apply(datum.roots[i]) not in simple_set:
            problems.append(f"simple root {i} is not carried to a simple"
                            " root")
    return problems


def root_permutation_by_root(matrix, roots):
    """The reference for `root_permutation`, one image at a time."""
    index = {r: i for i, r in enumerate(roots)}
    perm = tuple(index.get(matrix.apply(r)) for r in roots)
    if None in perm or len(set(perm)) != len(perm):
        raise FoldingError("matrix does not permute the roots")
    return perm


def permutation_outcome(permutation, matrix, roots):
    """The permutation, or the FoldingError message."""
    try:
        return permutation(matrix, roots)
    except FoldingError as exc:
        return f"FoldingError: {exc}"


def assert_products_match_one_root_at_a_time(datum, aut):
    assert (pinned_violations(datum, aut)
            == pinned_violations_by_root(datum, aut))
    for matrix, roots in ((aut.matrix, datum.roots),
                          (aut.dual(), datum.coroots),
                          (aut.matrix, datum.simple_roots())):
        assert (permutation_outcome(root_permutation, matrix, roots)
                == permutation_outcome(root_permutation_by_root, matrix,
                                       roots))


GRID_DATA = {name: resolve(preset=name) for name in GRID
             if resolve(preset=name).datum is not None}


@pytest.mark.parametrize("name", sorted(GRID_DATA))
def test_root_set_products_match_on_the_grid(name):
    rg = GRID_DATA[name]
    for aut in (rg.action.tau, rg.action.sigma):
        assert pinned_violations(rg.datum, aut) == []
        assert_products_match_one_root_at_a_time(rg.datum, aut)
    for i in rg.datum.simple_indices:
        reflection = rg.datum.reflection_matrix(i)
        assert (root_permutation(reflection, rg.datum.roots)
                == root_permutation_by_root(reflection, rg.datum.roots))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_root_set_products_match_on_signed_permutations(data):
    """Most signed permutations of the lattice are not pinned, so both
    sides report problems and raise FoldingError, in the same order."""
    datum = GRID_DATA[data.draw(st.sampled_from(sorted(GRID_DATA)))].datum
    n = datum.rank
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n,
                               max_size=n))
    matrix = IntMatrix([[signs[i] if perm[i] == j else 0 for j in range(n)]
                        for i in range(n)])
    aut = PinnedAutomorphism(matrix, matrix.multiplicative_order())
    assert_products_match_one_root_at_a_time(datum, aut)


def test_each_pinned_problem_is_reached_by_both_sides():
    """Each check fails somewhere, and both sides agree there: -1 sends
    the simple roots of GL3 to negative roots, a coordinate sign change
    sends roots off the root set, and -1 on GL3 with one coroot doubled
    breaks the coroot matching."""
    gl3 = split_gl(3)
    minus = PinnedAutomorphism(IntMatrix.diagonal([-1, -1, -1]), 2)
    flip = PinnedAutomorphism(IntMatrix.diagonal([-1, 1, 1]), 2)
    doubled = BasedRootDatum(
        3, gl3.roots, (tuple(2 * v for v in gl3.coroots[0]),)
        + gl3.coroots[1:], gl3.simple_indices)
    for datum, aut, problem in ((gl3, minus, "simple root"),
                                (gl3, flip, "image of root"),
                                (doubled, minus, "coroot of root")):
        assert any(p.startswith(problem)
                   for p in pinned_violations(datum, aut))
        assert_products_match_one_root_at_a_time(datum, aut)
    assert (permutation_outcome(root_permutation, flip.matrix, gl3.roots)
            == "FoldingError: matrix does not permute the roots")
    # a root of the wrong length is refused as a matrix-vector product is
    short = BasedRootDatum(3, gl3.roots[:-1] + ((1, -1),), gl3.coroots,
                           gl3.simple_indices)
    for check in (pinned_violations, pinned_violations_by_root):
        with pytest.raises(ValueError, match="vector length does not match"):
            check(short, minus)


# --- every cap names its stage ------------------------------------------------

def test_caps_name_their_stage():
    """A cap of exactly the count found passes; one below names its stage
    and the count reached."""
    a2 = [(1, -1, 0), (0, 1, -1)]
    assert len(datum_from_simples(a2, a2, cap=6).roots) == 6
    with pytest.raises(CapExceeded, match="^root generation: reached 4"
                       " roots, over the cap 3$"):
        datum_from_simples(a2, a2, cap=3)
    gl4 = split_gl(4)
    reflections = [gl4.reflection_matrix(i) for i in gl4.simple_indices]
    assert len(mulclose(reflections, cap=24)) == 24
    with pytest.raises(CapExceeded, match="^group enumeration: reached 4"
                       " elements, over the cap 3$"):
        mulclose(reflections, cap=3)
    with pytest.raises(CapExceeded, match="over the cap 5"):
        weyl_group(gl4, cap=5)


@pytest.mark.parametrize("simples, cosimples", [
    ([(-2, -2), (-2, -1)], [(-2, 1), (-2, 2)]),
    ([(-1, 0), (1, 0)], [(-2, -2), (2, 1)]),
])
def test_inconsistent_coroots_are_refused_before_the_cap(simples, cosimples):
    """Keyed by roots, the closure stops at the first root reached with a
    second coroot; it does not run on to the cap."""
    for cap in (200, ROOT_CAP):
        with pytest.raises(ValueError, match="inconsistent coroots generated"):
            root_closure(simples, cosimples, cap=cap)


# --- the positive closure against the closure under every reflection ---------

def reflect(x, a, av):
    """s_a(x) = x - <x, a^> a, and x itself when the pairing is 0;
    `reflect(y, av, a)` is s_a on the other side."""
    p = sum(u * v for u, v in zip(x, av))
    return tuple([v - p * w for v, w in zip(x, a)]) if p else x


def reference_root_closure(simple_roots, simple_coroots, cap=ROOT_CAP):
    """The closure as it ran before it closed only the positive side:
    breadth first under every simple reflection, keyed by root, the
    simples seeding it in order (a later copy of a root overwrites)."""
    simples = [tuple(int(v) for v in r) for r in simple_roots]
    cosimples = [tuple(int(v) for v in r) for r in simple_coroots]
    if len(simples) != len(cosimples):
        raise ValueError("one coroot per simple root is required")
    if any(len(v) != len(simples[0]) for v in simples + cosimples):
        raise ValueError("simple roots and coroots must all have the"
                         " length of the first simple root")
    for a, av in zip(simples, cosimples):
        if sum(x * y for x, y in zip(a, av)) != 2:
            raise ValueError("simple pairing <alpha, alpha^> must be 2")
    seen = {}
    frontier = list(zip(simples, cosimples))
    for b, bv in frontier:
        seen[b] = bv
    while frontier:
        nxt = []
        for b, bv in frontier:
            for a, av in zip(simples, cosimples):
                nb = reflect(b, a, av)
                nbv = reflect(bv, av, a)
                prev = seen.get(nb)
                if prev is None:
                    seen[nb] = nbv
                    nxt.append((nb, nbv))
                    if len(seen) > cap:
                        raise CapExceeded(f"root generation: reached"
                                          f" {len(seen)} roots, over the"
                                          f" cap {cap}")
                elif prev != nbv:
                    raise ValueError("inconsistent coroots generated")
        frontier = nxt
    roots = sorted(seen)
    return roots, [seen[r] for r in roots]


@st.composite
def simple_pairs(draw, n):
    """A vector pair in Z^n pairing to 2: one side is free in [-2, 2],
    the other free but for a unit entry that makes the pairing 2."""
    free = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    other = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    k = draw(st.integers(0, n - 1))
    unit = draw(st.sampled_from((1, -1)))
    other[k] = unit
    rest = sum(x * y for j, (x, y) in enumerate(zip(free, other)) if j != k)
    free[k] = (2 - rest) * unit
    pair = (tuple(free), tuple(other))
    return pair if draw(st.booleans()) else pair[::-1]


@st.composite
def simple_systems(draw):
    """Up to four simple (root, coroot) pairs in Z^n, n <= 4, with any
    pairings between them, so most systems are degenerate: infinite,
    dependent or with inconsistent coroots.  Often one pair is replaced
    by a copy of another, or its negative, with the coroot kept or moved
    by a vector orthogonal to the root."""
    n = draw(st.integers(1, 4))
    pairs = draw(st.lists(simple_pairs(n), min_size=1, max_size=4))
    if len(pairs) > 1 and draw(st.booleans()):
        j, k = (draw(st.integers(0, len(pairs) - 1)) for _ in range(2))
        sign = draw(st.sampled_from((1, -1)))
        a, av = (tuple(sign * x for x in v) for v in pairs[k])
        if n > 1 and draw(st.booleans()):
            i, l = draw(st.permutations(range(n)))[:2]
            t = draw(st.integers(-2, 2))
            av = tuple(x + t * (a[l] if m == i else -a[i] if m == l else 0)
                       for m, x in enumerate(av))
        pairs[j] = (a, av)
    return [a for a, _ in pairs], [av for _, av in pairs]


def closure_outcome(closure, simples, cosimples, cap):
    """The closure, or the exception's type and message; the count a cap
    message names is left out, the positive closure counting each root
    with its negative."""
    try:
        return closure(simples, cosimples, cap)
    except (CapExceeded, ValueError) as exc:
        return type(exc).__name__, re.sub(r"reached \d+", "reached N",
                                          str(exc))


@settings(max_examples=150, deadline=None)
@given(system=simple_systems(), cap=st.sampled_from((6, 50, 200)))
def test_root_closure_matches_the_reference(system, cap):
    """The same roots and coroots, or the same exception and message.
    Only a system that is refused either way may differ: one whose
    coroots are inconsistent (each closure raises that only for a root
    reached with two coroots) and whose closure passes the cap before
    one search or the other meets the second coroot.  Which comes first
    depends on the order of the search, and the positive closure counts
    each negative root when it finds the positive one.  A closure found
    is a datum, often not a valid one, that `validate` and its
    certificate must judge as the oracle does, corrupted copies too."""
    expected = closure_outcome(reference_root_closure, *system, cap)
    got = closure_outcome(root_closure, *system, cap)
    if len(got) == 3:
        # one root of each pair {b, -b} is positive: the side closed
        roots, coroots, positive = got
        assert sorted(tuple(-x for x in roots[i]) for i in positive) == [
            r for i, r in enumerate(roots) if i not in positive]
        got = got[:2]
        index = {r: i for i, r in enumerate(roots)}
        datum = BasedRootDatum(len(roots[0]), roots, coroots,
                               [index[r] for r in system[0]])
        for case in [datum] + (corrupted_copies(datum) if len(roots) > len(
                set(datum.simple_indices)) else []):
            assert validate(case) == validate_by_matrices(case)
    if got != expected:
        assert {got, expected} == {
            ("CapExceeded", f"root generation: reached N roots, over the"
                            f" cap {cap}"),
            ("ValueError", "inconsistent coroots generated")}


@pytest.mark.parametrize("name", sorted(GRID))
def test_root_closure_matches_the_reference_on_the_grid(name):
    datum = resolve(preset=name).datum
    if datum is not None:
        simples = datum.simple_roots()
        cosimples = [datum.coroots[i] for i in datum.simple_indices]
        roots, coroots, positive = root_closure(simples, cosimples)
        assert (roots, coroots) == reference_root_closure(simples, cosimples)
        # against the coefficient solver of a datum built by hand
        assert positive == BasedRootDatum(*datum).positive_indices


def test_datum_presets_take_no_smith_form(monkeypatch):
    """A datum preset resolves, with its Galois action, and knows its
    positive roots and 2 rho without a Smith form: the closure's positive
    side replaces the coefficient solver of the simple roots."""
    from satake import matrices

    calls = []
    real = matrices.smith_normal_form

    def counting(matrix, **kwargs):
        calls.append(matrix)
        return real(matrix, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "smith_normal_form", None) is real:
            monkeypatch.setattr(module, "smith_normal_form", counting)
    for name in sorted(GRID_DATA):
        datum = resolve(preset=name).datum
        assert datum.positive_indices and datum.two_rho()
    assert calls == []
