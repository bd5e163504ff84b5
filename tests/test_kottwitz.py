"""Kottwitz groups, parameter classification, functoriality, envelopes."""

import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache
from io import StringIO
from itertools import permutations, product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_smith

from satake.abelian import (FgAbGroup, GroupCharacter, GroupHom, _follow,
                            _moves, _render_ident, all_characters,
                            character_classes, character_count,
                            character_idents, cokernel, induced_hom,
                            kernel_of_hom, subgroup_coordinates)
from satake.circle import ExactCircle, ONE
from satake.cli import main
from satake.config import GroupConfig, resolve, serialize_config
from satake.kottwitz import (
    TorusWithAction, build_induced_torus,
    character_from_dual_point, classify, descend_to_kottwitz,
    induced_character, induced_envelope,
    induced_torus_cocycle, kottwitz_group, kottwitz_hom,
    maximal_compact_quotient, modulus_character, parameter_from_character,
    parameters_equal, setting_for_datum, setting_for_torus, weyl_orbit,
)
from satake import __version__, matrices
from satake.matrices import IntMatrix, hstack, images, linear_solver
from satake.presets import cartan_a, flip_negate, split_gl
from satake.rootdata import (
    BasedRootDatum, CapExceeded, FoldingError, GaloisAction,
    RestrictedRootData,
    automorphism_order, check_twist_relation, datum_from_simples, dual_datum,
    folded_generators, galois_action, mulclose,
    pinned_automorphism, restricted_root_data, root_closure, search,
    validate,
)
from test_abelian import evaluate
from test_acceptance import TWISTED_SUITE
from test_config_cli import NO_WEYL_VALUES
from test_grid import GRID
from test_matrices import INDUCED_TORI, sympy_inverse
from test_rootdata import (GRID_DATA, bfs_weyl_group, corrupted_copies,
                           fixed_weyl_subgroup,
                           reference_restricted_root_data,
                           simple_coefficients_oracle, simple_root_orbits,
                           validate_by_matrices, weyl_group)

Q = ExactCircle(1, 0)
QINV = Q.inverse()
QHALF = ExactCircle(Fraction(1, 2), 0)

SL2 = BasedRootDatum(1, ((2,), (-2,)), ((1,), (-1,)), (0,), label="SL2")
NORM_ONE = TorusWithAction(1, IntMatrix([[-1]]), IntMatrix.identity(1))


def unramified_setting(datum):
    n = datum.rank
    act = galois_action(datum, IntMatrix.identity(n), IntMatrix.identity(n))
    return setting_for_datum(datum, act)


# --- full enumeration of W^Gamma as the oracle for the generator path ---------

def brute_force_fixed_weyl(setting):
    """W^Gamma on the cocharacter lattice: every Weyl element commuting
    with tau and sigma, found by closing the simple reflections of the
    dual datum and testing commutation on the matrices."""
    datum, torus = dual_datum(setting.datum), setting.torus
    weyl = mulclose([datum.reflection_matrix(i)
                     for i in datum.simple_indices])
    return {w for w in weyl
            if w @ torus.tau == torus.tau @ w
            and w @ torus.sigma == torus.sigma @ w}


def root_permutations(matrices, roots):
    return {tuple(roots.index(w.apply(r)) for r in roots) for w in matrices}


def brute_force_orbit(homs, character):
    return {character.precompose(hom).ident() for hom in homs}


def assert_matches_brute_force(setting, characters):
    """The folded generators generate the brute-force W^Gamma, and the
    generator BFS finds the orbit under every descended element of it."""
    torus = setting.torus
    char_side = [pinned_automorphism(setting.datum,
                                     sympy_inverse(m).transpose())
                 for m in (torus.tau, torus.sigma)]
    fixed = brute_force_fixed_weyl(setting)
    gens = folded_generators(setting.datum, *char_side)
    assert mulclose([w.transpose() for w in gens]) == fixed
    homs = descend_to_kottwitz(setting.kottwitz, list(fixed))
    for ch in characters:
        assert (set(weyl_orbit(setting, ch.ident()))
                == brute_force_orbit(homs, ch))


ORACLE_PRESETS = (tuple(TWISTED_SUITE)
                  + tuple(f"unitary {kind} {n}"
                          for kind in ("ramified", "unramified")
                          for n in (3, 4, 5))
                  + ("split GL3", "split Sp4", "split SO5"))


@pytest.mark.parametrize("name", ORACLE_PRESETS)
def test_folded_generators_generate_fixed_weyl_subgroup(name):
    rg = resolve(preset=name)
    tau, sigma = rg.action.tau, rg.action.sigma
    fixed = fixed_weyl_subgroup(weyl_group(rg.datum),
                                [tau.matrix, sigma.matrix])
    folded = mulclose(folded_generators(rg.datum, tau, sigma))
    assert root_permutations(folded, rg.datum.roots) == fixed.permutations
    # the same elements on the cocharacter side, where settings use them
    setting = rg.setting()
    codatum = dual_datum(rg.datum)
    cofolded = mulclose(folded_generators(
        codatum, pinned_automorphism(codatum, setting.torus.tau),
        pinned_automorphism(codatum, setting.torus.sigma)))
    brute = brute_force_fixed_weyl(setting)
    assert cofolded == brute
    cofixed = fixed_weyl_subgroup(weyl_group(codatum),
                                  [setting.torus.tau, setting.torus.sigma])
    assert root_permutations(brute, rg.datum.coroots) == cofixed.permutations


ORBIT_PRESETS = ("split GL3", "split Sp4", "split SO5", "flip A3", "flip D4",
                 "triality D4", "unitary ramified 3", "unitary unramified 4")


@lru_cache(maxsize=None)
def oracle_setting(name):
    setting = resolve(preset=name).setting()
    homs = tuple(descend_to_kottwitz(setting.kottwitz,
                                     list(brute_force_fixed_weyl(setting))))
    return setting, homs


@st.composite
def bounded_characters(draw, group):
    """A character of `group` whose arguments have order dividing n <= 6;
    free generators also get a q-exponent in [-1, 1]."""
    n = draw(st.integers(1, 6))
    values = []
    for d in group.generator_orders():
        g = n if d == 0 else gcd(d, n)
        exponent = Fraction(draw(st.integers(-2, 2)), 2) if d == 0 else 0
        values.append(ExactCircle(exponent,
                                  Fraction(draw(st.integers(0, g - 1)), g)))
    return GroupCharacter(group, values)


@pytest.mark.parametrize("name", ORBIT_PRESETS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_weyl_orbit_matches_brute_force(name, data):
    setting, homs = oracle_setting(name)
    character = data.draw(bounded_characters(setting.group))
    orbit = weyl_orbit(setting, character.ident())
    assert set(orbit) == brute_force_orbit(homs, character)
    cls = classify(setting, parameter_from_character(setting.kottwitz,
                                                     character))
    assert cls.orbit_size == len(orbit)
    assert cls.representative.character.ident() == min(orbit)
    # the integer order picks the same representative as the Fraction order
    assert cls.key() == min(
        GroupCharacter._from_ident(setting.group, k).key()
        for k in orbit)


@pytest.mark.parametrize("name, torsion", [("split GL3", 4), ("flip D4", 2),
                                           ("unitary ramified 3", 6)])
def test_orbits_class_count_is_burnside(name, torsion, capsys):
    """orbits counts (1/|W^Gamma|) sum_w |Fix(w)| classes, with W^Gamma
    enumerated by brute force."""
    setting, homs = oracle_setting(name)
    chars = list(all_characters(setting.group, torsion))
    fixed = sum(ch.precompose(hom) == ch for hom in homs for ch in chars)
    assert fixed % len(homs) == 0
    assert main(["orbits", "--preset", name, "--torsion", str(torsion),
                 "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["character_count"] == len(chars)
    assert result["class_count"] == fixed // len(homs)


def burnside_class_count(setting, torsion):
    """(1/|Gamma|) sum_h #Hom(coker(h - 1), Z/t) over the image Gamma of
    W^Gamma in Aut(T/T_0): the generators' closure under composition.
    A character is fixed by h iff it factors through coker(h - 1), so
    this counts the orbits of t-torsion characters without listing one."""
    identity = GroupHom.identity(setting.group)
    gamma = {action_key_by_unit(identity): identity}
    frontier = [identity]
    while frontier:
        h = frontier.pop()
        for g in setting.weyl_generators:
            hg = h.compose(g)
            key = action_key_by_unit(hg)
            if key not in gamma:
                gamma[key] = hg
                frontier.append(hg)
    fixed = sum(character_count((h - identity).cokernel_group(), torsion)
                for h in gamma.values())
    assert fixed % len(gamma) == 0
    return fixed // len(gamma)


@pytest.mark.parametrize("preset", sorted(GRID))
def test_orbits_class_count_is_burnside_without_enumeration(preset, capsys):
    setting = resolve(preset=preset).setting()
    for torsion in (2, 3, 4):
        assert main(["orbits", "--preset", preset, "--torsion", str(torsion),
                     "--format", "json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["class_count"] == burnside_class_count(setting, torsion)


# --- Burnside on random root data: simple factors times a central torus -----

CARTAN = {"A1": cartan_a(1), "A2": cartan_a(2), "A3": cartan_a(3),
          "B2": ((2, -2), (-1, 2)), "G2": ((2, -1), (-3, 2)),
          "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0),
                 (0, -1, 0, 2))}
# the diagram flip of each factor that has one; that of D4 swaps the two
# fork nodes and fixes the first simple root
DIAGRAM_FLIP = {"A2": (1, 0), "A3": (2, 1, 0), "D4": (0, 1, 3, 2)}

# one or two simple factors of total rank at most 5 (so that the Burnside
# sum stays short), each in simple-root (True) or in fundamental-weight
# (False) coordinates
simple_factors = (st.lists(st.tuples(st.sampled_from(sorted(CARTAN)),
                                     st.booleans()), min_size=1, max_size=2)
                  .filter(lambda fs: sum(len(CARTAN[name])
                                         for name, _ in fs) <= 5))


def simple_system(factors, rank):
    """The simple roots and coroots of the factors, one block of
    coordinates each and the coordinates past them central, in Z^rank."""
    simples, cosimples, off = [], [], 0
    for name, adjoint in factors:
        cartan = CARTAN[name]
        for i, row in enumerate(cartan):
            unit, row_i, col_i = ([0] * rank for _ in range(3))
            unit[off + i] = 1
            for j, entry in enumerate(row):
                row_i[off + j], col_i[off + j] = entry, cartan[j][i]
            simples.append(tuple(unit if adjoint else row_i))
            cosimples.append(tuple(col_i if adjoint else unit))
        off += len(cartan)
    return simples, cosimples


@settings(max_examples=40, deadline=None)
@given(factors=simple_factors, central=st.integers(0, 2))
def test_positive_roots_of_the_closure_match_the_coefficients(factors,
                                                             central):
    """The positive side the closure records is the set of roots whose
    simple coefficients, by exact elimination, are all >= 0."""
    rank = sum(len(CARTAN[name]) for name, _ in factors) + central
    datum = datum_from_simples(*simple_system(factors, rank))
    assert datum.positive_indices == tuple(
        i for i, r in enumerate(datum.roots)
        if all(c >= 0 for c in simple_coefficients_oracle(datum, r)))


@st.composite
def random_twisted_data(draw):
    """`simple_factors` times a central torus of rank 1 or 2, with tau
    and sigma pinned diagram automorphisms and a twist they satisfy.

    Every pinned automorphism used flips some factors, swaps the two
    factors when they are alike, and acts on the central torus by a
    signed permutation; sigma is drawn among those normalising <tau>."""
    factors = draw(simple_factors)
    central = draw(st.integers(1, 2))
    sizes = [len(CARTAN[name]) for name, _ in factors]
    offsets = [sum(sizes[:f]) for f in range(len(factors))]
    rank = sum(sizes) + central
    datum = datum_from_simples(*simple_system(factors, rank))

    def automorphism(flips, swap, central_perm, signs):
        images = []
        for f, (name, _) in enumerate(factors):
            nodes = DIAGRAM_FLIP[name] if flips[f] else range(sizes[f])
            target = offsets[len(factors) - 1 - f] if swap else offsets[f]
            images.extend(target + k for k in nodes)
        images.extend(sum(sizes) + k for k in central_perm)
        return (IntMatrix.permutation(images)
                @ IntMatrix.diagonal([1] * sum(sizes) + list(signs)))

    group = [automorphism(flips, swap, perm, signs)
             for flips in product(*[(False, True) if name in DIAGRAM_FLIP
                                    else (False,) for name, _ in factors])
             for swap in ((False, True) if len(factors) == 2
                          and factors[0] == factors[1] else (False,))
             for perm in permutations(range(central))
             for signs in product((1, -1), repeat=central)]
    tau = draw(st.sampled_from(group))
    order = automorphism_order(tau, rank, "tau")
    normalising = [(sigma, j) for sigma in group
                   for j in range(1, order + 1)
                   if gcd(j, order) == 1
                   and sigma @ tau == tau.power(j % order) @ sigma]
    sigma, twist = draw(st.sampled_from(normalising))
    return GroupConfig(roots=datum.roots, coroots=datum.coroots,
                       simple=datum.simple_indices, tau=("matrix", tau),
                       sigma=("matrix", sigma), twist=twist)


@st.composite
def unimodular(draw, n):
    """g in GL_n(Z) and its inverse, from 12 elementary steps
    g -> (1 + c E_ij) g with c in {1, -1, 2, -2} (none when n = 1)."""
    g = inverse = IntMatrix.identity(n)
    for _ in range(12 if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from((1, -1, 2, -2)))
        step = [[int(r == k) + c * ((r, k) == (i, j)) for k in range(n)]
                for r in range(n)]
        g = IntMatrix(step) @ g
        step[i][j] -= 2 * c
        inverse = inverse @ IntMatrix(step)
    return g, inverse


def change_of_basis(datum, g, inverse):
    """The datum in the basis g: roots g alpha, coroots g^-T alpha^."""
    return BasedRootDatum(datum.rank, images(g, datum.roots),
                          images(inverse.transpose(), datum.coroots),
                          datum.simple_indices, label=datum.label)


@settings(max_examples=20, deadline=None)
@given(rg=st.one_of(st.sampled_from(sorted(GRID_DATA)).map(GRID_DATA.get),
                    random_twisted_data().map(resolve)),
       data=st.data())
def test_the_root_layer_in_any_lattice_basis(rg, data):
    """The sparse paths of the closure, of `validate` and of folding on
    dense data: a datum and tau moved by a random g in GL_n(Z) close to
    the g-image of the closure, validate as the oracle does (on the
    corrupted copies too), and fold to the same type and root counts."""
    datum, tau = rg.datum, rg.action.tau
    g, inverse = data.draw(unimodular(datum.rank))
    moved = change_of_basis(datum, g, inverse)

    def closure(d):
        return root_closure(d.simple_roots(),
                            [d.coroots[i] for i in d.simple_indices])

    roots, coroots, positive = closure(datum)
    image = change_of_basis(datum._replace(roots=tuple(roots),
                                           coroots=tuple(coroots)),
                            g, inverse)
    got, cogot, gpositive = closure(moved)
    assert set(zip(got, cogot)) == set(zip(image.roots, image.coroots))
    assert ({got[i] for i in gpositive}
            == {image.roots[i] for i in positive})
    for case in [moved] + corrupted_copies(moved):
        assert validate(case) == validate_by_matrices(case)
    assert validate(moved) == []
    folded = restricted_root_data(datum, tau)
    refolded = restricted_root_data(moved, pinned_automorphism(
        moved, g @ tau.matrix @ inverse))
    assert ((refolded.type_name, len(refolded.datum.roots),
             len(refolded.reduced_datum.roots))
            == (folded.type_name, len(folded.datum.roots),
                len(folded.reduced_datum.roots)))


def moved_config(rg, g, inverse):
    """A datum's group written as a roots config in the basis g: the
    datum moved by `change_of_basis`, tau and sigma conjugated by g."""
    moved = change_of_basis(rg.datum, g, inverse)
    return GroupConfig(roots=moved.roots, coroots=moved.coroots,
                       simple=moved.simple_indices,
                       tau=("matrix", g @ rg.action.tau.matrix @ inverse),
                       sigma=("matrix", g @ rg.action.sigma.matrix @ inverse),
                       twist=rg.action.twist, q=rg.q)


def basis_free_outputs(config, path):
    """What the commands print that no choice of lattice basis can change:
    the groups, the fold and every `verify-ks` field, and the class count
    and orbit sizes of `orbits`."""
    path.write_text(serialize_config(config))

    def run(command, *extra):
        return cli_result([command, "--config", str(path), *extra])

    orbits = run("orbits", "--torsion", "3")
    return (run("kottwitz")["group"], run("compact"), run("fold"),
            run("verify-ks"), run("modulus")["group"],
            orbits["class_count"],
            sorted(cls["orbit_size"] for cls in orbits["classes"]))


@settings(max_examples=15, deadline=None)
@given(rg=st.one_of(st.sampled_from(sorted(GRID_DATA)).map(GRID_DATA.get),
                    random_twisted_data().map(resolve)),
       data=st.data())
def test_the_commands_in_any_lattice_basis(rg, data, tmp_path_factory):
    """The change-of-basis oracle: a group written in a random basis g of
    GL_n(Z) prints the same basis-free outputs as in its own basis.  Its
    Weyl generators on T/T_0 are then mostly dense, so `orbits` indexes
    columns with several entries, checked against the ident search too."""
    g, inverse = data.draw(unimodular(rg.datum.rank))
    path = tmp_path_factory.mktemp("basis") / "group.cfg"
    n = rg.datum.rank
    moved = moved_config(rg, g, inverse)
    assert (basis_free_outputs(moved, path)
            == basis_free_outputs(moved_config(rg, IntMatrix.identity(n),
                                               IntMatrix.identity(n)), path))
    assert_classes_match_the_ident_search(resolve(moved).setting(), 3)


# --- folding against orbit averages and the folding table --------------------

def orbit_average_count(datum, tau):
    """The number of distinct tau-orbit averages of the roots, each
    orbit walked by applying tau until it returns: in X (x) Q the
    average is the projection onto the tau-fixed part, so it tells the
    restricted roots apart."""
    averages = set()
    for root in datum.roots:
        orbit = [root]
        while (image := tau.apply(orbit[-1])) != root:
            orbit.append(image)
        averages.add(tuple(Fraction(sum(c), len(orbit)) for c in zip(*orbit)))
    return len(averages)


def _simple_type(cartan, comp):
    """The type of a Dynkin component of A_n, B2 (printed C2), G2 or
    D_n, the types of the presets and of `random_twisted_data`."""
    bonds = [cartan[i][j] * cartan[j][i] for i in comp for j in comp if i < j]
    if 3 in bonds:
        return "G2"
    if 2 in bonds:
        return "C2"
    branch = any(sum(1 for j in comp if j != i and cartan[i][j]) == 3
                 for i in comp)
    return f"{'D' if branch else 'A'}{len(comp)}"


def folding_table(name, order):
    """The reduced type of a simple type folded by a diagram automorphism
    of that order, and whether the fold is non-reduced: A_{2n-1} -> C_n,
    A_{2n} -> BC_n (reduced B_n, printed A1 and C2 for n = 1, 2),
    D_n -> B_{n-1}, and triality D4 -> G2."""
    if order == 1:
        return name, False
    family, n = name[0], int(name[1:])
    if order == 3:
        assert name == "D4"
        return "G2", False
    if family == "D":
        return f"B{n - 1}", False
    if n % 2:
        return f"C{(n + 1) // 2}", False
    return {1: "A1", 2: "C2"}.get(n // 2, f"B{n // 2}"), True


def folded_type_name(datum, tau):
    """The folding table applied to each tau-orbit of Dynkin components:
    an orbit of m components folds as one of them under tau^m."""
    k = len(datum.simple_indices)
    simples = datum.simple_roots()
    perm = [simples.index(tau.apply(r)) for r in simples]
    cartan = [[sum(x * y for x, y in zip(a, bv)) for _, bv in
               datum.simple_pairs] for a, _ in datum.simple_pairs]
    types, non_reduced, done = [], False, set()
    for i in range(k):
        if i in done:
            continue
        comp, frontier = {i}, [i]
        while frontier:
            frontier = [j for x in frontier for j in range(k)
                        if cartan[x][j] and j not in comp]
            comp.update(frontier)
        comp = sorted(comp)
        image = comp           # tau^m of comp, until it is comp again
        while True:
            image = [perm[j] for j in image]
            done.update(image)
            if image[0] in comp:
                break
        power = dict(zip(comp, image))
        order, moved = 1, power
        while any(moved[j] != j for j in comp):
            moved, order = {j: power[moved[j]] for j in comp}, order + 1
        name, bc = folding_table(_simple_type(cartan, comp), order)
        types.append(name)
        non_reduced |= bc
    joined = " x ".join(sorted(types)) if types else "torus"
    return (f"BC-type (non-reduced), reduced {joined}" if non_reduced
            else joined)


def assert_fold_matches_the_oracles(rg):
    """One restricted root per distinct tau-orbit average of the roots,
    and the type the folding table gives; returns that type."""
    tau = rg.action.tau.matrix
    folded = restricted_root_data(rg.datum, rg.action.tau)
    assert len(folded.datum.roots) == orbit_average_count(rg.datum, tau)
    assert folded.type_name == folded_type_name(rg.datum, tau)
    return folded.type_name


@pytest.mark.parametrize("preset,type_name", [
    ("flip A2", "BC-type (non-reduced), reduced A1"), ("flip A3", "C2"),
    ("flip A4", "BC-type (non-reduced), reduced C2"), ("flip A5", "C3"),
    ("flip A6", "BC-type (non-reduced), reduced B3"), ("flip A7", "C4"),
    ("flip D4", "B3"), ("triality D4", "G2")])
def test_fold_of_the_presets_follows_the_folding_table(preset, type_name):
    assert assert_fold_matches_the_oracles(resolve(preset=preset)) \
        == type_name


@settings(max_examples=30, deadline=None)
@given(random_twisted_data().map(resolve))
def test_fold_of_random_twisted_data_follows_the_folding_table(rg):
    assert_fold_matches_the_oracles(rg)


def assert_fold_matches_the_reference(datum, tau):
    """Every field of the fold of the simple system equals that of the
    all-orbit reference, labels, coroots and simple indices included;
    the positive side the closure gives the reduced datum is the one its
    simple coefficients give."""
    got = restricted_root_data(datum, tau)
    expected = reference_restricted_root_data(datum, tau)
    for field in RestrictedRootData._fields:
        assert getattr(got, field) == getattr(expected, field), field
    reduced = got.reduced_datum
    assert reduced.positive_indices == BasedRootDatum(*reduced).positive_indices


FOLD_PRESETS = sorted(set(GRID_DATA)
                      | {f"flip A{n}" for n in range(2, 16)}
                      | {f"unitary {kind} {n}" for n in range(2, 12)
                         for kind in ("ramified", "unramified")})


@pytest.mark.parametrize("name", FOLD_PRESETS)
def test_fold_matches_the_all_orbit_reference_on_the_presets(name):
    rg = resolve(preset=name)
    assert_fold_matches_the_reference(rg.datum, rg.action.tau)


def test_fold_of_a_rootless_datum_matches_the_reference():
    """Both data of the fold keep the free rank of the coinvariants."""
    torus = BasedRootDatum(3, (), (), ())
    tau = pinned_automorphism(torus, flip_negate(3))
    assert_fold_matches_the_reference(torus, tau)
    assert restricted_root_data(torus, tau).reduced_datum.rank == 1


@settings(max_examples=40, deadline=None)
@given(random_twisted_data().map(resolve))
def test_fold_matches_the_all_orbit_reference_on_random_data(rg):
    assert_fold_matches_the_reference(rg.datum, rg.action.tau)


def cli_result(argv):
    out = StringIO()
    with redirect_stdout(out):
        assert main(argv + ["--format", "json"]) == 0
    return json.loads(out.getvalue())["result"]


@settings(max_examples=25, deadline=None)
@given(config=random_twisted_data())
def test_orbits_class_count_is_burnside_on_random_data(config,
                                                       tmp_path_factory):
    """The `orbits` command against the Burnside count, which never
    follows a character along the generators, on random data; the orbit
    sizes add up to the characters listed."""
    path = tmp_path_factory.mktemp("burnside") / "group.cfg"
    path.write_text(serialize_config(config))
    setting = resolve(config).setting()
    for torsion in (2, 3):
        result = cli_result(["orbits", "--config", str(path), "--torsion",
                             str(torsion)])
        assert result["class_count"] == burnside_class_count(setting, torsion)
        assert (sum(cls["orbit_size"] for cls in result["classes"])
                == result["character_count"]
                == character_count(setting.group, torsion))


def ident_search_classes(setting, torsion):
    """The classes of the t-torsion characters by an ident search: a
    breadth-first `search` along `_follow` from each member of
    `character_idents` not yet met, each class as its least ident and
    size, sorted."""
    seen, classes = set(), []
    for ident in character_idents(setting.group, torsion):
        if ident not in seen:
            orbit = search([ident], setting.orbit_moves, _follow)
            seen.update(orbit)
            classes.append((min(orbit), len(orbit)))
    return sorted(classes)


def assert_classes_match_the_ident_search(setting, torsion):
    """`character_classes` lists the classes of the ident search, in the
    order of their least idents, each printed from its least ident and
    with its size."""
    assert character_classes(setting.group, torsion, setting.orbit_moves) \
        == [(_render_ident(least), size)
            for least, size in ident_search_classes(setting, torsion)]


@pytest.mark.parametrize("name", sorted(GRID))
def test_character_classes_match_the_ident_search_on_the_grid(name):
    setting = resolve(preset=name).setting()
    for torsion in range(1, 7):
        assert_classes_match_the_ident_search(setting, torsion)


@settings(max_examples=25, deadline=None)
@given(config=random_twisted_data(), torsion=st.integers(1, 4))
def test_character_classes_match_the_ident_search_on_random_data(config,
                                                                 torsion):
    assert_classes_match_the_ident_search(resolve(config).setting(),
                                          torsion)


def test_a_map_off_the_torsion_grid_is_refused():
    """Moves that send the Z/2 generator of Z/2 + Z to the free one are
    no homomorphism: at torsion 4 they would give that generator the
    value e(1/4), off the grid of its 2-torsion values.  The index map
    refuses them rather than round the image."""
    moves = ((((3, 1),), ((3, 1),)),)
    with pytest.raises(ValueError, match="torsion grid"):
        character_classes(FgAbGroup((2,), 1), 4, moves)
    assert character_classes(FgAbGroup((2,), 1), 4,
                             ((((1, 1),), ((3, 1),)),)) == [
        ([a, b], 1) for a in ("1", "e(1/2)")
        for b in ("1", "e(1/4)", "e(1/2)", "e(3/4)")]


@settings(max_examples=20, deadline=None)
@given(config=random_twisted_data(), data=st.data())
def test_classify_equal_and_modulus_on_random_data(config, data,
                                                    tmp_path_factory):
    """`classify`, `equal` and `modulus` on random data against the orbit
    under every element of the brute-force W^Gamma and the per-generator
    modulus pairing."""
    setting = resolve(config).setting()
    homs = descend_to_kottwitz(setting.kottwitz,
                               list(brute_force_fixed_weyl(setting)))
    chi = data.draw(bounded_characters(setting.group))
    orbit = {chi.precompose(hom) for hom in homs}
    psi = data.draw(bounded_characters(setting.group))
    moved = data.draw(st.sampled_from(sorted(orbit, key=GroupCharacter.key)))
    path = tmp_path_factory.mktemp("commands") / "group.cfg"
    for other, same in ((moved, True), (psi, psi in orbit)):
        path.write_text(serialize_config(config._replace(
            values=chi.values, values2=other.values)))
        result = cli_result(["equal", "--config", str(path)])
        assert result["equal"] is same
    least = min(orbit, key=GroupCharacter.key)
    result = cli_result(["classify", "--config", str(path)])
    assert result["canonical"] == [v.render() for v in least.values]
    assert result["orbit_size"] == len(orbit)
    result = cli_result(["modulus", "--config", str(path)])
    assert result["values"] == [v.render()
                                for v in modulus_by_generator(setting)]


def sympy_coinvariants(tau):
    """The coinvariants of tau as `describe` names them, read off sympy's
    Smith form of tau - 1: its entries past 1 are the invariant factors,
    and its zeros count the free rank."""
    n = tau.nrows
    snf = sympy_smith(Matrix((tau - IntMatrix.identity(n)).data), domain=ZZ)
    diagonal = [abs(int(snf[i, i])) for i in range(n)]
    return FgAbGroup([d for d in diagonal if d > 1],
                     diagonal.count(0)).describe()


def sympy_fixed_rank(torus):
    """The free rank of T/T_0, the rank of the lattice tau and sigma both
    fix, by sympy's rank of tau - 1 stacked over sigma - 1."""
    one = IntMatrix.identity(torus.rank)
    stacked = (torus.tau - one).data + (torus.sigma - one).data
    return torus.rank - Matrix(stacked).rank()


@pytest.mark.parametrize("e,f,q", INDUCED_TORI)
def test_kottwitz_matches_sympy_on_induced_tori(e, f, q):
    torus = build_induced_torus(e, f, q)
    result = cli_result(["kottwitz", "--preset", f"induced e={e} f={f} q={q}"])
    assert result["coinvariants"] == sympy_coinvariants(torus.tau)
    assert result["free_rank"] == sympy_fixed_rank(torus) == 1


def d4_fork_flip():
    """D4 in simple-root coordinates times Z, tau its fork-node flip and
    sigma trivial: tau fixes the first simple root, so a W^tau test on
    that root alone keeps all of W(D4), not W(B3)."""
    datum = datum_from_simples(*simple_system([("D4", True)], 5))
    return GroupConfig(roots=datum.roots, coroots=datum.coroots,
                       simple=datum.simple_indices,
                       tau=("matrix", IntMatrix.permutation((0, 1, 3, 2, 4))),
                       sigma=("matrix", IntMatrix.identity(5)), twist=1)


@settings(max_examples=25, deadline=None)
@given(config=random_twisted_data())
@example(config=d4_fork_flip())
def test_kottwitz_and_verify_ks_match_the_oracles_on_random_data(
        config, tmp_path_factory):
    """`kottwitz` against sympy's Smith form of tau - 1, and the fixed
    order of `verify-ks` against the order of W^tau filtered out of the
    breadth-first W by commuting on every root."""
    path = tmp_path_factory.mktemp("oracles") / "group.cfg"
    path.write_text(serialize_config(config))
    rg = resolve(config)
    result = cli_result(["kottwitz", "--config", str(path)])
    assert result["coinvariants"] == sympy_coinvariants(rg.torus.tau)
    assert result["free_rank"] == sympy_fixed_rank(rg.torus)
    fixed = fixed_weyl_subgroup(bfs_weyl_group(rg.datum),
                                [rg.action.tau.matrix])
    result = cli_result(["verify-ks", "--config", str(path)])
    assert result["fixed_order"] == result["folded_order"] == fixed.order


@pytest.mark.parametrize("preset", ["split GL2", "unitary ramified 2"])
def test_verify_ks_with_one_simple_root(preset):
    """One simple root: every guard of the walk, and the W^tau test,
    gathers one index."""
    rg = resolve(preset=preset)
    fixed = fixed_weyl_subgroup(bfs_weyl_group(rg.datum),
                                [rg.action.tau.matrix])
    result = cli_result(["verify-ks", "--preset", preset])
    assert result["fixed_order"] == result["folded_order"] == fixed.order


def test_a_generator_that_is_not_an_involution_is_refused(monkeypatch):
    """Only generators that square to the identity on T/T_0 are certified
    automorphisms; doubling on Z fails, so it never reaches `_follow`,
    which keeps the denominator."""
    setting = resolve(preset="unitary unramified 3").setting()
    assert setting.group.describe() == "Z"
    doubling = GroupHom(setting.group, setting.group, IntMatrix([[2]]))
    monkeypatch.setattr("satake.kottwitz.descend_to_kottwitz",
                        lambda kg, ws: [doubling] * len(ws))
    with pytest.raises(FoldingError, match="involution"):
        setting.weyl_generators


def test_an_involution_modulo_torsion_is_kept(monkeypatch):
    """M @ M differs from the identity only in the Z/2 row, so the square
    is compared after reducing it in T/T_0."""
    setting = resolve(preset="unitary ramified 3").setting()
    assert setting.group.describe() == "Z/2 + Z"
    flip = GroupHom(setting.group, setting.group, IntMatrix([[3, 1],
                                                             [0, -1]]))
    assert (flip.matrix @ flip.matrix).data == ((9, 2), (0, 1))
    monkeypatch.setattr("satake.kottwitz.descend_to_kottwitz",
                        lambda kg, ws: [flip] * len(ws))
    assert setting.weyl_generators == (flip,)


# --- the matrix-level descent against one unit vector at a time -------------

def action_key_by_unit(hom):
    """The images of the unit vectors, reducing on both sides: they
    determine the hom, and they are the unit vectors iff it is the
    identity."""
    n = hom.source.ngens
    return tuple(hom(tuple(int(i == j) for i in range(n))) for j in range(n))


def restrict_by_unit(chom, kg_source, kg_target):
    """The reference for `descend_to_kottwitz`: each generator of T/T_0
    included, mapped by chom and solved in T'/T'_0, one at a time."""
    k = kg_source.group.ngens
    cols = []
    for j in range(k):
        unit = tuple(int(i == j) for i in range(k))
        img = chom(kg_source.inclusion(unit))
        cols.append(subgroup_coordinates(kg_target.inclusion, img))
    return GroupHom(kg_source.group, kg_target.group,
                    IntMatrix.from_columns(cols, nrows=kg_target.group.ngens))


def weyl_generator_matrices_by_unit(setting):
    """The reference for `SphericalSetting.weyl_generators`: descended
    one unit vector at a time, each squared by applying it to its own
    images."""
    kg = setting.kottwitz
    identity = action_key_by_unit(GroupHom.identity(kg.group))
    homs = {}
    for w in folded_generators(setting.datum, setting.action.tau,
                               setting.action.sigma):
        hom = restrict_by_unit(
            induced_hom(kg.coinvariants, w.transpose()), kg, kg)
        key = action_key_by_unit(hom)
        if key == identity or key in homs:
            continue
        if tuple(map(hom, key)) != identity:
            raise FoldingError("folded generator does not act on T/T_0"
                               " as an involution")
        homs[key] = hom
    return [hom.matrix for hom in homs.values()]


GRID_SETTINGS = {name: resolve(preset=name).setting() for name in GRID
                 if resolve(preset=name).datum is not None}


def test_the_grid_descends_onto_torsion_groups():
    torsion = {name for name, setting in GRID_SETTINGS.items()
               if setting.group.torsion_count}
    assert {"flip D4", "unitary ramified 3",
            "unitary ramified 5"} <= torsion


def assert_relative_simple_reflections(setting):
    """The descended generators are the relative simple reflections, one
    per folded generator: W^Gamma acts faithfully on X_*(S)_Q, so they
    are pairwise distinct and none is the identity."""
    keys = [action_key_by_unit(hom) for hom in setting.weyl_generators]
    identity = action_key_by_unit(GroupHom.identity(setting.group))
    assert len(keys) == len(folded_generators(
        setting.datum, setting.action.tau, setting.action.sigma))
    assert len(set(keys)) == len(keys)
    assert identity not in keys


@pytest.mark.parametrize("name", sorted(GRID_SETTINGS))
def test_weyl_descent_matches_unit_vectors_on_the_grid(name):
    """weyl_generators, and kottwitz_hom on -1 and on every folded
    generator, give the matrices of the unit-vector descent."""
    setting = GRID_SETTINGS[name]
    assert ([hom.matrix for hom in setting.weyl_generators]
            == weyl_generator_matrices_by_unit(setting))
    assert_relative_simple_reflections(setting)
    kg = setting.kottwitz
    maps = [-IntMatrix.identity(setting.torus.rank)] + [
        w.transpose() for w in folded_generators(
            setting.datum, setting.action.tau, setting.action.sigma)]
    for matrix in maps:
        khom, chom = kottwitz_hom(matrix, kg, kg)
        assert khom.matrix == restrict_by_unit(chom, kg, kg).matrix
        for hom in (khom, chom):
            units = action_key_by_unit(GroupHom.identity(hom.source))
            assert hom.is_identity() == (action_key_by_unit(hom) == units)
            assert hom.compose(hom).is_identity() == (
                tuple(map(hom, action_key_by_unit(hom))) == units)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_k_maps_descend_to_k_homs(k):
    """k maps in give k homs out, each the unit-vector descent of its own
    map: on the rank-0 torus, whose T/T_0 has no generators, and on a grid
    setting with torsion."""
    kg = kottwitz_group(TorusWithAction(0, IntMatrix.identity(0),
                                        IntMatrix.identity(0)))
    homs = descend_to_kottwitz(kg, [IntMatrix.identity(0)] * k)
    assert [(h.source, h.target, h.matrix.shape) for h in homs] == [
        (kg.group, kg.group, (0, 0))] * k
    khom, chom = kottwitz_hom(IntMatrix.identity(0), kg, kg)
    assert khom.matrix.shape == chom.matrix.shape == (0, 0)
    setting = GRID_SETTINGS["flip D4"]
    kg = setting.kottwitz
    maps = [-IntMatrix.identity(setting.torus.rank)] + [
        w.transpose() for w in folded_generators(
            setting.datum, setting.action.tau, setting.action.sigma)]
    homs = descend_to_kottwitz(kg, maps[:k])
    assert [h.matrix for h in homs] == [
        restrict_by_unit(kottwitz_hom(m, kg, kg)[1], kg, kg).matrix
        for m in maps[:k]]


def folded_generators_by_products(datum, *automorphisms):
    """The reference for `folded_generators`: each descent step the
    product w @ s_j with the full reflection matrix of alpha_j."""
    positive = set(datum.positive_roots())
    out = []
    for orbit in simple_root_orbits(datum, *automorphisms):
        w = IntMatrix.identity(datum.rank)
        while True:
            j = next((j for j in sorted(orbit)
                      if w.apply(datum.roots[j]) in positive), None)
            if j is None:
                break
            w = w @ datum.reflection_matrix(j)
        out.append(w)
    return out


@pytest.mark.parametrize("name", sorted(GRID_SETTINGS))
def test_folded_generators_match_reflection_products_on_the_grid(name):
    setting = GRID_SETTINGS[name]
    for auts in ((), (setting.action.tau,),
                 (setting.action.tau, setting.action.sigma)):
        assert (folded_generators(setting.datum, *auts)
                == folded_generators_by_products(setting.datum, *auts))


@settings(max_examples=25, deadline=None)
@given(config=random_twisted_data())
def test_folded_generators_match_reflection_products_on_random_data(config):
    rg = resolve(config)
    for auts in ((), (rg.action.tau,), (rg.action.tau, rg.action.sigma)):
        assert (folded_generators(rg.datum, *auts)
                == folded_generators_by_products(rg.datum, *auts))


@settings(max_examples=25, deadline=None)
@given(config=random_twisted_data())
def test_weyl_generators_are_distinct_reflections_on_random_data(config):
    assert_relative_simple_reflections(resolve(config).setting())


def test_a_map_that_does_not_commute_with_tau_is_refused():
    """Every descent checks equivariance, the batch of `weyl_generators`
    as well as the one map of `kottwitz_hom`."""
    setting = resolve(preset="unitary ramified 3").setting()
    kg, tau = setting.kottwitz, setting.torus.tau
    shear = IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert shear @ tau != tau @ shear
    with pytest.raises(ValueError, match="tau-equivariant"):
        descend_to_kottwitz(kg, [IntMatrix.identity(3), shear])
    with pytest.raises(ValueError, match="tau-equivariant"):
        kottwitz_hom(shear, kg, kg)


@st.composite
def endomorphisms(draw):
    """An endomorphism of Z/2 + Z/4 + Z: a column of an order-d generator
    holds multiples of t / gcd(d, t) in a row of order t, and zero in a
    free row."""
    group = FgAbGroup((2, 4), 1)
    orders = group.generator_orders()
    cols = []
    for d in orders:
        steps = [1 if not d else (t // gcd(d, t) if t else 0) for t in orders]
        cols.append([step * draw(st.integers(-6, 6)) for step in steps])
    return GroupHom(group, group, IntMatrix.from_columns(cols))


@settings(max_examples=150, deadline=None)
@given(hom=endomorphisms())
def test_action_key_and_square_match_unit_vectors_on_torsion(hom):
    """Most draws are not involutions: `is_identity` of the hom and of
    its matrix-level square agrees with the unit vectors' images, and
    with the hom applied to its own images."""
    units = action_key_by_unit(GroupHom.identity(hom.source))
    assert hom.is_identity() == (action_key_by_unit(hom) == units)
    assert hom.compose(hom).is_identity() == (
        tuple(map(hom, action_key_by_unit(hom))) == units)


@pytest.mark.parametrize("source, target, rows", [
    (FgAbGroup((2, 4), 1), None, [[3, 0, 0], [0, 5, 0], [0, 0, 1]]),
    (FgAbGroup((2, 4), 1), None, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    (FgAbGroup((2, 4), 1), None, [[1, 0, 0], [0, 1, 4], [0, 0, 1]]),
    (FgAbGroup((4,), 0), None, [[-3]]),
    (FgAbGroup((), 2), None, [[1, 0], [0, 1]]),
    (FgAbGroup((), 1), FgAbGroup((3,), 0), [[1]]),
    (FgAbGroup((2,), 0), FgAbGroup((4,), 0), [[2]]),
    (FgAbGroup((2,), 1), FgAbGroup((), 2), [[0, 0], [0, 1]]),
    (FgAbGroup((), 0), None, []),
])
def test_is_identity_matches_unit_vectors(source, target, rows):
    """The identity up to torsion counts; equal images between groups of
    unequal generator orders do not."""
    target = source if target is None else target
    hom = GroupHom(source, target, IntMatrix(rows, ncols=source.ngens))
    units = action_key_by_unit(GroupHom.identity(source))
    assert hom.is_identity() == (source.generator_orders()
                                 == target.generator_orders()
                                 and action_key_by_unit(hom) == units)


@settings(max_examples=60, deadline=None)
@given(na=st.integers(1, 4), nb=st.integers(1, 4),
       eps=st.sampled_from((1, -1)), data=st.data())
def test_kottwitz_hom_matches_unit_vectors_between_sign_tori(na, nb, eps,
                                                              data):
    """tau = eps on both sides, so with eps = -1 both groups are
    (Z/2)^n and every map needs the reduction mod 2."""
    def torus(n):
        return TorusWithAction(n, IntMatrix.diagonal([eps] * n),
                               IntMatrix.identity(n))

    kga, kgb = kottwitz_group(torus(na)), kottwitz_group(torus(nb))
    matrix = IntMatrix([[data.draw(st.integers(-3, 3)) for _ in range(na)]
                        for _ in range(nb)])
    khom, chom = kottwitz_hom(matrix, kga, kgb)
    assert khom.matrix == restrict_by_unit(chom, kga, kgb).matrix


@pytest.mark.parametrize("preset", sorted(NO_WEYL_VALUES))
def test_classification_needs_no_circle_arithmetic(preset, monkeypatch,
                                                   tmp_path, capsys):
    """orbits, classify and equal run on integer numerators and follow
    the Weyl generators on idents: with ExactCircle products and powers
    and `GroupCharacter.precompose` refused, their output is unchanged."""
    values, values2 = NO_WEYL_VALUES[preset]
    cfg = tmp_path / "group.cfg"
    cfg.write_text(f"preset = {preset}\nvalues = {values}\n"
                   f"values2 = {values2}\n")
    runs = (["orbits", "--preset", preset, "--torsion", "2"],
            ["classify", "--config", str(cfg)],
            ["equal", "--config", str(cfg)])

    def outputs():
        out = []
        for argv in runs:
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    expected = outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("ExactCircle arithmetic or precompose used")

    monkeypatch.setattr(ExactCircle, "__mul__", refuse)
    monkeypatch.setattr(ExactCircle, "__pow__", refuse)
    monkeypatch.setattr(GroupCharacter, "precompose", refuse)
    assert outputs() == expected


@st.composite
def tori_fixing_their_coinvariants(draw):
    """A torus of rank 0-6 whose tau is a signed permutation, so that its
    coinvariants may have torsion, and whose sigma is 1, tau or a power
    of tau: each acts trivially on the tau-coinvariants."""
    n = draw(st.integers(0, 6))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    tau = IntMatrix([[signs[i] * (perm[i] == j) for j in range(n)]
                     for i in range(n)], ncols=n)
    sigma = draw(st.sampled_from((IntMatrix.identity(n), tau,
                                  tau.power(draw(st.integers(2, 5))))))
    return TorusWithAction(n, tau, sigma)


def reference_preimages(hom, targets):
    """Preimages solved by the Smith form of [matrix | target relations],
    whatever the matrix."""
    solver = linear_solver(hstack(hom.matrix, hom.target.relation_matrix()))
    n = hom.matrix.ncols
    return [None if x is None else hom.source.reduce(x[:n])
            for x in solver.solve(list(map(hom.target.reduce, targets)))]


@settings(max_examples=150, deadline=None)
@given(torus=tori_fixing_their_coinvariants(), data=st.data())
def test_trivial_frobenius_matches_the_kernel_of_the_zero_map(torus, data):
    """Where sigma fixes the coinvariants, `kottwitz_group` gives what the
    kernel of sigma - 1 gives: the factors, the presentation of T/T_0, its
    inclusion into the coinvariants; and preimages under that identity
    inclusion are the Smith-solved ones."""
    kg = kottwitz_group(torus)
    coinv = kg.coinvariants
    sigma_bar = induced_hom(coinv, torus.sigma)
    group, inclusion = kernel_of_hom(sigma_bar - GroupHom.identity(coinv))
    assert (kg.group.invariant_factors, kg.group.free_rank) == (
        group.invariant_factors, group.free_rank) == (
        coinv.invariant_factors, coinv.free_rank)
    assert (kg.group.proj, kg.group.lift) == (group.proj, group.lift)
    assert kg.inclusion.matrix == inclusion.matrix
    assert kg.inclusion.target is coinv and kg.inclusion.source is kg.group
    orders = coinv.generator_orders()
    targets = data.draw(st.lists(st.tuples(*(
        st.integers(-2 * d - 3, 2 * d + 3) for d in orders)), max_size=4))
    assert kg.inclusion.preimages(targets) == reference_preimages(
        kg.inclusion, targets) == list(map(kg.group.reduce, targets))


@pytest.mark.parametrize("name", [
    "split GL5", "split Sp4", "split SO7", "flip A4", "flip D4",
    "triality D4", "unitary ramified 4", "unitary unramified 4",
    "norm-one", "torus n=0", "induced e=4 f=3 q=5"])
def test_kottwitz_group_matches_the_kernel_on_the_presets(name):
    """On split, inertia-twisted and Frobenius-twisted presets alike,
    T/T_0 and its inclusion are those of the kernel of sigma - 1."""
    kg = resolve(preset=name).setting().kottwitz
    coinv = kg.coinvariants
    group, inclusion = kernel_of_hom(
        induced_hom(coinv, kg.torus.sigma) - GroupHom.identity(coinv))
    assert (kg.group.invariant_factors, kg.group.free_rank, kg.group.proj,
            kg.group.lift, kg.inclusion.matrix) == (
        group.invariant_factors, group.free_rank, group.proj, group.lift,
        inclusion.matrix)


def test_split_torus_group():
    split3 = TorusWithAction(3, IntMatrix.identity(3), IntMatrix.identity(3))
    assert kottwitz_group(split3).group.describe() == "Z^3"
    assert maximal_compact_quotient(split3).describe() == "Z^3"


def test_norm_one_torsion_group():
    kg = kottwitz_group(NORM_ONE)
    assert kg.group.describe() == "Z/2"
    assert maximal_compact_quotient(NORM_ONE).is_trivial()


def test_twist_relation_is_validated():
    # sigma tau sigma^(-1) = tau^q is required of every torus action
    with pytest.raises(ValueError):
        build_induced_torus(2, 1, 4)
    with pytest.raises(ValueError):
        TorusWithAction(2, IntMatrix([[0, 1], [1, 0]]),
                        IntMatrix.identity(2), twist=2)


def smith_path_generators(torus):
    """T/T_0 by elimination alone: the cokernel of tau - 1, then the
    kernel of the sigma it induces, minus 1; its generators as cochar
    vectors (coinvariant lift times inclusion), with the group."""
    coinv = cokernel(torus.tau - IntMatrix.identity(torus.rank))
    sigma_bar = induced_hom(coinv, torus.sigma)
    group, incl = kernel_of_hom(sigma_bar - GroupHom.identity(coinv))
    return group, (coinv.lift @ incl.matrix).columns()


def orbit_path_generators(torus):
    kg = kottwitz_group(torus)
    return kg.group, (kg.coinvariants.lift @ kg.inclusion.matrix).columns()


@st.composite
def permutation_tori(draw):
    """Z^n, 1 <= n <= 12, with tau a random permutation and sigma one
    commuting with it: sigma carries each tau-cycle onto a cycle of the
    same length, rotated."""
    n = draw(st.integers(1, 12))
    labels = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    cycles = [labels[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    tau, sigma = [None] * n, [None] * n
    for c in cycles:
        for i, x in enumerate(c):
            tau[x] = c[(i + 1) % len(c)]
    for length in {len(c) for c in cycles}:
        alike = [c for c in cycles if len(c) == length]
        for c, d in zip(alike, draw(st.permutations(alike))):
            turn = draw(st.integers(0, length - 1))
            for i, x in enumerate(c):
                sigma[x] = d[(i + turn) % length]
    return TorusWithAction(n, IntMatrix.permutation(tau),
                           IntMatrix.permutation(sigma))


@settings(max_examples=100, deadline=None)
@given(torus=permutation_tori())
@example(torus=TorusWithAction(4, IntMatrix.permutation([0, 1, 3, 2]),
                               IntMatrix.permutation([0, 1, 3, 2])))
@example(torus=TorusWithAction(6, IntMatrix.permutation([1, 0, 3, 2, 5, 4]),
                               IntMatrix.permutation([2, 3, 4, 5, 0, 1])))
def test_permutation_tori_keep_the_smith_path_generators(torus):
    """On a permutation torus with commuting sigma, T/T_0 by orbits has
    the group and the generators of the elimination, up to order."""
    got_group, got = orbit_path_generators(torus)
    want_group, want = smith_path_generators(torus)
    assert got_group == want_group
    assert sorted(got) == sorted(want)


INDUCED_UP_TO_8 = [(e, f, q) for e in range(1, 9) for f in range(1, 9)
                   for q in (2, 3, 5) if gcd(q, e) == 1]


def test_induced_tori_keep_the_smith_path_generators_in_order():
    """On the induced tori with e, f <= 8 the orbit path gives T/T_0 the
    generator of the elimination, though it may list the coinvariants'
    orbits in another order (first at e = 2, f = 3)."""
    for e, f, q in INDUCED_UP_TO_8:
        torus = build_induced_torus(e, f, q)
        assert orbit_path_generators(torus) == smith_path_generators(
            torus), (e, f, q)


@pytest.mark.parametrize("preset", sorted(GRID))
def test_grid_presets_keep_the_smith_path_generators_in_order(preset):
    torus = resolve(preset=preset).setting().torus
    assert orbit_path_generators(torus) == smith_path_generators(torus)


def test_permutation_coinvariants_list_orbits_by_largest_index():
    """tau = sigma swapping e_2 and e_3: the orbits {0}, {1}, {2, 3} in
    the order of their largest index, each lifted to the unit vector
    there, so T/T_0 = Z^3 is generated by the classes of e_0, e_1, e_3.
    (The elimination listed e_1 before e_0.)"""
    swap = IntMatrix.permutation([0, 1, 3, 2])
    kg = kottwitz_group(TorusWithAction(4, swap, swap))
    assert kg.group.describe() == "Z^3"
    assert kg.coinvariants.proj.data == ((1, 0, 0, 0), (0, 1, 0, 0),
                                         (0, 0, 1, 1))
    assert kg.coinvariants.lift.columns() == [(1, 0, 0, 0), (0, 1, 0, 0),
                                              (0, 0, 0, 1)]
    assert kg.inclusion.matrix == IntMatrix.identity(3)


# Smith forms to descend the folded generators: none where Frobenius
# fixes the inertia coinvariants, so that T/T_0 is all of them
INCLUSION_FORMS = {"flip A5": 0, "split GL4": 0, "triality D4": 0,
                   "unitary ramified 5": 0, "unitary unramified 5": 1,
                   "unitary unramified 6": 1}


@pytest.mark.parametrize("name", list(INCLUSION_FORMS))
def test_descending_generators_factors_the_inclusion_once(name, monkeypatch):
    """Every folded generator descends through at most one Smith form of
    the inclusion of T/T_0: all their columns are solved in one call.  An
    identity inclusion, where Frobenius acts trivially on the inertia
    coinvariants, takes none: each column is its own reduction."""
    from satake import matrices

    forms = INCLUSION_FORMS[name]
    rg = resolve(preset=name)
    setting = rg.setting()
    gens = [w.transpose() for w in folded_generators(
        rg.datum, rg.action.tau, rg.action.sigma)]
    kg = kottwitz_group(setting.torus)   # a fresh inclusion, not yet factored
    assert len(gens) >= 2 and kg.group.ngens >= 2
    assert matrices._is_identity(kg.inclusion.matrix) == (forms == 0)
    calls = []
    real = matrices.smith_normal_form

    def counting(matrix, **kwargs):
        calls.append(matrix)
        return real(matrix, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "smith_normal_form", None) is real:
            monkeypatch.setattr(module, "smith_normal_form", counting)
    homs = descend_to_kottwitz(kg, gens)
    assert len(calls) == forms
    assert [h.matrix for h in homs] == [
        descend_to_kottwitz(setting.kottwitz, [w])[0].matrix for w in gens]


@pytest.mark.parametrize("name, kernels", [
    ("flip D4", 0), ("split GL4", 0), ("unitary ramified 5", 0),
    ("unitary unramified 5", 1)])
def test_trivial_frobenius_takes_no_kernel(name, kernels, monkeypatch,
                                           capsys):
    """`modulus` computes T/T_0 by one `kernel_of_hom` only where Frobenius
    moves the inertia coinvariants; where it fixes them, T/T_0 is all of
    them, and the output is the same."""
    from satake import abelian

    calls = []
    real = abelian.kernel_of_hom

    def counted(hom):
        calls.append(hom)
        return real(hom)
    monkeypatch.setattr(abelian, "kernel_of_hom", counted)
    assert main(["modulus", "--preset", name]) == 0
    assert "result.values" in capsys.readouterr().out
    assert len(calls) == kernels


def test_twist_relation_is_checked_without_inverses():
    """One validator serves the torus and the Galois action, and checks
    sigma tau = tau^j sigma, so sigma is never inverted."""
    gl4 = split_gl(4)
    flip = pinned_automorphism(gl4, flip_negate(4))
    ident = pinned_automorphism(gl4, IntMatrix.identity(4))
    torus = build_induced_torus(8, 8, 3)
    assert torus.sigma @ torus.tau == torus.tau.power(3) @ torus.sigma
    GaloisAction(flip, ident, 1)
    GaloisAction(ident, flip, 5)
    with pytest.raises(ValueError, match="twist relation"):
        # tau = (1 2) and sigma = (2 3) do not normalise each other
        TorusWithAction(3, IntMatrix([[0, 1, 0], [1, 0, 0],
                                               [0, 0, 1]]),
                        IntMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))
    with pytest.raises(ValueError, match="twist relation"):
        GaloisAction(flip, ident, 2)


INDUCED_PRESETS = sorted({name for name in GRID if name.startswith("induced")}
                         | {f"induced e={e} f={f} q={q}"
                            for e, f, q in INDUCED_TORI})


def assert_induced_torus_is_valid(torus):
    """`build_induced_torus` builds its record unchecked; here both
    matrices pass the automorphism check, tau has order e, and the twist
    relation holds with exponent q."""
    e, f, q = torus.induced_params
    assert torus.rank == e * f and torus.twist == q
    tau_order = automorphism_order(torus.tau, torus.rank, "tau")
    assert tau_order == e
    assert automorphism_order(torus.sigma, torus.rank, "sigma") >= f
    check_twist_relation(torus.tau, torus.sigma, q, tau_order)
    assert TorusWithAction(*torus) == torus


@pytest.mark.parametrize("name", INDUCED_PRESETS)
def test_induced_presets_pass_the_torus_checks(name):
    assert_induced_torus_is_valid(resolve(preset=name).torus)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(2, 11))
def test_induced_tori_pass_the_torus_checks(e, f, q):
    if gcd(q, e) != 1:
        with pytest.raises(ValueError, match="tameness"):
            build_induced_torus(e, f, q)
        return
    assert_induced_torus_is_valid(build_induced_torus(e, f, q))


def test_induced_grid_is_infinite_cyclic():
    for e in range(1, 5):
        for f in range(1, 5):
            for q in (3, 5, 7):
                if gcd(q, e) != 1:
                    continue
                torus = build_induced_torus(e, f, q)
                kg = kottwitz_group(torus)
                assert kg.group.describe() == "Z", (e, f, q)
                assert maximal_compact_quotient(torus).describe() == "Z"


def test_cocycle_shape():
    chi, c = induced_torus_cocycle(build_induced_torus(2, 1, 3), Q)
    assert chi == (1, 1)
    assert c == Q
    chi12, _ = induced_torus_cocycle(build_induced_torus(1, 2, 5), Q)
    assert chi12 == (1, 0)
    with pytest.raises(ValueError):
        induced_torus_cocycle(NORM_ONE, Q)


def test_cocycle_round_trip_small():
    for (e, f) in ((2, 1), (1, 2), (2, 2), (3, 2)):
        torus = build_induced_torus(e, f, 5)
        kg = kottwitz_group(torus)
        for fval in (Q, QINV, QHALF, ExactCircle(0, Fraction(3, 8))):
            chi, c = induced_torus_cocycle(torus, fval)
            back = character_from_dual_point(kg, chi, c)
            assert back == induced_character(kg, fval), (e, f, fval)


def test_dual_point_requires_inertia_invariance():
    torus = build_induced_torus(2, 1, 3)
    kg = kottwitz_group(torus)
    with pytest.raises(ValueError):
        character_from_dual_point(kg, (1, 0), Q)   # not tau-fixed


def test_sl2_classification():
    setting = unramified_setting(SL2)
    assert setting.group.describe() == "Z"

    def par(v):
        return parameter_from_character(
            setting.kottwitz, GroupCharacter(setting.group, (v,)))

    assert_matches_brute_force(
        setting, [par(v).character for v in (ONE, Q, Q ** 2)])

    assert parameters_equal(setting, par(Q), par(QINV))
    assert not parameters_equal(setting, par(Q), par(Q ** 2))
    cls = classify(setting, par(Q))
    assert cls.orbit_size == 2
    assert cls.representative.character.values[0] == QINV
    assert classify(setting, par(ONE)).orbit_size == 1
    reflection, = descend_to_kottwitz(setting.kottwitz, [IntMatrix([[-1]])])
    assert par(Q).character.precompose(reflection).values[0] == QINV
    assert descend_to_kottwitz(setting.kottwitz, []) == []
    with pytest.raises(ValueError, match="source lattice"):
        descend_to_kottwitz(setting.kottwitz,
                            [IntMatrix([[-1]]), IntMatrix([[-1, 0]])])


def test_gl2_classification_and_modulus():
    setting = unramified_setting(split_gl(2))
    assert setting.group.describe() == "Z^2"

    def par(a, b):
        return parameter_from_character(
            setting.kottwitz, GroupCharacter(setting.group, (a, b)))

    assert_matches_brute_force(
        setting, [par(a, b).character for a in (ONE, Q) for b in (Q, QINV)])

    assert parameters_equal(setting, par(Q, ONE), par(ONE, Q))
    assert not parameters_equal(setting, par(Q, ONE), par(Q, Q))
    assert classify(setting, par(Q, ONE)).orbit_size == 2
    assert classify(setting, par(Q, Q)).orbit_size == 1
    # 2 rho = (1, -1): the central direction is modulus-free
    delta = modulus_character(setting)
    assert evaluate(delta, (1, 0)) == QHALF
    assert evaluate(delta, (1, 1)) == ONE


def test_sl2_modulus_at_coroot():
    delta = modulus_character(unramified_setting(SL2))
    assert evaluate(delta, (1,)) == Q
    assert evaluate(delta, (0,)) == ONE
    assert evaluate(delta, (2,)) == Q ** 2


def test_torus_setting_modulus_is_trivial():
    setting = setting_for_torus(NORM_ONE)
    assert evaluate(modulus_character(setting), (1,)) == ONE
    assert setting.weyl_generators == ()


def modulus_by_generator(setting):
    """delta^{1/2} at each generator e_j of T/T_0, one pairing
    <2 rho, lift(incl(e_j))> per generator, and 1 on a bare torus: the
    oracle for the dual-point character."""
    kg = setting.kottwitz
    n = kg.group.ngens
    if setting.datum is None:
        return (ONE,) * n
    two_rho = setting.datum.two_rho()
    values = []
    for j in range(n):
        unit = tuple(int(i == j) for i in range(n))
        lift = kg.coinvariants.lift.apply(kg.inclusion(unit))
        pair = sum(a * b for a, b in zip(two_rho, lift))
        values.append(ExactCircle(Fraction(pair, 2), 0))
    return tuple(values)


def test_modulus_character_matches_per_generator_pairing():
    """On every grid preset (split and twisted data, bare and induced
    tori), including the torsion of flip D4 and unitary ramified 3 and 5."""
    with_torsion = set()
    for name in GRID:
        setting = resolve(preset=name).setting()
        assert modulus_character(setting).values == \
            modulus_by_generator(setting), name
        if setting.group.torsion_count:
            with_torsion.add(name)
    assert {"flip D4", "unitary ramified 3",
            "unitary ramified 5"} <= with_torsion


def test_one_modulus_command_sums_the_positive_roots_once(monkeypatch,
                                                           capsys):
    calls = []
    original = BasedRootDatum.two_rho

    def counted(self):
        calls.append(self)
        return original(self)
    monkeypatch.setattr(BasedRootDatum, "two_rho", counted)
    assert main(["modulus", "--preset", "flip D4"]) == 0
    assert "result.values" in capsys.readouterr().out
    assert len(calls) == 1


def test_each_command_builds_the_orbit_moves_once(monkeypatch, tmp_path,
                                                  capsys):
    """`orbit_moves` turns each Weyl generator into moves once per
    setting: orbits on split GL4 searches 15 orbits, and classify and
    equal on flip D4 one each, all on the one set of moves per command."""
    built = []

    def counted(matrix):
        built.append(matrix)
        return _moves(matrix)
    monkeypatch.setattr("satake.kottwitz._moves", counted)
    ngens = len(resolve(preset="split GL4").setting().weyl_generators)
    assert main(["orbits", "--preset", "split GL4", "--torsion", "3",
                 "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["class_count"] == 15
    assert len(built) == ngens == 3
    values, values2 = NO_WEYL_VALUES["flip D4"]
    cfg = tmp_path / "group.cfg"
    cfg.write_text(f"preset = flip D4\nvalues = {values}\n"
                   f"values2 = {values2}\n")
    ngens = len(resolve(preset="flip D4").setting().weyl_generators)
    for command in ("classify", "equal"):
        built.clear()
        assert main([command, "--config", str(cfg)]) == 0
        assert len(built) == ngens == 3


def test_norm_one_has_two_classes():
    setting = setting_for_torus(NORM_ONE)
    chars = list(all_characters(setting.group))
    assert len(chars) == 2
    keys = {classify(setting, parameter_from_character(setting.kottwitz, ch)).key()
            for ch in chars}
    assert len(keys) == 2


def test_classify_rejects_foreign_characters():
    setting = unramified_setting(SL2)
    other = setting_for_torus(NORM_ONE)
    ch = GroupCharacter(other.group, (ExactCircle(0, Fraction(1, 2)),))
    with pytest.raises(ValueError):
        classify(setting, parameter_from_character(other.kottwitz, ch))


def test_classify_cap():
    setting = unramified_setting(split_gl(3))
    ch = GroupCharacter(setting.group, (Q, ONE, QINV))
    par = parameter_from_character(setting.kottwitz, ch)
    with pytest.raises(CapExceeded):
        classify(setting, par, max_orbit=2)


def check_squares(mat, kga, kgb):
    khom, chom = kottwitz_hom(mat, kga, kgb)
    left = chom.compose(kga.inclusion)
    right = kgb.inclusion.compose(khom)
    assert (left - right).is_zero()
    for j in range(mat.ncols):
        col = tuple(mat.column(j))
        lhs = kgb.coinvariants.reduce(kgb.coinvariants.proj.apply(col))
        unit = tuple(int(i == j) for i in range(mat.ncols))
        rhs = chom(kga.coinvariants.project(unit))
        assert lhs == rhs
    return khom, chom


def test_envelope_of_norm_one():
    env = induced_envelope(NORM_ONE, 2)
    assert env.prime.rank == 2
    assert env.prime.tau == IntMatrix([[0, 1], [1, 0]])
    assert env.prime.sigma == IntMatrix.identity(2)
    kgp = kottwitz_group(env.prime)
    kgn = kottwitz_group(NORM_ONE)
    assert kgp.group.describe() == "Z"
    khom, _ = check_squares(env.norm, kgp, kgn)
    assert khom.is_surjective()
    # every character of the target is hit through the norm correspondence
    pulled = {ch.precompose(khom).key() for ch in all_characters(kgn.group)}
    assert len(pulled) == 2
    # the embedding direction collapses: Z/2 has no injection into Z
    khom_e, _ = kottwitz_hom(env.embed, kgn, kgp)
    assert khom_e.is_zero()
    check_squares(env.embed, kgn, kgp)


def test_envelope_degenerate_and_multiplicative():
    split3 = TorusWithAction(3, IntMatrix.identity(3), IntMatrix.identity(3))
    env1 = induced_envelope(split3, 1)
    assert env1.prime.rank == 3
    assert env1.embed == IntMatrix.identity(3)
    gm = TorusWithAction(1, IntMatrix.identity(1), IntMatrix.identity(1))
    env2 = induced_envelope(gm, 2)
    assert env2.prime.rank == 2
    assert env2.embed.data == ((1,), (1,))
    assert env2.prime.sigma == IntMatrix([[0, 1], [1, 0]])
    # norm after diagonal embedding is multiplication by the degree
    comp = env2.norm @ env2.embed
    assert comp == IntMatrix([[2]])


def test_kottwitz_hom_requires_equivariance():
    kgn = kottwitz_group(NORM_ONE)
    kg21 = kottwitz_group(build_induced_torus(2, 1, 3))
    check_squares(IntMatrix([[1], [-1]]), kgn, kg21)   # antidiagonal works
    with pytest.raises(ValueError):
        kottwitz_hom(IntMatrix([[1], [0]]), kgn, kg21)


def random_permutation_matrix(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return IntMatrix.from_columns([tuple(int(i == perm[j]) for i in range(n))
                                   for j in range(n)], nrows=n)


def test_random_equivariant_squares():
    """Seeded sweep: sign actions with arbitrary maps, permutation actions
    with transfer-averaged maps."""
    rng = random.Random(1984)
    for trial in range(60):
        if trial % 2 == 0:
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            eps = rng.choice((-1, 1))
            ta = IntMatrix.diagonal([eps] * na)
            tb = IntMatrix.diagonal([eps] * nb)
            sa = IntMatrix.identity(na)
            sb = IntMatrix.identity(nb)
            mat = IntMatrix([[rng.randint(-3, 3) for _ in range(na)]
                             for _ in range(nb)])
        else:
            n = rng.randint(1, 4)
            na = nb = n
            ta = tb = random_permutation_matrix(rng, n)
            k = rng.randint(0, n)
            sa = sb = ta.power(k)
            base = IntMatrix([[rng.randint(-2, 2) for _ in range(n)]
                              for _ in range(n)])
            mat = IntMatrix.zeros(n, n)
            g = IntMatrix.identity(n)
            order = ta.multiplicative_order()
            for _ in range(order):
                mat = mat + g @ base @ sympy_inverse(g)
                g = g @ ta
        torus_a = TorusWithAction(na, ta, sa)
        torus_b = TorusWithAction(nb, tb, sb)
        check_squares(mat, kottwitz_group(torus_a), kottwitz_group(torus_b))


# --- trivial actions take no Smith elimination ------------------------------

GL5_VALUES = "[(1/2,7/8),(1,1/8),(1/2,7/8),(0,1/8),(0,1/2)]"


def eliminations(monkeypatch, tmp_path, capsys, argv):
    """The Smith eliminations of one command: a trivial form runs none."""
    cfg = tmp_path / "values.cfg"
    cfg.write_text(f"values = {GL5_VALUES}\n")
    calls = []
    eliminate = matrices._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(matrices, "_eliminate", counted)
    assert main([str(cfg) if a == "CFG" else a for a in argv]) == 0
    capsys.readouterr()
    return len(calls)


@pytest.mark.parametrize("argv", [
    ["modulus", "--preset", "split GL5"],
    ["classify", "--preset", "split GL5", "--config", "CFG"],
    ["kottwitz", "--preset", "torus n=4"],
    ["orbits", "--preset", "split GL4", "--torsion", "3"],
])
def test_trivial_actions_run_no_smith_elimination(argv, monkeypatch, tmp_path,
                                                  capsys):
    """tau = sigma = 1: the coinvariants, the sigma-invariants and the
    descent to T/T_0 factor only zero and identity matrices."""
    assert eliminations(monkeypatch, tmp_path, capsys, argv) == 0


def test_a_ramified_action_still_runs_the_elimination(monkeypatch, tmp_path,
                                                      capsys):
    assert eliminations(monkeypatch, tmp_path, capsys,
                        ["modulus", "--preset", "unitary ramified 5"]) > 0


@pytest.mark.parametrize("command", ["kottwitz", "compact"])
def test_induced_tori_run_no_smith_elimination(command, monkeypatch, tmp_path,
                                               capsys):
    """tau and sigma permute the basis of an induced torus: T/T_0 is read
    off the orbits, with no elimination."""
    assert eliminations(monkeypatch, tmp_path, capsys,
                        [command, "--preset", "induced e=8 f=8 q=3"]) == 0


@pytest.mark.parametrize("argv,expected", [
    (["kottwitz"], "command = kottwitz\ninput.name = torus n=0\n"
     "result.group = 0\nresult.invariant_factors = []\n"
     "result.free_rank = 0\nresult.coinvariants = 0\n"),
    (["modulus"], "command = modulus\ninput.name = torus n=0\n"
     "result.group = 0\nresult.values = []\n"),
    (["orbits", "--torsion", "3"], "command = orbits\n"
     "input.name = torus n=0\nresult.group = 0\nresult.torsion = 3\n"
     "result.character_count = 1\nresult.class_count = 1\n"
     "result.classes[0].values = []\nresult.classes[0].orbit_size = 1\n"),
])
def test_the_rank_zero_torus_prints_its_trivial_group(argv, expected, capsys):
    """Every matrix of a rank-0 torus is both zero and an identity."""
    assert main([*argv, "--preset", "torus n=0"]) == 0
    assert capsys.readouterr().out == (
        f"{expected}version = {__version__}\nexact = true\n")
