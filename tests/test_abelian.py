"""Finitely generated abelian groups, homomorphisms and characters."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from satake.abelian import (
    FgAbGroup, GroupCharacter, GroupHom, all_characters, character_count,
    character_idents, coinvariants, cokernel, induced_hom,
    invariants_of_induced_action, kernel_of_hom, subgroup_coordinates,
)
from satake.circle import ExactCircle, ONE
from satake.abelian import _follow, _moves
from satake.matrices import IntMatrix, smith_normal_form


@pytest.mark.parametrize("m", range(5))
def test_cokernel_of_no_columns_is_the_smith_path(m):
    """With no columns, Z^m itself on the identity presentation: what a
    Smith form of the m x 0 matrix gives, read as `cokernel` reads it."""
    sf = smith_normal_form(IntMatrix.zeros(m, 0), with_v=False)
    group = cokernel(IntMatrix.zeros(m, 0))
    assert sf.diagonal == () and group == FgAbGroup((), m)
    assert (group.invariant_factors, group.free_rank) == ((), m)
    assert group.proj == sf.U == IntMatrix.identity(m)
    assert group.lift == IntMatrix.from_columns(
        sf.u_inv_columns(range(m)), nrows=m) == IntMatrix.identity(m)


@st.composite
def zero_matrices(draw, max_dim=6):
    """A zero m x n matrix, m x 0 and 0 x n included: from `zeros`, from
    nested lists, or as A - A."""
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(("zeros", "zero rows", "difference")))
    if kind == "zeros":
        return IntMatrix.zeros(m, n)
    if kind == "zero rows":
        return IntMatrix([[0] * n for _ in range(m)], ncols=n)
    a = IntMatrix([[draw(st.integers(-9, 9)) for _ in range(n)]
                   for _ in range(m)], ncols=n)
    return a - a


@settings(max_examples=100, deadline=None)
@given(zero=zero_matrices())
def test_cokernel_of_any_zero_matrix_is_the_free_lattice(zero):
    """Z^m on the identity presentation, as for no columns above."""
    m = zero.nrows
    group = cokernel(zero)
    assert (group.invariant_factors, group.free_rank) == ((), m)
    assert group.proj == group.lift == IntMatrix.identity(m)


def test_canonical_form_and_describe():
    assert FgAbGroup((2, 6), 1).describe() == "Z/2 + Z/6 + Z"
    assert FgAbGroup((), 3).describe() == "Z^3"
    assert FgAbGroup((), 1).describe() == "Z"
    assert FgAbGroup((), 0).describe() == "0"
    with pytest.raises(ValueError):
        FgAbGroup((3, 2), 0)   # not a divisibility chain
    with pytest.raises(ValueError):
        FgAbGroup((1,), 0)     # trivial factors are not stored


def test_equality_ignores_presentation():
    quo = cokernel(IntMatrix([[2, 0], [0, 1]]))
    assert quo == FgAbGroup((2,), 0)
    assert quo.describe() == "Z/2"
    # projection and lift stay consistent: proj o lift = identity
    comp = quo.proj @ quo.lift
    assert comp == IntMatrix.identity(comp.nrows)


def test_reduce_and_arithmetic():
    g = FgAbGroup((4,), 1)
    assert g.reduce((5, -2)) == (1, -2)
    assert g.reduce((3 + 2, 1 + 2)) == (1, 3)
    assert g.reduce((-1, -1)) == (3, -1)
    assert g.reduce((9, 3)) == (1, 3)
    assert not g.is_finite()
    assert character_count(FgAbGroup((2, 4), 0)) == 8
    assert FgAbGroup((2, 4), 0).invariant_factors[-1] == 4


def test_cokernel_presentations():
    # Z^2 / <(2,0),(0,3)> = Z/6 after invariant-factor normalization
    quo = cokernel(IntMatrix([[2, 0], [0, 3]]))
    assert quo.describe() == "Z/6"
    for vec in ((1, 0), (0, 1), (2, 3)):
        coords = quo.project(vec)
        assert quo.reduce(coords) == coords
        back = quo.lift.apply(coords)
        # lifting and re-projecting is the identity on the quotient
        assert quo.project(back) == coords
    assert quo.project((1, 1)) != quo.zero()
    assert quo.project((2, 3)) == quo.zero()
    assert quo.project((2, 0)) == quo.zero()


def pi0_fixed(matrix):
    """pi_0(D^tau) for the diagonalizable group D with character group
    Z^n on which tau acts by `matrix`: isomorphic to its dual, the
    torsion of the coinvariants.

    The oracle for verify-ks's `tad_connected`, which the pinning
    decides: tau permutes the simple coroots, a basis of the character
    lattice of the adjoint torus, so its pi_0 is trivial.

    >>> pi0_fixed(IntMatrix([[-1]])).describe()
    'Z/2'
    """
    return coinvariants(matrix).torsion_subgroup()[0]


def test_coinvariants_examples():
    swap = IntMatrix([[0, 1], [1, 0]])
    assert coinvariants(swap).describe() == "Z"
    neg = IntMatrix([[-1]])
    assert coinvariants(neg).describe() == "Z/2"
    assert coinvariants(IntMatrix.identity(2)).describe() == "Z^2"
    # only the shape is checked: Z / (2 - 1)Z is trivial
    assert coinvariants(IntMatrix([[2]])).describe() == "0"
    with pytest.raises(ValueError, match="shape"):
        coinvariants(IntMatrix([[1, 0]]))


@st.composite
def square_matrices(draw, max_dim=8):
    """A square matrix of size 0 to 8, entries in [-2, 2] and often 0."""
    n = draw(st.integers(0, max_dim))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -2))
    return IntMatrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=n, max_size=n)), ncols=n)


@settings(max_examples=150, deadline=None)
@given(mat=st.one_of(square_matrices(),
                     st.integers(0, 8).map(IntMatrix.identity)))
def test_coinvariants_are_the_cokernel_of_matrix_minus_one(mat):
    """tau - 1 formed one diagonal entry at a time is the dense difference.
    A permutation other than the identity is read off its orbits, whose
    presentation may order the generators otherwise: the orbit test below
    compares those up to that order."""
    n = mat.nrows
    assume(mat == IntMatrix.identity(n)
           or sorted(mat.data) != sorted(IntMatrix.identity(n).data))
    got = coinvariants(mat)
    want = cokernel(mat - IntMatrix.identity(mat.nrows))
    assert (got.invariant_factors, got.free_rank, got.proj.key(),
            got.lift.key()) == (want.invariant_factors, want.free_rank,
                                want.proj.key(), want.lift.key())


# the images of a permutation of range(n), 1 <= n <= 12
PERMUTATIONS = st.integers(1, 12).flatmap(lambda n: st.permutations(range(n)))
IDENTITY, FIXED_POINTS = [0, 1, 2, 3], [0, 2, 1, 3, 4]
LONG_CYCLE = list(range(1, 12)) + [0]
# the elimination lists these orbits in another order: {1} before {0},
# and the lifts of {7}, {1, 8}, {2}, {long} in that order
REORDERED = ([0, 1, 3, 2], [4, 8, 2, 10, 5, 9, 0, 7, 1, 3, 6])


@settings(max_examples=150, deadline=None)
@given(images=PERMUTATIONS)
@example(images=IDENTITY)
@example(images=FIXED_POINTS)
@example(images=LONG_CYCLE)
@example(images=REORDERED[0])
@example(images=REORDERED[1])
def test_orbit_coinvariants_present_the_cokernel(images):
    """The orbit presentation of a permutation's coinvariants against the
    elimination's cokernel of tau - 1: the same factors, proj lift = I,
    proj (tau - 1) = 0, the same lift up to column order, and the two
    presentations differ by a unimodular change of generators."""
    n = len(images)
    tau = IntMatrix.permutation(images)
    tau_minus_1 = tau - IntMatrix.identity(n)
    got = coinvariants(tau)
    want = cokernel(tau_minus_1)
    assert (got.invariant_factors, got.free_rank) == (
        want.invariant_factors, want.free_rank)
    assert got.torsion_count == 0
    assert got.proj @ got.lift == IntMatrix.identity(got.ngens)
    assert not any(map(any, (got.proj @ tau_minus_1).data))
    assert sorted(got.lift.columns()) == sorted(want.lift.columns())
    assert (want.proj @ got.lift).is_unimodular()
    # proj rows are the orbit indicators, ordered by largest index
    tops = [max(i for i, x in enumerate(row) if x) for row in got.proj.data]
    assert tops == sorted(tops)
    assert all(row[images[i]] == row[i] for row in got.proj.data
               for i in range(n))


@settings(max_examples=150, deadline=None)
@given(images=PERMUTATIONS)
@example(images=IDENTITY)
@example(images=FIXED_POINTS)
@example(images=LONG_CYCLE)
@example(images=REORDERED[1])
def test_orbit_sum_invariants_are_the_kernel(images):
    """The fixed subgroup of a permutation of free generators, free on
    the orbit sums, against `kernel_of_hom` of endo - 1: the same
    subgroup, included column for column as it is."""
    n = len(images)
    group = FgAbGroup((), n)
    endo = GroupHom(group, group, IntMatrix.permutation(images))
    got, incl = invariants_of_induced_action(group, endo)
    want, want_incl = kernel_of_hom(endo - GroupHom.identity(group))
    assert got == want and got.torsion_count == 0
    assert incl.matrix == want_incl.matrix
    assert all(col[images[i]] == col[i] for col in incl.matrix.columns()
               for i in range(n))


def test_hom_construction_checks_relations():
    z2 = FgAbGroup((2,), 0)
    z = FgAbGroup((), 1)
    with pytest.raises(ValueError):
        GroupHom(z2, z, IntMatrix([[1]]))   # Z/2 -> Z must be zero
    zero = GroupHom(z2, z, IntMatrix([[0]]))
    assert zero.is_zero()
    double = GroupHom(z, z, IntMatrix([[2]]))
    assert kernel_of_hom(double)[0].is_trivial()
    assert not double.is_surjective()
    assert double.cokernel_group().describe() == "Z/2"
    assert double.preimages([(3,), (4,)]) == [None, (2,)]


def test_compose_is_self_after_other():
    z = FgAbGroup((), 1)
    double = GroupHom(z, z, IntMatrix([[2]]))
    triple = GroupHom(z, z, IntMatrix([[3]]))
    assert double.compose(triple).matrix == IntMatrix([[6]])
    assert (double.compose(triple) - triple.compose(double)).is_zero()


def test_kernel_of_hom_and_invariants():
    g = FgAbGroup((4,), 0)
    triple = GroupHom(g, g, IntMatrix([[3]]))
    sub, incl = invariants_of_induced_action(g, triple)
    assert sub.describe() == "Z/2"
    assert incl.matrix.data == ((2,),)
    # mod-4 reduction Z -> Z/4 has kernel 4Z, still free of rank 1
    red = GroupHom(FgAbGroup((), 1), g, IntMatrix([[1]]))
    ker, kincl = kernel_of_hom(red)
    assert ker.describe() == "Z"
    assert kincl.matrix.data == ((4,),) or kincl.matrix.data == ((-4,),)
    assert subgroup_coordinates(incl, (2,)) == (1,)
    with pytest.raises(ValueError):
        subgroup_coordinates(incl, (1,))


def test_induced_endomorphism_descends():
    quo = cokernel(IntMatrix([[3, 0], [0, 1]]))
    assert quo.describe() == "Z/3"
    neg = induced_hom(quo, IntMatrix([[-1, 0], [0, -1]]))
    assert neg.target is quo
    fixed, _ = invariants_of_induced_action(quo, neg)
    assert fixed.is_trivial()
    # into another presentation of Z/3 by the ambient swap, and not into Z^2
    swap = IntMatrix([[0, 1], [1, 0]])
    other = cokernel(IntMatrix([[1, 0], [0, 3]]))
    hom = induced_hom(quo, swap, other)
    assert hom.target is other
    assert hom.matrix == other.proj @ swap @ quo.lift
    assert hom.matrix.data == ((1,),)   # e_1 of one to e_2 of the other
    with pytest.raises(ValueError, match="not a homomorphism"):
        induced_hom(quo, swap, cokernel(IntMatrix.zeros(2, 0)))


def test_character_torsion_constraint():
    g = FgAbGroup((2,), 1)
    with pytest.raises(ValueError):
        GroupCharacter(g, (ExactCircle(0, Fraction(1, 3)), ONE))
    chi = GroupCharacter(g, (ExactCircle(0, Fraction(1, 2)), ExactCircle(1, 0)))
    assert evaluate(chi, (1, 2)) == ExactCircle(2, Fraction(1, 2))
    assert evaluate(chi, (2, 0)) == ONE
    assert times(chi, inverse(chi)) == GroupCharacter(g, (ONE, ONE))
    assert GroupCharacter(g, (ONE, ONE)).ident() == (1, 0, 0, 0, 0)


def test_character_precompose():
    z = FgAbGroup((), 1)
    double = GroupHom(z, z, IntMatrix([[2]]))
    chi = GroupCharacter(z, (ExactCircle(1, 0),))
    assert chi.precompose(double).values[0] == ExactCircle(2, 0)


def test_all_characters_enumeration():
    g = FgAbGroup((2, 4), 0)
    chars = list(all_characters(g))
    assert len(chars) == 8
    assert len({c.key() for c in chars}) == 8
    free = FgAbGroup((), 1)
    with pytest.raises(ValueError):
        list(all_characters(free))
    assert len(list(all_characters(free, torsion=6))) == 6
    # torsion bound interacts with generator orders through the gcd
    assert len(list(all_characters(g, torsion=2))) == 4


@st.composite
def small_groups(draw):
    """Z/d_1 + ... + Z/d_k + Z^r with k, r <= 2 and d_1 | d_2 <= 12."""
    factors = []
    for step in draw(st.lists(st.integers(1, 3), max_size=2)):
        factors.append(factors[-1] * step if factors else step + 1)
    return FgAbGroup(factors, draw(st.integers(0, 2)))


@settings(max_examples=60, deadline=None)
@given(group=small_groups(), torsion=st.integers(1, 6))
def test_character_idents_enumerate_all_characters(group, torsion):
    """Each ident builds the character `all_characters` yields at the same
    place; there are `character_count` of them, and as they share one
    denominator, sorting the idents sorts the characters by `key()`."""
    idents = list(character_idents(group, torsion))
    chars = [GroupCharacter._from_ident(group, k) for k in idents]
    assert chars == list(all_characters(group, torsion))
    assert len(idents) == character_count(group, torsion)
    assert len({k[0] for k in idents}) == 1
    by_ident = [chars[i] for i in sorted(range(len(chars)),
                                         key=idents.__getitem__)]
    assert by_ident == sorted(chars, key=GroupCharacter.key)


def test_random_hom_kernel_image_count():
    # |ker| * |im| = |G| for maps Z/12 -> Z/12, x -> a x
    rng = random.Random(5150)
    g = FgAbGroup((12,), 0)
    for _ in range(40):
        a = rng.randrange(12)
        hom = GroupHom(g, g, IntMatrix([[a]]))
        ker, _ = kernel_of_hom(hom)
        img = 12 // character_count(ker)
        assert character_count(ker) * img == 12
        assert character_count(hom.cokernel_group()) == 12 // img


# --- integer characters against the ExactCircle arithmetic they replace ------

def inverse(character):
    """The inverse character, value by value in ExactCircle."""
    return GroupCharacter(character.domain,
                          [v.inverse() for v in character.values])


def times(chi, psi):
    """The product character, value by value in ExactCircle."""
    return GroupCharacter(chi.domain,
                          [a * b for a, b in zip(chi.values, psi.values)])


def evaluate(character, coords):
    """The value at an element: prod_i v_i ** c_i in ExactCircle."""
    acc = ONE
    for c, v in zip(character.domain.reduce(coords), character.values):
        acc = acc * (v ** c)
    return acc


def precompose_oracle(character, hom):
    """The ExactCircle product prod_i v_i ** c_i for each column of hom."""
    values = []
    for col in hom.matrix.columns():
        acc = ONE
        for c, v in zip(col, character.values):
            acc = acc * (v ** c)
        values.append(acc)
    return tuple(values)


@st.composite
def small_groups(draw):
    """Z/d_1 + ... + Z^r with at most two invariant factors (a chain
    d_1 | d_2 with d_2 <= 12) and r <= 2."""
    factors = []
    if draw(st.booleans()):
        d = draw(st.integers(2, 6))
        factors.append(d)
        if draw(st.booleans()):
            factors.append(d * draw(st.integers(1, 2)))
    return FgAbGroup(factors, draw(st.integers(0, 2)))


@st.composite
def characters(draw, group):
    """A character whose values have arguments k/n and, on free
    generators, q-exponents j/m with n, m <= 12."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    values = []
    for d in group.generator_orders():
        g = n if d == 0 else gcd(d, n)
        exponent = Fraction(draw(st.integers(-6, 6)), m) if d == 0 else 0
        values.append(ExactCircle(exponent,
                                  Fraction(draw(st.integers(0, g - 1)), g)))
    return GroupCharacter(group, values)


@st.composite
def homs_into(draw, target):
    """A random homomorphism source -> target: entries in the column of an
    order-d source generator are multiples of t_i / gcd(t_i, d)."""
    source = draw(small_groups())
    t_orders = target.generator_orders()
    cols = []
    for d in source.generator_orders():
        col = []
        for t in t_orders:
            step = 1 if d == 0 else (0 if t == 0 else t // gcd(t, d))
            col.append(step * draw(st.integers(-3, 3)))
        cols.append(tuple(col))
    return GroupHom(source, target,
                    IntMatrix.from_columns(cols, nrows=target.ngens))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_precompose_matches_circle_products(data):
    group = data.draw(small_groups())
    chi = data.draw(characters(group))
    hom = data.draw(homs_into(group))
    assert chi.precompose(hom).values == precompose_oracle(chi, hom)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_character_renders_its_values(data):
    chi = data.draw(characters(data.draw(small_groups())))
    assert chi.render() == [v.render() for v in chi.values]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_precompose_homomorphism_laws(data):
    a = data.draw(small_groups())
    chi, psi = data.draw(characters(a)), data.draw(characters(a))
    f = data.draw(homs_into(a))
    g = data.draw(homs_into(f.source))
    assert chi.precompose(f.compose(g)) == chi.precompose(f).precompose(g)
    assert times(chi, psi).precompose(f) == times(chi.precompose(f),
                                                  psi.precompose(f))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_character_identity_is_canonical(data):
    group = data.draw(small_groups())
    chi, psi = data.draw(characters(group)), data.draw(characters(group))
    # (chi psi) psi^-1 passes through a larger common denominator
    back = times(times(chi, psi), inverse(psi))
    rebuilt = GroupCharacter(group, chi.values)
    for other in (back, rebuilt):
        assert other == chi
        assert hash(other) == hash(chi)
        assert other.ident() == chi.ident()
    trivial = times(chi, inverse(chi))
    assert trivial == GroupCharacter(group, [ONE] * group.ngens)
    assert trivial.ident()[0] == 1
    den = chi.ident()[0]
    assert all(0 <= a < den for a in chi.ident()[2::2])


def test_equal_characters_from_different_denominators():
    z6 = FgAbGroup((6,), 1)
    # e(1/6)^3 and e(1/2) are one value; q^(2/4) is q^(1/2)
    a = GroupCharacter(z6, (ExactCircle(0, Fraction(1, 6)) ** 3,
                            ExactCircle(Fraction(2, 4), Fraction(5, 3))))
    b = GroupCharacter(z6, (ExactCircle(0, Fraction(1, 2)),
                            ExactCircle(Fraction(1, 2), Fraction(2, 3))))
    assert a == b and hash(a) == hash(b)
    assert a.ident() == (6, 0, 3, 3, 4)
    c = GroupCharacter(z6, (ExactCircle(0, Fraction(1, 3)),
                            ExactCircle(0, Fraction(1, 3))))
    triple = GroupHom(z6, z6, IntMatrix([[3, 0], [0, 3]]))
    assert c.precompose(triple) == GroupCharacter(z6, (ONE, ONE))
    assert c.precompose(triple).ident()[0] == 1


# --- the trusted path for automorphisms against the checked one --------------

@st.composite
def automorphisms(draw, group):
    """A product of elementary automorphisms: e_j -> u e_j for a unit u
    (mod d_j on a Z/d_j), and e_j -> e_j + c e_i where d_j c e_i = 0, whose
    inverse e_j -> e_j - c e_i is of the same kind."""
    orders = group.generator_orders()
    n = group.ngens
    mat = IntMatrix.identity(n)
    for _ in range(draw(st.integers(0, 5)) if n else 0):
        j = draw(st.integers(0, n - 1))
        cols = [list(col) for col in IntMatrix.identity(n).columns()]
        i = draw(st.integers(0, n - 1))
        d_i, d_j = orders[i], orders[j]
        if i == j:
            units = [u for u in range(-d_j + 1, d_j) if gcd(u, d_j) == 1]
            cols[j][j] = draw(st.sampled_from(units or [-1]))
        elif d_j == 0:
            cols[j][i] = draw(st.integers(-3, 3))
        elif d_i != 0:
            cols[j][i] = d_i // gcd(d_i, d_j) * draw(st.integers(-3, 3))
        mat = mat @ IntMatrix.from_columns(cols, nrows=n)
    return GroupHom(group, group, mat)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_automorphism_precompose_equals_the_checked_path(data):
    """`_follow` keeps the old denominator and only reduces the
    arguments; `precompose` renormalises and checks torsion, and must
    find nothing to change.  The elementary factors with c != 0 give
    `_moves` columns of two entries, the others columns of one."""
    group = data.draw(small_groups())
    chi = data.draw(characters(group))
    auto = data.draw(automorphisms(group))
    assert auto.is_surjective()      # so bijective: Z-modules are Hopfian
    moves = _moves(auto.matrix)
    assert _follow(chi.ident(), moves) == chi.precompose(auto).ident()


def test_follow_takes_one_entry_and_several_entry_columns():
    """e_0 -> e_0 + 2 e_1 is a two-entry column and e_1 -> -e_1 a one-entry
    one, so one step of `_follow` runs both of its paths."""
    group = FgAbGroup((), 2)
    auto = GroupHom(group, group, IntMatrix([[1, 0], [2, -1]]))
    assert auto.is_surjective()
    moves = _moves(auto.matrix)
    assert moves == (((1, 1), (3, 2)), ((3, -1),))
    chi = GroupCharacter(group, (ExactCircle(Fraction(1, 2), Fraction(1, 3)),
                                 ExactCircle(1, Fraction(1, 2))))
    assert chi.ident() == (6, 3, 2, 6, 3)
    # q^(5/2) e(1/3) at e_0 and q^-1 e(-1/2) at e_1
    assert _follow(chi.ident(), moves) == (6, 15, 2, -6, 3)
    assert _follow(chi.ident(), moves) == chi.precompose(auto).ident()


def test_only_an_automorphism_skips_the_renormalisation():
    """Doubling on Z is no automorphism: the checked path lowers the
    denominator of e(1/2) o 2 to 1, which `_follow` would keep."""
    z = FgAbGroup((), 1)
    chi = GroupCharacter(z, (ExactCircle(0, Fraction(1, 2)),))
    doubled = chi.precompose(GroupHom(z, z, IntMatrix([[2]])))
    assert doubled.ident() == (1, 0, 0)
    assert _moves(IntMatrix([[2]])) == (((1, 2),),)
    assert _follow(chi.ident(), (((1, 2),),)) == (2, 0, 0) != doubled.ident()
