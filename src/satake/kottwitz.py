"""Kottwitz groups, Satake parameters, and parameter classification.

The pipeline runs on the cocharacter lattice X_*(T): inertia coinvariants
first (a cokernel), then Frobenius invariants of the induced action.  The
resulting group — T/T_0 under the Kottwitz isomorphism — carries the
characters that serve as Satake parameters; the relative Weyl group acts
through the same presentation by the images of its generators, orbits are
found by breadth-first search over those images, and classes are compared
by a canonical minimal orbit representative.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .abelian import (FgAbGroup, GroupCharacter, GroupHom, _follow, _moves,
                      coinvariants, induced_hom, invariants_of_induced_action,
                      subgroup_coordinates)
from .circle import ExactCircle
from .matrices import ORDER_CAP, IntMatrix
from .rootdata import (FoldingError, automorphism_order, check_twist_relation,
                       folded_generators, mulclose, search)


class TorusWithAction(namedtuple("TorusWithAction", "rank tau sigma twist"
                                 " induced_params")):
    """Cocharacter lattice Z^rank of a torus with inertia (tau) and
    Frobenius (sigma) automorphisms obeying the tame twist relation
    sigma tau sigma^-1 = tau^twist.  `induced_params` is (e, f, q) when
    built by build_induced_torus, else None."""

    __slots__ = ()

    def __new__(cls, rank, tau, sigma, twist=1, induced_params=None):
        tau_order = automorphism_order(tau, rank, "tau")
        automorphism_order(sigma, rank, "sigma")
        check_twist_relation(tau, sigma, twist, tau_order)
        return super().__new__(cls, rank, tau, sigma, twist, induced_params)


def cochar_torus(datum, action):
    """TorusWithAction on the cocharacter side of a based root datum.

    The action is given on the character lattice; the cocharacter side
    carries the dual (inverse-transpose) matrices.  The torus is built
    without a second check: X -> (X^-1)^T is a group homomorphism, so the
    duals are automorphisms of the same orders and keep the twist
    relation that `galois_action` checked on the character side.
    """
    return TorusWithAction._make((datum.rank, action.tau.dual(),
                                  action.sigma.dual(), action.twist, None))


class KottwitzGroup(namedtuple("KottwitzGroup", "torus coinvariants group"
                               " inclusion")):
    """T/T_0 = sigma-invariants of the tau-coinvariants of X_*(T).

    `coinvariants` is presented over the cocharacter lattice; `group` is
    the invariant subgroup with `inclusion` mapping it into the
    coinvariants.
    """

    __slots__ = ()


def kottwitz_group(torus):
    """Compute T/T_0 for a torus with Galois action: the coinvariants of
    tau (one cokernel, or the orbits of a permutation), then the
    invariants of the sigma they induce.  Where that sigma is the
    identity, as for a split group or a twist by inertia alone, T/T_0 is
    the whole coinvariant group, included by the identity
    (`invariants_of_induced_action`), and descending a map through it
    solves nothing (`GroupHom.preimages`).

    >>> t = TorusWithAction(1, IntMatrix([[-1]]), IntMatrix([[1]]))
    >>> kottwitz_group(t).group.describe()
    'Z/2'
    """
    coinv = coinvariants(torus.tau)
    sigma_bar = induced_hom(coinv, torus.sigma)
    group, inclusion = invariants_of_induced_action(coinv, sigma_bar)
    return KottwitzGroup(torus, coinv, group, inclusion)


def maximal_compact_quotient(torus):
    """T/T_c: the Kottwitz group modulo its torsion subgroup."""
    return FgAbGroup((), kottwitz_group(torus).group.free_rank)


def build_induced_torus(e, f, q):
    """Permutation model of an induced torus with ramification e, residue
    degree f, residue cardinality q.

    Basis indexed by pairs (i mod e, j mod f) at position i + e*j; tau is
    i -> i+1 within each block, sigma is (i, j) -> (q i, j+1); the tame
    twist relation, exponent q, holds by construction and is not re-checked.
    """
    if e < 1 or f < 1:
        raise ValueError("e and f must be positive")
    if q < 2:
        raise ValueError("residue cardinality must be at least 2")
    if gcd(q, e) != 1:
        raise ValueError("gcd(q, e) must be 1 (tameness)")

    def idx(i, j):
        return (i % e) + e * (j % f)

    # the pair at each position, in position order
    pairs = [(i, j) for j in range(f) for i in range(e)]
    tau = IntMatrix.permutation([idx(i + 1, j) for i, j in pairs])
    sigma = IntMatrix.permutation([idx(q * i, j + 1) for i, j in pairs])
    return TorusWithAction._make((e * f, tau, sigma, q, (e, f, q)))


def induced_torus_cocycle(torus, fval):
    """Dual-point data (chi, c) of a character of an induced torus.

    chi is the sum of the tau-orbit of the first basis functional (an
    inertia-invariant vector of the permutation lattice), c = fval, the
    character's value at the canonical generator of T/T_0 = Z.  The point
    chi (x) c of the fixed dual torus induces that character back; see
    character_from_dual_point.
    """
    if torus.induced_params is None:
        raise ValueError("cocycle extraction needs an induced torus")
    e, f, q = torus.induced_params
    chi = tuple(1 if k < e else 0 for k in range(e * f))
    return chi, fval


def induced_character(kg, fval):
    """The character of T/T_0 = Z of an induced torus taking value fval at
    the canonical generator (the class of the identity-coset basis sum)."""
    torus = kg.torus
    if torus.induced_params is None:
        raise ValueError("canonical generator defined only for induced tori")
    e, f, q = torus.induced_params
    vec = tuple(1 if (k % e == 0) else 0 for k in range(e * f))
    coords = subgroup_coordinates(kg.inclusion, kg.coinvariants.project(vec))
    if kg.group.ngens != 1 or len(coords) != 1 or abs(coords[0]) != 1:
        raise ValueError("induced Kottwitz group is not Z with unit generator")
    value = fval if coords[0] == 1 else fval.inverse()
    return GroupCharacter(kg.group, (value,))


def character_from_dual_point(kg, chi, c):
    """Character of the Kottwitz group induced by a point chi (x) c of the
    tau-fixed dual torus: value at y is c raised to <chi, lift(y)>.

    chi must be an inertia-invariant functional on the cocharacter
    lattice (tau-transpose fixed), which makes the pairing independent of
    the chosen lifts, so one unreduced product chi lift incl pairs it with
    every generator.  The ident is the numerators of c over their least
    denominator, each times the pairing.
    """
    tau = kg.torus.tau
    if tuple(tau.transpose().apply(chi)) != tuple(chi):
        raise ValueError("dual point is not inertia-invariant")
    pairings = IntMatrix([chi]) @ kg.coinvariants.lift @ kg.inclusion.matrix
    den = lcm(c.q_exponent.denominator, c.argument.denominator)
    q, a = int(c.q_exponent * den), int(c.argument * den)
    return GroupCharacter._from_ident(
        kg.group, (den, *(x for t in pairings.row(0) for x in (t * q, t * a))))


class SatakeParameter(namedtuple("SatakeParameter", "character")):
    """A character of the Kottwitz group, prior to the Weyl quotient."""

    __slots__ = ()

    def key(self):
        return self.character.key()


def parameter_from_character(kg, character):
    if character.domain != kg.group:
        raise ValueError("character is not defined on the Kottwitz group")
    return SatakeParameter(character)


class ParameterClass(namedtuple("ParameterClass",
                                "representative orbit_size")):
    """Canonical representative of a W-orbit of parameters plus its size."""

    __slots__ = ()

    def key(self):
        return self.representative.key()


def descend_to_kottwitz(kg, ambient_matrices):
    """The endomorphisms of T/T_0 of equivariant cochar-lattice maps
    (`_descend`), each checked to start on the source lattice."""
    if any(m.ncols != kg.torus.rank for m in ambient_matrices):
        raise ValueError("a map does not start on the source lattice")
    return _descend(kg, ambient_matrices, kg)[0]


def _descend(kg, matrices, kg_target):
    """The maps T/T_0 -> T'/T'_0 of cochar-lattice maps, each checked to
    commute with tau (so it induces a map of coinvariants, `induced_hom`)
    and sigma (so it carries T/T_0 into T'/T'_0): each induced map times
    the inclusion (exact unreduced, the induced map being a checked
    GroupHom), the columns of all of them solved in T'/T'_0 in one call,
    which reduces them when T'/T'_0 is all of its coinvariants and takes
    one Smith form otherwise.  Returns those maps and the induced maps
    of coinvariants."""
    ts, tt = kg.torus, kg_target.torus
    choms, columns = [], []
    for m in matrices:
        if m @ ts.tau != tt.tau @ m:
            raise ValueError("map is not tau-equivariant")
        if m @ ts.sigma != tt.sigma @ m:
            raise ValueError("map is not sigma-equivariant")
        choms.append(induced_hom(kg.coinvariants, m, kg_target.coinvariants))
        columns += (choms[-1].matrix @ kg.inclusion.matrix).columns()
    cols = kg_target.inclusion.preimages(columns)
    if None in cols:
        raise ValueError("the map does not carry T/T_0 into T'/T'_0")
    g = kg.group.ngens
    return [GroupHom(kg.group, kg_target.group, IntMatrix.from_columns(
        cols[i * g:(i + 1) * g], nrows=kg_target.group.ngens))
            for i in range(len(matrices))], choms


class SphericalSetting(namedtuple("SphericalSetting", "datum action torus"
                                  " kottwitz")):
    """Everything needed to classify parameters for one group: the based
    root datum and its char-side Galois action (both None for a bare
    torus), the cochar-side torus and its Kottwitz group.  The relative
    Weyl group's action on T/T_0 is built on each use: each command
    reads it once."""

    __slots__ = ()

    @property
    def group(self):
        return self.kottwitz.group

    @property
    def weyl_generators(self):
        """Automorphisms of T/T_0 that generate the relative Weyl group,
        the tau,sigma-fixed Weyl subgroup: its folded generators w, each
        an involution, so acting on the cocharacter lattice by
        w^-T = w^T, descended all at once.  They are the relative simple
        reflections, and W^Gamma acts faithfully on X_*(S)_Q, so they are
        pairwise distinct and none is the identity.  Each must square to
        the identity on T/T_0 (FoldingError otherwise), so it is an
        automorphism, which `weyl_orbit` relies on; M @ M reduced once is
        exact, M being a checked GroupHom."""
        if self.datum is None:
            return ()
        homs = descend_to_kottwitz(self.kottwitz, [
            w.transpose() for w in folded_generators(
                self.datum, self.action.tau, self.action.sigma)])
        if not all(hom.compose(hom).is_identity() for hom in homs):
            raise FoldingError("folded generator does not act on T/T_0"
                               " as an involution")
        return tuple(homs)

    @property
    def orbit_moves(self):
        """Each of `weyl_generators` as its `_moves`, for `_follow`."""
        return tuple(_moves(hom.matrix) for hom in self.weyl_generators)


def setting_for_torus(torus, datum=None, action=None):
    """The classification setting of a cochar-side torus, and of the
    datum with its Galois action that it comes from, if any: the one
    place a setting is built."""
    return SphericalSetting(datum, action, torus, kottwitz_group(torus))


def setting_for_datum(datum, action):
    """The classification setting of a datum with its Galois action."""
    return setting_for_torus(cochar_torus(datum, action), datum, action)


def weyl_orbit(setting, ident, max_orbit=None):
    """The relative Weyl orbit of a character's `ident()`, as idents over its
    denominator, found breadth-first along `orbit_moves` (a finite group's
    orbit is closed under its generators alone); `max_orbit` caps its size."""
    return search([ident], setting.orbit_moves, _follow, max_orbit,
                  "orbit enumeration")


def _ident_on(setting, parameter):
    if parameter.character.domain != setting.group:
        raise ValueError("parameter does not live on this setting's group")
    return parameter.character.ident()


def classify(setting, parameter, max_orbit=None):
    """Canonical form of a parameter modulo the relative Weyl group: the
    least member of its orbit (`weyl_orbit`, whose size `max_orbit` caps),
    all over the parameter's least denominator, so the least `key()`, and
    the orbit's size."""
    orbit = weyl_orbit(setting, _ident_on(setting, parameter), max_orbit)
    return ParameterClass(SatakeParameter(GroupCharacter._from_ident(
        setting.group, min(orbit))), len(orbit))


def parameters_equal(setting, p1, p2, max_orbit=None):
    """True iff the two parameters lie in one relative-Weyl orbit."""
    return _ident_on(setting, p2) in weyl_orbit(
        setting, _ident_on(setting, p1), max_orbit)


def modulus_character(setting):
    """delta^{1/2} as a character of T/T_0: the one the dual point
    2 rho (x) q^{1/2} induces (see character_from_dual_point), with 2 rho
    the sum of the positive roots (zero for a bare torus).  A pinned tau
    permutes the positive roots, so 2 rho is inertia-invariant.

    >>> from satake.config import resolve
    >>> delta = modulus_character(resolve(preset="split GL2").setting())
    >>> [v.render() for v in delta.values]
    ['q^1/2', 'q^-1/2']
    """
    if setting.datum is None:
        two_rho = (0,) * setting.torus.rank
    else:
        two_rho = setting.datum.two_rho()
    return character_from_dual_point(setting.kottwitz, two_rho,
                                     ExactCircle(Fraction(1, 2)))


def kottwitz_hom(matrix, kg_source, kg_target):
    """Functorial maps induced by an equivariant cochar-lattice map
    (`_descend` checks it): returns (map on Kottwitz groups, map on
    coinvariants)."""
    khoms, choms = _descend(kg_source, [matrix], kg_target)
    return khoms[0], choms[0]


class Envelope(namedtuple("Envelope", "torus prime embed norm degree")):
    """Induced envelope T' of a torus T with Galois action.

    X_*(T') is the group ring of the finite group Gamma = A x Z/c (A the
    matrix group generated by tau and sigma, c chosen so |Gamma| equals
    the requested degree) tensored with X_*(T), with Gamma acting by left
    translation.  `embed` is the unit x -> sum_g g (x) g^{-1} x and `norm`
    the counit g (x) x -> g x; norm o embed is multiplication by the
    degree, and both are equivariant.
    """

    __slots__ = ()


def induced_envelope(torus, n):
    """Build the degree-n induced envelope of a torus with action.

    Requires the action group A = <tau, sigma> to have order dividing n.
    """
    group_a = sorted(mulclose([torus.tau, torus.sigma], cap=ORDER_CAP),
                     key=lambda m: m.key())
    if n < 1 or n % len(group_a) != 0:
        raise ValueError("action does not factor through a group of order"
                         f" dividing {n}")
    c = n // len(group_a)
    gamma = [(a, r) for a in group_a for r in range(c)]
    index = {(a.key(), r): i for i, (a, r) in enumerate(gamma)}
    d = torus.rank

    def gmul(x, y):
        return ((x[0] @ y[0]), (x[1] + y[1]) % c)

    def left_mult_matrix(g):
        products = [gmul(g, h) for h in gamma]
        return IntMatrix.permutation([index[(a.key(), r)] * d + k
                                      for a, r in products for k in range(d)])

    tau_g = (torus.tau, 0)
    sigma_g = (torus.sigma, 1 % c)
    prime = TorusWithAction(n * d, left_mult_matrix(tau_g),
                            left_mult_matrix(sigma_g), twist=torus.twist)

    embed_rows = []
    for a, r in gamma:
        inv = a.power(len(group_a) - 1)   # a^|A| = 1
        embed_rows.extend(inv.row(i) for i in range(d))
    embed = IntMatrix(embed_rows, ncols=d)
    norm_cols = []
    for a, r in gamma:
        norm_cols.extend(a.column(k) for k in range(d))
    norm = IntMatrix.from_columns(norm_cols, nrows=d)

    if norm @ embed != IntMatrix.diagonal([n] * d):
        raise RuntimeError("norm o embed is not multiplication by the degree")
    if (embed @ torus.tau != prime.tau @ embed
            or embed @ torus.sigma != prime.sigma @ embed):
        raise RuntimeError("embedding is not equivariant")
    if (torus.tau @ norm != norm @ prime.tau
            or torus.sigma @ norm != norm @ prime.sigma):
        raise RuntimeError("norm is not equivariant")
    return Envelope(torus, prime, embed, norm, n)
