"""Finitely generated abelian groups in Smith canonical form.

A group is recorded by its invariant factors (each >= 2, each dividing
the next) plus a free rank, together with a presentation over an ambient
lattice: a projection taking ambient vectors to canonical-generator
coordinates and a lift the other way.  Canonical generators are ordered
torsion first, then free.

Homomorphisms are integer matrices on canonical generators.  A character
takes values in the exact circle group but is stored as its integer ident
(den, q_0, a_0, q_1, a_1, ...) over its least denominator: precomposition
follows the ident along a matrix's nonzero entries (`_follow`), values
print from it (`circle.render_value`), and `ExactCircle` values are built
only on demand.  The classes of all torsion-bounded characters follow no
ident: `character_classes` numbers the characters by index and sweeps
the index maps of the automorphisms once.  Kernels of homomorphisms are
computed by lifting to the presentation and adjoining relation columns
(a congruence-augmented integer system), so groups with torsion need no
special casing.
"""

from array import array
from fractions import Fraction
from itertools import chain, product as iter_product
from math import gcd, lcm, prod

from .circle import ExactCircle, render_value
from .matrices import (IntMatrix, _cycles, _dense, _is_identity,
                       _permutation_images, column_span_basis, hstack,
                       kernel_basis, linear_solver, smith_normal_form)


class FgAbGroup:
    """(+) Z/d_i (+) Z^free_rank with d_1 | d_2 | ... and every d_i >= 2.

    >>> g = FgAbGroup((2, 4), 1)
    >>> g.describe()
    'Z/2 + Z/4 + Z'
    >>> g.is_finite()
    False
    """

    __slots__ = ("invariant_factors", "free_rank", "ambient_rank", "proj",
                 "lift", "_orders")

    def __init__(self, invariant_factors, free_rank, proj=None, lift=None):
        factors = tuple(int(d) for d in invariant_factors)
        if any(d < 2 for d in factors):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        self.invariant_factors = factors
        self.free_rank = int(free_rank)
        self._orders = factors + (0,) * self.free_rank
        n = self.ngens
        if proj is None:
            proj = IntMatrix.identity(n)
        if lift is None:
            lift = IntMatrix.identity(n)
        if proj.nrows != n or lift.ncols != n or proj.ncols != lift.nrows:
            raise ValueError("presentation shapes do not match the group")
        self.proj = proj
        self.lift = lift
        self.ambient_rank = proj.ncols

    @property
    def ngens(self):
        return len(self._orders)

    @property
    def torsion_count(self):
        return len(self.invariant_factors)

    def generator_orders(self):
        """Order per canonical generator; 0 marks infinite order."""
        return self._orders

    def relation_matrix(self):
        """Columns d_i * e_i spanning the relation lattice in Z^ngens."""
        k = self.torsion_count
        cols = [tuple(self.invariant_factors[j] * int(i == j)
                      for i in range(self.ngens)) for j in range(k)]
        return IntMatrix.from_columns(cols, nrows=self.ngens)

    def reduce(self, coords):
        """Canonical coordinates: torsion entries reduced mod their order."""
        coords = tuple(map(int, coords))
        if len(coords) != self.ngens:
            raise ValueError("coordinate length mismatch")
        if not self.invariant_factors:
            return coords
        return tuple([c % d if d else c for c, d in zip(coords, self._orders)])

    def zero(self):
        return (0,) * self.ngens

    def project(self, ambient_vector):
        """Class of an ambient lattice vector, in canonical coordinates."""
        return self.reduce(self.proj.apply(ambient_vector))

    def is_trivial(self):
        return self.ngens == 0

    def is_finite(self):
        return self.free_rank == 0

    def torsion_subgroup(self):
        """(subgroup, inclusion) for the torsion part."""
        k = self.torsion_count
        sub = FgAbGroup(self.invariant_factors, 0)
        cols = [tuple(int(i == j) for i in range(self.ngens)) for j in range(k)]
        incl = GroupHom(sub, self, IntMatrix.from_columns(cols, nrows=self.ngens))
        return sub, incl

    # isomorphism tests compare canonical forms; presentations are ignored
    def __eq__(self, other):
        return (isinstance(other, FgAbGroup)
                and self.invariant_factors == other.invariant_factors
                and self.free_rank == other.free_rank)

    def __hash__(self):
        return hash((self.invariant_factors, self.free_rank))

    def describe(self):
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FgAbGroup({self.invariant_factors!r}, {self.free_rank!r})"


class GroupHom:
    """Homomorphism between FgAbGroups as a matrix on canonical generators.

    Construction checks well-definedness: each source relation d_i * e_i
    must land in the target's relation lattice.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if matrix.shape != (target.ngens, source.ngens):
            raise ValueError("matrix shape does not match generator counts")
        self.source = source
        self.target = target
        self.matrix = matrix
        t_orders = target.generator_orders()
        for j, d in enumerate(source.generator_orders()):
            # d g_j must map to zero: d x_ij = 0 mod t_i, so x_ij = 0 if t_i = 0
            if d and any(d * x % t if t else x
                         for x, t in zip(matrix.column(j), t_orders)):
                raise ValueError(f"not a homomorphism: relation {d}*g{j} "
                                 "does not map to zero")

    @classmethod
    def identity(cls, group):
        return cls(group, group, IntMatrix.identity(group.ngens))

    def __call__(self, coords):
        return self.target.reduce(self.matrix.apply(self.source.reduce(coords)))

    def compose(self, other):
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        return GroupHom(other.source, self.target, self.matrix @ other.matrix)

    def __sub__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ValueError("difference of mismatched homomorphisms")
        return GroupHom(self.source, self.target, self.matrix - other.matrix)

    def is_identity(self):
        """Equal generator orders, and the columns, reduced in the target,
        are the unit vectors (read as rows: I is its own transpose)."""
        return (self.source.generator_orders()
                == self.target.generator_orders() and _is_identity(
                    IntMatrix._trusted(tuple(map(self.target.reduce,
                                                 self.matrix.columns())),
                                       self.target.ngens)))

    def is_zero(self):
        return all(self(tuple(int(i == j) for i in range(self.source.ngens)))
                   == self.target.zero() for j in range(self.source.ngens))

    def preimages(self, targets):
        """Per element of the target, some x with self(x) = it, or None:
        one Smith form of [matrix | target relations] for the batch.  The
        identity (`is_identity`) takes each element to its own preimage,
        its reduction, with no form taken."""
        if self.is_identity():
            return list(map(self.source.reduce, targets))
        solver = linear_solver(hstack(self.matrix,
                                      self.target.relation_matrix()))
        n = self.matrix.ncols
        return [None if x is None else self.source.reduce(x[:n]) for x in
                solver.solve(list(map(self.target.reduce, targets)))]

    def cokernel_group(self):
        """target / image(self) with the quotient projection retained."""
        return cokernel(hstack(self.matrix, self.target.relation_matrix()))

    def is_surjective(self):
        return self.cokernel_group().is_trivial()


def cokernel(matrix):
    """Z^m / (column span of an m-row matrix), as an FgAbGroup presented
    over Z^m, read off a Smith form taken without V; Z^m itself, with
    identity presentation, when the matrix is zero (or has no columns).

    >>> cokernel(IntMatrix([[-2]])).describe()
    'Z/2'
    """
    m = matrix.nrows
    if not any(map(any, matrix.data)):
        return FgAbGroup((), m)
    sf = smith_normal_form(matrix, with_v=False)
    diag = sf.diagonal
    torsion_rows = [i for i, d in enumerate(diag) if d >= 2]
    free_rows = [i for i in range(m) if i >= len(diag) or diag[i] == 0]
    factors = [diag[i] for i in torsion_rows]
    rows = torsion_rows + free_rows
    proj = IntMatrix._trusted(sf.u_rows(rows), m)
    lift = IntMatrix.from_columns(sf.u_inv_columns(rows), nrows=m)
    return FgAbGroup(factors, len(free_rows), proj=proj, lift=lift)


def coinvariants(matrix):
    """Largest quotient of Z^n on which the automorphism `matrix` acts
    trivially: the cokernel of matrix - 1.  Only the shape is checked
    here; `rootdata.automorphism_order` checks the rest.

    A permutation other than the identity takes no Smith form: matrix - 1
    spans the vectors summing to 0 on each orbit, so the coinvariants are
    Z^{#orbits}, `proj` rows the orbit indicators, `lift` the unit vector
    at each orbit's largest index (the elimination's lift, whose columns
    it may list in another order), orbits in the order of that index.

    >>> swap = IntMatrix([[0, 1], [1, 0]])
    >>> coinvariants(swap).describe(), coinvariants(swap).lift.data
    ('Z', ((0,), (1,)))
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("shape mismatch")
    n = matrix.ncols
    images = None if _is_identity(matrix) else _permutation_images(
        matrix.data)
    if images is not None:
        orbits = sorted(_cycles(images), key=max)
        return FgAbGroup((), len(orbits), IntMatrix._trusted(tuple(
            _dense(dict.fromkeys(o, 1), n) for o in orbits), n),
            IntMatrix.from_columns([_dense({max(o): 1}, n) for o in orbits]))
    return cokernel(IntMatrix._trusted(
        tuple(row[:i] + (row[i] - 1,) + row[i + 1:]
              for i, row in enumerate(matrix.data)), n))


def induced_hom(source, ambient, target=None):
    """The map of presented groups (into `source` itself by default) that
    an ambient lattice map induces: target.proj (ambient source.lift).

    The caller must know that the ambient map carries the relations of
    `source` into those of `target`, as `GroupHom` checks the torsion
    relations only: in `kottwitz_group`, sigma tau sigma^-1 = tau^j keeps
    (tau - 1) X; `kottwitz._descend` checks tau-equivariance first; and
    the center check maps by the identity onto a coarser quotient.
    """
    target = source if target is None else target
    return GroupHom(source, target, target.proj @ (ambient @ source.lift))


def kernel_of_hom(hom):
    """(kernel group, inclusion into the source) of a GroupHom.

    Solved by an integer system augmented with the target's relation
    columns; the subgroup is then presented modulo the source relations.
    Each of those, d_i e_i, maps to zero, so it lies in the solution
    lattice and has coordinates in its basis: the solve never fails.
    """
    src, tgt = hom.source, hom.target
    n = src.ngens
    aug = hstack(hom.matrix, tgt.relation_matrix())
    kb = kernel_basis(aug)
    # solution sublattice of Z^n: spans of the x-parts, plus nothing else
    x_part = IntMatrix._trusted(kb.data[:n], kb.ncols)
    basis = column_span_basis(x_part)
    # present the subgroup modulo the source relations, which it contains
    rel_cols = (linear_solver(basis).solve(src.relation_matrix().columns())
                if src.torsion_count else [])
    rel_in_basis = IntMatrix.from_columns(rel_cols, nrows=basis.ncols)
    grp = cokernel(rel_in_basis)
    incl_cols = list(map(src.reduce, (basis @ grp.lift).columns()))
    incl = GroupHom(grp, src, IntMatrix.from_columns(incl_cols, nrows=n))
    return grp, incl


def invariants_of_induced_action(group, endo):
    """Fixed subgroup of an endomorphism: (subgroup, inclusion), the
    kernel of endo - 1.  When endo is the identity (`is_identity`), the
    fixed subgroup is all of `group`: its factors over an identity
    presentation, included by the identity, as `kernel_of_hom` gives them
    for the zero map, and no form is taken.  Nor is one on a free group
    whose generators endo permutes: the fixed subgroup is free on the
    orbit sums, included by orbit indicators in order of least index.

    >>> g = FgAbGroup((4,), 0)
    >>> triple = GroupHom(g, g, IntMatrix([[3]]))
    >>> sub, incl = invariants_of_induced_action(g, triple)
    >>> sub.describe(), incl.matrix.data
    ('Z/2', ((2,),))
    """
    if endo.source != group or endo.target != group:
        raise ValueError("endomorphism does not act on the given group")
    if endo.is_identity():
        whole = FgAbGroup(group.invariant_factors, group.free_rank)
        return whole, GroupHom(whole, group, IntMatrix.identity(group.ngens))
    images = None if group.torsion_count else _permutation_images(
        endo.matrix.data)
    if images is not None:
        n, orbits = group.ngens, _cycles(images)
        fixed = FgAbGroup((), len(orbits))
        return fixed, GroupHom(fixed, group, IntMatrix.from_columns(
            [_dense(dict.fromkeys(o, 1), n) for o in orbits]))
    return kernel_of_hom(endo - GroupHom.identity(group))


def subgroup_coordinates(inclusion, coords):
    """Coordinates in the subgroup of an element known to lie in its image."""
    x, = inclusion.preimages([coords])
    if x is None:
        raise ValueError("element does not lie in the subgroup")
    return x


class GroupCharacter:
    """Character of an FgAbGroup valued in the exact circle.

    Stored as its `ident()` (den, q_0, a_0, q_1, a_1, ...): the value at
    canonical generator i is q^(q_i/den) e(a_i/den), with 0 <= a_i < den
    and `den` the least common denominator of all the exponents.  `values`
    builds the ExactCircle values on demand.  Torsion constraints are
    enforced at construction.

    The least denominator depends only on the image of the character, so
    precomposing with an automorphism of the domain keeps it: inside one
    orbit under automorphisms, comparing `ident()` compares `key()`.
    """

    __slots__ = ("domain", "_ident")

    def __init__(self, domain, values):
        values = tuple(values)
        if len(values) != domain.ngens:
            raise ValueError("one value per canonical generator is required")
        xs = [x for v in values for x in (v.q_exponent, v.argument)]
        den = lcm(*(x.denominator for x in xs))
        self._store(domain, (den, *(int(x * den) for x in xs)))

    @classmethod
    def _from_ident(cls, domain, ident):
        """Trusted constructor from an ident over any denominator;
        normalisation and the torsion check still run."""
        self = object.__new__(cls)
        self._store(domain, ident)
        return self

    def _store(self, domain, ident):
        den, nums = ident[0], list(ident[1:])
        nums[1::2] = [a % den for a in nums[1::2]]
        g = gcd(den, *nums)
        if g > 1:
            den //= g
            nums = [x // g for x in nums]
        for q, a, d in zip(nums[::2], nums[1::2], domain.generator_orders()):
            if d and (q or d * a % den):
                raise ValueError(f"value of order-{d} generator must be {d}-torsion")
        self.domain = domain
        self._ident = (den, *nums)

    @property
    def values(self):
        """One ExactCircle per canonical generator."""
        den, nums = self._ident[0], self._ident[1:]
        return tuple(ExactCircle(Fraction(q, den), Fraction(a, den))
                     for q, a in zip(nums[::2], nums[1::2]))

    def render(self):
        """The display form of each value, as `ExactCircle.render` gives it."""
        return _render_ident(self._ident)

    def precompose(self, hom):
        """Character of hom.source obtained by following hom first: the
        ident `_follow`ed along hom's `_moves`, renormalised and
        torsion-checked by `_from_ident`."""
        if hom.target != self.domain:
            raise ValueError("homomorphism does not land in the character's domain")
        return GroupCharacter._from_ident(
            hom.source, _follow(self._ident, _moves(hom.matrix)))

    def key(self):
        """Canonical total-order key (basis-dependent, deterministic):
        the (q-exponent, argument) Fractions of each generator."""
        return tuple((v.q_exponent, v.argument) for v in self.values)

    def ident(self):
        """Canonical integer identity (den, q_0, arg_0, q_1, arg_1, ...):
        equal characters of one domain have equal identities, and where
        `den` agrees the tuples order as `key()` does."""
        return self._ident

    def __eq__(self, other):
        return (isinstance(other, GroupCharacter) and self.domain == other.domain
                and self._ident == other._ident)

    def __hash__(self):
        return hash((self.domain, self._ident))

    def __repr__(self):
        return f"GroupCharacter({self.domain!r}, {self.values!r})"


def _render_ident(ident):
    den = ident[0]
    return [render_value(q, a, den) for q, a in zip(ident[1::2], ident[2::2])]


def _moves(matrix):
    """Per column, the pairs (1 + 2 i, c) of its nonzero entries c."""
    return tuple(tuple((1 + 2 * i, c) for i, c in enumerate(col) if c)
                 for col in matrix.columns())


def _follow(ident, moves):
    """An ident precomposed with a map given by its `_moves`: 1 + 2 i is
    row i's q-numerator.  den is kept, least for an automorphism (see
    `GroupCharacter`), and the arguments are reduced mod den."""
    den = ident[0]
    out = [den]
    for col in moves:
        if len(col) == 1:
            (k, c), = col
            out.append(c * ident[k])
            out.append(c * ident[k + 1] % den)
        else:
            out.append(sum(c * ident[k] for k, c in col))
            out.append(sum(c * ident[k + 1] for k, c in col) % den)
    return tuple(out)


def _choice_sizes(group, torsion):
    """How many values each generator can take in the given torsion of
    the circle: t for a free generator, gcd(d, t) for a Z/d."""
    orders = group.generator_orders()
    if torsion is None:
        if not group.is_finite():
            raise ValueError("free generators need an explicit torsion bound")
        return orders
    n = int(torsion)
    if n < 1:
        raise ValueError("torsion bound must be positive")
    return [n if d == 0 else gcd(d, n) for d in orders]


def character_count(group, torsion=None):
    """The number of characters `all_characters` yields, without
    enumerating them."""
    return prod(_choice_sizes(group, torsion))


def character_idents(group, torsion=None):
    """The `ident()`s of `all_characters`, in its order, over their common
    denominator (the lcm of the choice sizes) rather than each one's
    least, so that they order as the characters' `key()`s do.

    >>> list(character_idents(FgAbGroup((2,), 1), torsion=2))
    [(2, 0, 0, 0, 0), (2, 0, 0, 0, 1), (2, 0, 1, 0, 0), (2, 0, 1, 0, 1)]
    """
    sizes = _choice_sizes(group, torsion)
    # generator i takes the arguments k/sizes[i], as numerators over den
    den = lcm(*sizes)
    for combo in iter_product(*(range(0, den, den // g) for g in sizes)):
        yield (den, *chain.from_iterable((0, a) for a in combo))


def _grid_sum(tables):
    """Per point of the grid of digits d_i < len(tables[i]), in index
    order (the first digit most significant), the sum of the
    tables[i][d_i]: each table broadcast over the digits after it."""
    out = [0]
    for table in tables:
        out = [x + y for x in out for y in table]
    return out


def _index_map(moves, sizes, weights):
    """The map of character indices (see `character_classes`) that an
    automorphism, given by its `_moves`, induces on the torsion grid.

    Row i's argument numerator d_i den/s_i, moved by c into column j,
    is d_i c s_j/s_i steps of den/s_j; an automorphism keeps the grid,
    so c s_j/s_i is an integer.  A one-entry column is a table of digit
    images over its one row, added in with that row's other tables;
    any other column sums its rows' terms over the grid before reducing
    mod s_j."""
    def step(k, c, j):
        q, r = divmod(c * sizes[j], sizes[k // 2])
        if r:
            raise ValueError("automorphism does not keep the torsion grid")
        return k // 2, q

    rows = [[0] * s for s in sizes]
    for j, col in enumerate(moves):
        if len(col) == 1:
            i, q = step(*col[0], j)
            s, w = sizes[j], weights[j]
            rows[i] = [x + q * d % s * w for d, x in enumerate(rows[i])]
    images = _grid_sum(rows)
    for j, col in enumerate(moves):
        if len(col) > 1:
            terms = dict(step(k, c, j) for k, c in col)
            s, w = sizes[j], weights[j]
            images = [x + v % s * w for x, v in zip(images, _grid_sum(
                [[terms.get(i, 0) * d for d in range(n)]
                 for i, n in enumerate(sizes)]))]
    return array("q", images)


def character_classes(group, torsion, moves):
    """The classes of the `character_idents` under the automorphisms of
    `group` given by their `_moves` (a finite group's orbits, closed
    under its generators alone): per class, the `render_value` strings
    of its least ident and its size, in the order of those idents.

    Each character is numbered by its mixed-radix index sum d_i w_i, its
    place in `character_idents`, argument numerator d_i den/s_i of
    generator i over the choice sizes s_i.  Each automorphism becomes an
    index map over the whole grid (`_index_map`, 8 bytes a character);
    one sweep upward with a seen mark per character then meets each class
    first at its least member."""
    sizes = _choice_sizes(group, torsion)
    weights = [prod(sizes[i + 1:]) for i in range(len(sizes))]
    maps = [_index_map(col, sizes, weights) for col in moves]
    den = lcm(*sizes)
    tables = [[render_value(0, d * (den // s), den) for d in range(s)]
              for s in sizes]
    seen = bytearray(prod(sizes))
    classes = []
    least = seen.find(0)
    while least >= 0:
        seen[least] = 1
        orbit = [least]
        for x in orbit:
            for m in maps:
                y = m[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        classes.append(([t[least // w % s] for t, w, s in
                         zip(tables, weights, sizes)], len(orbit)))
        least = seen.find(0, least + 1)
    return classes


def all_characters(group, torsion=None):
    """All characters with values in the given torsion of the circle.

    For a finite group with `torsion=None` this enumerates the full dual.
    Free generators require an explicit positive `torsion` bound.
    """
    for ident in character_idents(group, torsion):
        yield GroupCharacter._from_ident(group, ident)
