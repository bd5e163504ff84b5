"""Based root data, pinned automorphisms, Weyl groups, and folding.

Root data are recorded concretely: the character lattice is Z^n with the
standard dot pairing against the cocharacter side, roots and coroots are
integer vectors, and a marked subset of the roots is simple.  The cocharacter
side of a datum is its `dual_datum`.  Relative Weyl groups are described
by generators (`folded_generators`).  Only where the enumeration itself is
the certificate is the full Weyl group enumerated, as root permutations
by products over parabolic coset representatives (`weyl_walk`), refused
up front when the order of the Cartan type passes the cap.  The orbits
and Dynkin components here, and the orbits of parameters, run through
one breadth-first `search`.

A datum is read from its simple system first.  A preset hands out its
simple pairs alone (`generated_datum`); the `root_closure` of the pairs,
its other roots, is built on their first read, which only `fold`,
`verify-ks` and `modulus` (2 rho) make.  A pinned automorphism passes by
the `_seed_certificate` on the seed pairs, and `folded_generators`
descends on simple coefficients, so `classify`, `equal`, `orbits`,
`kottwitz` and `compact` read no other root.  A config datum keeps the
lists it was given.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, compress, islice
from math import factorial, gcd
from operator import itemgetter, matmul, mul, or_

from .abelian import coinvariants
from .matrices import IntMatrix, images, linear_solver

DEFAULT_WEYL_CAP = 10 ** 6
ROOT_CAP = 10 ** 4
RANK_CAP = 256


class CapExceeded(RuntimeError):
    """An enumeration grew past its configured cap."""


class FoldingError(ValueError):
    """A diagram orbit is not of a foldable shape."""


def _dot(x, y):
    return sum(map(mul, x, y))


def _shift(x, p, a):
    """x - p a, with `a` the (index, entry) pairs of its nonzeros."""
    x = list(x)
    for j, v in a:
        x[j] -= p * v
    return tuple(x)


def _reflections(pairs):
    """For (root, coroot) pairs (a, a^) of one length, `moves(b, b^)`:
    (i, s_a b, s_a^T b^) = (i, b - <b, a^> a, b^ - <a, b^> a^) for each
    pair i, in increasing order, whose a^ meets the support of b or whose
    a meets that of b^, the pairings read over the nonzeros of a and a^.
    Every other reflection fixes (b, b^), both pairings being 0.  With no
    b^ only the root side is read: the pairs whose a^ meets supp b, and
    (i, s_a b, None)."""
    coords = range(len(pairs[0][0]) if pairs else 0)
    # per coordinate j, the bit mask of the pairs that b (resp. b^) meets
    # when b_j != 0
    by_root, by_coroot = [0 for _ in coords], [0 for _ in coords]
    for i, (a, av) in enumerate(pairs):
        for j in compress(coords, av):
            by_root[j] |= 1 << i
        for j in compress(coords, a):
            by_coroot[j] |= 1 << i
    sparse = [[list(compress(enumerate(v), v)) for v in pair]
              for pair in pairs]

    def moves(b, bv=None):
        hits = reduce(or_, compress(by_root, b), 0)
        if bv is not None:
            hits = reduce(or_, compress(by_coroot, bv), hits)
        base = -1
        while hits:  # 64 bits at a time, so no step copies a long mask
            word, hits = hits & 0xFFFFFFFFFFFFFFFF, hits >> 64
            while word:
                low = word & -word
                word ^= low
                i = base + low.bit_length()
                a, av = sparse[i]
                p = sum([b[j] * v for j, v in av])
                c = _shift(b, p, a) if p else b
                if bv is None:
                    yield i, c, None
                else:
                    q = sum([bv[j] * v for j, v in a])
                    yield i, c, _shift(bv, q, av) if q else bv
            base += 64

    return moves


def search(seeds, generators, product, cap=None, stage=""):
    """Breadth-first search from `seeds` along x -> product(x, g), one
    step per generator g: the elements found, in the order found, as the
    keys of a dict.  Raises CapExceeded, naming `stage` and the count
    reached, when more than `cap` elements are found."""
    found = dict.fromkeys(seeds)
    frontier = list(found)
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = product(x, g)
                if y not in found:
                    found[y] = None
                    nxt.append(y)
                    if cap is not None and len(found) > cap:
                        raise CapExceeded(f"{stage}: reached {len(found)}"
                                          f" elements, over the cap {cap}")
        frontier = nxt
    return found.keys()


class BasedRootDatum(namedtuple("BasedRootDatum", "rank roots coroots"
                                " simple_indices label")):
    """(X, roots, X^, coroots) with a marked simple system.

    X and X^ are dual lattices Z^rank; `roots[i]` pairs with `coroots[i]`
    by the standard dot product of their coordinate vectors.  A datum
    given by its lists keeps them as given.  One from `generated_datum`
    holds only its simple pairs, its three list slots empty, until its
    roots, coroots, simple or positive indices are first read: then the
    `root_closure` of the pairs fills them all.  Iteration, comparison,
    hashing and `repr` read the lists, and so build them.
    """

    def __new__(cls, rank, roots, coroots, simple_indices, label=""):
        roots = tuple(tuple(int(v) for v in r) for r in roots)
        coroots = tuple(tuple(int(v) for v in r) for r in coroots)
        if len(roots) != len(coroots):
            raise ValueError("roots and coroots must be in bijection")
        return super().__new__(cls, rank, roots, coroots,
                               tuple(int(i) for i in simple_indices), label)

    def __setattr__(self, name, value):
        # the instance dict is only for the cached properties
        raise AttributeError(f"{type(self).__name__} is read-only")

    @cached_property
    def _lists(self):
        """(roots, coroots, simple_indices, positive indices or None): the
        lists given, or the closure of the simple pairs with its positive
        side."""
        given = tuple.__getitem__(self, slice(1, 4))
        if given[0] is not None:
            return given + (None,)
        return self._closure_lists(ROOT_CAP)

    def _closure_lists(self, cap):
        """The lists (roots, coroots, simple indices, positive indices) of
        the `root_closure` of the simple pairs under `cap`."""
        simples = self.simple_roots()
        roots, coroots, positive = root_closure(
            simples, [av for _, av in self.simple_pairs], cap)
        index = {r: i for i, r in enumerate(roots)}
        return (tuple(roots), tuple(coroots),
                tuple(index[a] for a in simples), positive)

    @property
    def roots(self):
        return self._lists[0]

    @property
    def coroots(self):
        return self._lists[1]

    @property
    def simple_indices(self):
        return self._lists[2]

    def __iter__(self):
        return iter((self.rank, *self._lists[:3], self.label))

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, tuple) \
            else NotImplemented

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):  # the namedtuple's, of a copy holding the lists
        return super(BasedRootDatum, self._make(self)).__repr__()

    @cached_property
    def simple_pairs(self):
        """The simple (root, coroot) pairs, in the order of the simple
        indices."""
        return tuple((self.roots[i], self.coroots[i])
                     for i in self.simple_indices)

    def seed_pairs(self):
        """The pairs that generate the datum by reflections, chosen here
        alone: the simple pairs and those of the doubles 2 alpha_i that
        are roots, whose coroots alpha_i^ / 2 complete the span Q^.  A
        generated datum, the closure of its simple pairs, reads no root."""
        if tuple.__getitem__(self, 1) is None:
            return self.simple_pairs
        coroot = dict(zip(self.roots, self.coroots))
        doubles = (tuple([2 * v for v in a]) for a in self.simple_roots())
        return self.simple_pairs + tuple((b, coroot[b]) for b in doubles
                                         if b in coroot)

    def simple_roots(self):
        return [a for a, _ in self.simple_pairs]

    @cached_property
    def cartan(self):
        """The Cartan matrix of the simple system, row i the pairings
        <alpha_i, alpha_j^> with the simple coroots: one product."""
        return images(IntMatrix([av for _, av in self.simple_pairs],
                                ncols=self.rank), self.simple_roots())

    def reflection_matrix(self, root_index):
        """s_alpha on the character lattice: x - <x, alpha^> alpha."""
        a = self.roots[root_index]
        av = self.coroots[root_index]
        n = self.rank
        return IntMatrix([[int(i == j) - a[i] * av[j] for j in range(n)]
                          for i in range(n)])

    @cached_property
    def _coefficient_solver(self):
        """The LinearSolver of the simple-root matrix, whose numerators
        over `den` are simple coefficients."""
        return linear_solver(IntMatrix.from_columns(self.simple_roots(),
                                                    nrows=self.rank))

    def simple_coefficients(self, root):
        """Rational coefficients of a root over the simple roots, or None."""
        solver = self._coefficient_solver
        nums = solver.numerators([root])[0]
        if nums is None:
            return None
        return tuple(Fraction(x, solver.den) for x in nums)

    @cached_property
    def positive_indices(self):
        """Indices of the roots whose simple coefficients are all >= 0,
        computed once per datum; the closure's positive side for a
        generated datum."""
        positive = self._lists[3]
        if positive is not None:
            return positive
        coefficients = self._coefficient_solver.numerators(self.roots)
        return tuple(i for i, nums in enumerate(coefficients)
                     if nums is not None and all(c >= 0 for c in nums))

    def positive_roots(self):
        """Roots whose simple coefficients are all >= 0."""
        return [self.roots[i] for i in self.positive_indices]

    def two_rho(self):
        """Sum of the positive roots."""
        return tuple(map(sum, zip((0,) * self.rank, *self.positive_roots())))


def root_closure(simple_roots, simple_coroots, cap=ROOT_CAP):
    """All (root, coroot) pairs generated from the simple ones by the
    simple reflections, acting on both sides at once, sorted by root, and
    the indices of the positive ones; raises CapExceeded past `cap` pairs,
    naming the count reached.

    Only the positive side is closed: s_i permutes the positive roots
    other than alpha_i (Bourbaki, Lie VI 1.6), so each pair found is
    reflected by each s_i but that of its own root, and its negative
    (-b, -b^) is recorded with it.  Only the s_i that `_reflections`
    finds meeting the pair's supports are applied; the others fix it.
    The loop is its own, not `search`: keyed by the root alone it stops
    at the first root reached with a second coroot, while a search keyed
    by (root, coroot) pairs would run on to the cap."""
    simples = [tuple(int(v) for v in r) for r in simple_roots]
    cosimples = [tuple(int(v) for v in r) for r in simple_coroots]
    if len(simples) != len(cosimples):
        raise ValueError("one coroot per simple root is required")
    if any(len(v) != len(simples[0]) for v in simples + cosimples):
        raise ValueError("simple roots and coroots must all have the"
                         " length of the first simple root")
    pairs = list(zip(simples, cosimples))
    for a, av in pairs:
        if _dot(a, av) != 2:
            raise ValueError("simple pairing <alpha, alpha^> must be 2")
    moves = _reflections(pairs)
    seen, found = {}, []
    reflected = ((c, cv) for b, bv in found
                 for i, c, cv in moves(b, bv) if b != simples[i])
    for b, bv in chain(pairs, reflected):
        prev = seen.get(b)
        if prev is None:
            seen[b] = bv
            seen[tuple([-x for x in b])] = tuple([-x for x in bv])
            found.append((b, bv))
            if len(seen) > cap:
                raise CapExceeded(f"root generation: reached {len(seen)}"
                                  f" roots, over the cap {cap}")
        elif prev != bv:
            raise ValueError("inconsistent coroots generated")
    roots = sorted(seen)
    positive = {b for b, _ in found}
    return (roots, [seen[r] for r in roots],
            tuple(i for i, r in enumerate(roots) if r in positive))


def generated_datum(simple_roots, simple_coroots, label=""):
    """The based root datum generated by reflections from a simple system,
    holding only its simple pairs until its other roots are read; their
    closure is then capped at ROOT_CAP."""
    simples = [tuple(int(v) for v in r) for r in simple_roots]
    cosimples = [tuple(int(v) for v in r) for r in simple_coroots]
    if len(simples) != len(cosimples):
        raise ValueError("one coroot per simple root is required")
    rank = len(simples[0]) if simples else 0
    datum = BasedRootDatum._make((rank, None, None, None, label))
    datum.__dict__["simple_pairs"] = tuple(zip(simples, cosimples))
    return datum


def datum_from_simples(simple_roots, simple_coroots, label="", cap=ROOT_CAP):
    """`generated_datum`, its closure built at once under `cap`: it raises
    here when the pairs do not close, as a fold needs."""
    datum = generated_datum(simple_roots, simple_coroots, label)
    datum.__dict__["_lists"] = datum._closure_lists(cap)
    return datum


def validate(datum):
    """Structural checks; returns a list of violation strings (empty = valid).

    Checked: <alpha, alpha^> = 2 for every pair; the simple roots are
    linearly independent; each reflection permutes the root set (and
    dually the coroot set); every root is an integer combination of simple
    roots with coefficients all of one sign.

    The certificate, as for every preset and fold, is the `root_closure`
    of the simple pairs and of the doubles 2a of simple roots that are
    roots, capped at the number of roots.  It holds when the closure gives
    the datum's pairs and the simple Cartan matrix is generalized (off the
    diagonal, entries <= 0 and zero exactly where the transpose is): the
    closure is W-stable on both sides, and s_i permutes the positive roots
    other than alpha_i and 2 alpha_i (Kac, Infinite-dimensional Lie
    algebras, Lemma 3.7), so its positive side, kept as the datum's
    `positive_indices`, has simple coefficients >= 0.  Otherwise every
    reflection (`_reflected`) and every root's coefficients are checked.
    """
    problems = []
    if len(set(datum.roots)) != len(datum.roots):
        problems.append("duplicate roots")
    for idx, (a, av) in enumerate(zip(datum.roots, datum.coroots)):
        if len(a) != datum.rank or len(av) != datum.rank:
            problems.append(f"root/coroot {idx} has wrong length")
            continue
        p = _dot(a, av)
        if p != 2:
            problems.append(f"<root {idx}, coroot {idx}> = {p}, expected 2")
    if problems:
        return problems
    problems = [f"simple index {i} out of range" for i in datum.simple_indices
                if not 0 <= i < len(datum.roots)]
    if problems:
        return problems
    solver = datum._coefficient_solver
    if datum.rank - solver.consistency.nrows < len(datum.simple_indices):
        return ["simple roots are linearly dependent"]
    coroot = dict(zip(datum.roots, datum.coroots))
    cartan = datum.cartan
    if all(c <= 0 and (c == 0) == (cartan[j][i] == 0)
           for i, row in enumerate(cartan)
           for j, c in enumerate(row) if i != j):
        seeds = datum.seed_pairs()
        try:
            roots, coroots, positive = root_closure(
                [b for b, _ in seeds], [bv for _, bv in seeds],
                cap=len(datum.roots))
        except (ValueError, CapExceeded):
            roots = coroots = ()
        if dict(zip(roots, coroots)) == coroot:
            positive = {roots[i] for i in positive}
            datum.__dict__["positive_indices"] = tuple(
                i for i, r in enumerate(datum.roots) if r in positive)
            return problems
    _, leaves = _reflected(datum, range(len(datum.roots)))
    for idx, left in enumerate(leaves):
        if "root" in left:
            problems.append(f"reflection in root {idx} does not permute the roots")
        if "coroot" in left:
            problems.append(f"coreflection in root {idx} does not permute the coroots")
    den = solver.den
    for idx, nums in enumerate(solver.numerators(datum.roots)):
        if nums is None:
            problems.append(f"root {idx} is not in the span of the simple roots")
            continue
        if any(c % den for c in nums):
            problems.append(f"root {idx} is not an integer combination of simple roots")
            continue
        if not (all(c >= 0 for c in nums) or all(c <= 0 for c in nums)):
            problems.append(f"root {idx} has mixed-sign simple coefficients")
    return problems


def _reflected(datum, bases, coroot_side=True):
    """The reflection in each basis root (an index) applied, through
    `_reflections`, to every (root, coroot) pair of a datum of distinct
    roots, or with `coroot_side` false to every root alone.  Per basis:
    its map of the root indices, sparse, as a dict {i: image of root i}
    over the roots it may move (those it meets), the image None where a
    root leaves the roots; and a set of "root" when a root leaves the
    roots, and "coroot" when a coroot leaves the coroots."""
    roots, coroots = datum.roots, datum.coroots
    index = {r: i for i, r in enumerate(roots)}
    coroot_set = set(coroots)
    moves = _reflections([(roots[i], coroots[i]) for i in bases])
    moved = [{} for _ in bases]
    leaves = [set() for _ in bases]
    sides = zip(roots, coroots) if coroot_side else zip(roots)
    for idx, pair in enumerate(sides):
        for g, b, bv in moves(*pair):
            j = moved[g][idx] = index.get(b)
            if j is None:
                leaves[g].add("root")
            if (bv is not None and (j is None or coroots[j] != bv)
                    and bv not in coroot_set):
                leaves[g].add("coroot")
    return moved, leaves


def dual_datum(datum):
    """Swap the two sides; applying twice returns the original."""
    return BasedRootDatum(datum.rank, datum.coroots, datum.roots,
                          datum.simple_indices,
                          label=(datum.label + "^") if datum.label else "")


def automorphism_order(matrix, rank, name):
    """The order of `matrix` as an automorphism of Z^rank, the one check
    of an action's matrices; ValueError, naming it `name`, unless it is
    rank x rank, unimodular (tested first) and of finite order."""
    if matrix.shape != (rank, rank):
        raise ValueError(f"{name} does not act on a rank-{rank} lattice")
    if not matrix.is_unimodular():
        raise ValueError(f"{name} is not a lattice automorphism")
    return matrix.multiplicative_order()


class PinnedAutomorphism(namedtuple("PinnedAutomorphism", "matrix order")):
    """Finite-order lattice automorphism preserving the based structure;
    `pinned_automorphism` checks it."""

    __slots__ = ()

    def dual(self):
        """The inverse transpose, which acts on the other side's lattice."""
        return self.matrix.power(self.order - 1).transpose()


def pinned_automorphism(datum, matrix):
    """Build a PinnedAutomorphism, checking it permutes roots, coroots and
    the simple set; for a torus datum (no roots) only finite order is
    checked.  The `_seed_certificate` decides without reading the other
    roots; only where it fails does `pinned_violations` report why."""
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix(matrix)
    aut = PinnedAutomorphism(matrix, automorphism_order(
        matrix, datum.rank, "pinned automorphism"))
    if not _seed_certificate(datum, aut):
        problems = pinned_violations(datum, aut)
        if problems:
            raise ValueError("; ".join(problems))
    return aut


def _seed_certificate(datum, aut):
    """Whether `aut` sends each of the datum's `seed_pairs` (a, a^) to a
    seed pair (tau a, tau^-T a^).  Then it preserves the based datum:
    tau s_a tau^-1 = s_{tau a} on X and dually on X^ (Bourbaki, Lie VI
    1.1), so tau carries the reflection closure of the seeds, which is
    the datum, onto that of their images, the same pairs; and it permutes
    the simple roots among the seeds, since a simple root sent to a
    double 2 alpha_j would be twice the seed tau^-1 alpha_j, against the
    independence of the simple roots.
    Conversely a tau that preserves the datum permutes the simple pairs
    and so the doubles that are roots."""
    if aut.order == 1:
        return True
    coroot = dict(datum.seed_pairs())
    root_images = images(aut.matrix, list(coroot))
    co_images = images(aut.dual(), list(coroot.values()))
    return all(coroot.get(b) == bv for b, bv in zip(root_images, co_images))


def pinned_violations(datum, aut):
    """Why `aut` fails to preserve the based datum (empty when it does):
    one product maps the roots, and one the coroots under the dual."""
    problems = []
    if aut.order == 1 or not datum.roots:
        return problems  # the identity preserves any datum of distinct roots
    root_index = {r: i for i, r in enumerate(datum.roots)}
    root_images = images(aut.matrix, datum.roots)
    co_images = images(aut.dual(), datum.coroots)
    for i, img in enumerate(root_images):
        j = root_index.get(img)
        if j is None:
            problems.append(f"image of root {i} is not a root")
            continue
        if co_images[i] != datum.coroots[j]:
            problems.append(f"coroot of root {i} is not carried to the matching coroot")
    simple_set = {datum.roots[i] for i in datum.simple_indices}
    for i in datum.simple_indices:
        if root_images[i] not in simple_set:
            problems.append(f"simple root {i} is not carried to a simple root")
    return problems


class GaloisAction(namedtuple("GaloisAction", "tau sigma twist")):
    """A pair of pinned automorphisms with the tame twist relation
    sigma tau sigma^-1 = tau^twist."""

    __slots__ = ()

    def __new__(cls, tau, sigma, twist=1):
        check_twist_relation(tau.matrix, sigma.matrix, twist, tau.order)
        return super().__new__(cls, tau, sigma, twist)


def check_twist_relation(tau, sigma, twist, tau_order):
    """Raise ValueError unless sigma tau sigma^-1 = tau^j, j = twist mod
    ord(tau), with j invertible mod ord(tau).  The relation is checked as
    sigma tau = tau^j sigma, so sigma is never inverted."""
    if sigma @ tau != tau.power(twist % tau_order) @ sigma:
        raise ValueError("twist relation sigma tau sigma^-1 = tau^j fails")
    if tau_order > 1 and gcd(twist, tau_order) != 1:
        raise ValueError("twist exponent must be invertible mod ord(tau)")


def galois_action(datum, tau_matrix, sigma_matrix, twist=1):
    tau = pinned_automorphism(datum, tau_matrix)
    sigma = pinned_automorphism(datum, sigma_matrix)
    return GaloisAction(tau, sigma, twist)


def mulclose(generators, cap=DEFAULT_WEYL_CAP):
    """Closure of a nonempty list of square matrices under multiplication."""
    return set(search([IntMatrix.identity(generators[0].nrows)], generators,
                      matmul, cap, "group enumeration"))


def _gather(indices):
    """p -> tuple(p[i] for i in indices), as one itemgetter: with q the
    root permutation of g and p that of w, _gather(q)(p) is that of w g,
    which sends r_i to w(r_q[i]) = r_p[q[i]].  One index or none is read
    as a slice, since a bare itemgetter of one index returns the entry."""
    i = indices[0] if indices else 0
    return (itemgetter(*indices) if len(indices) > 1
            else itemgetter(slice(i, i + len(indices))))


def root_permutation(matrix, roots):
    """The indices in `roots` of the images of the roots under `matrix`;
    FoldingError unless the matrix permutes them."""
    index = {r: i for i, r in enumerate(roots)}
    perm = tuple(map(index.get, images(matrix, roots)))
    if None in perm or len(set(perm)) != len(perm):
        raise FoldingError("matrix does not permute the roots")
    return perm


_EXCEPTIONAL_WEYL_ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600,
                            "F4": 1152, "G2": 12}


def weyl_order(type_name):
    """|W| of a Cartan type as `detect_type` names it (a product over the
    components), or None when a component is unknown."""
    order = 1
    for name in type_name.split(" x "):
        family, n = name[0], int(name[1:]) if name[1:].isdigit() else 0
        if name in _EXCEPTIONAL_WEYL_ORDERS:
            order *= _EXCEPTIONAL_WEYL_ORDERS[name]
        elif family == "A" and n:
            order *= factorial(n + 1)
        elif family in "BC" and n:
            order *= 2 ** n * factorial(n)
        elif family == "D" and n:
            order *= 2 ** (n - 1) * factorial(n)
        elif name != "torus":
            return None
    return order


def _products(elements, gathers):
    """The permutation of u v for each u of `elements`, in turn, and each
    v of `gathers`, which map that of u to that of u v."""
    for u in elements:
        for v in gathers:
            yield v(u)


def weyl_walk(datum, cap=DEFAULT_WEYL_CAP):
    """Each element of W once, as its permutation of the roots, keeping
    nothing it has yielded: with W_m generated by the first m simple
    reflections, each w in W_m is one product u v, u in W_{m-1} and v the
    least element of the coset W_{m-1} v (Bjorner-Brenti, GTM 231, 2.4).
    The inverses x of those v are the x in W_m with x(alpha_j) > 0 for
    j < m - 1, found from 1 by left multiplication, which by Deodhar's
    lemma reaches them all.  Refused up front when the order of the
    Cartan type passes `cap`; CapExceeded names the count reached when
    the walk, or one level of representatives, passes it."""
    type_name = detect_type(datum)
    order = weyl_order(type_name)
    if order is not None and order > cap:
        raise CapExceeded(f"Weyl group enumeration: {type_name} has"
                          f" {order} elements, over the cap {cap}")
    simples, ids = datum.simple_indices, range(len(datum.roots))
    negative = set(ids).difference(datum.positive_indices)
    moved, leaves = _reflected(datum, simples, coroot_side=False)
    for i, left in zip(simples, leaves):
        if left:
            raise FoldingError(f"Weyl group enumeration: the reflection in"
                               f" simple root {i} does not permute the"
                               f" roots")
    reflections = [(s, _gather(s)) for s in (tuple(map(d.get, ids, ids))
                                             for d in moved)]
    elements = iter([tuple(ids)])
    for m in range(1, len(simples) + 1):
        # x in W_m is keyed by x(alpha_j), j < m, and mapped to the root
        # permutation of v = x^-1; that of (s x)^-1 = v s is a gather of v
        inverse = {simples[:m]: tuple(ids)}

        def left(x, reflection):  # s x if it is a representative, else x
            s, at_s = reflection
            if not negative.isdisjoint(map(s.__getitem__, islice(x, m - 1))):
                return x
            y = tuple(map(s.__getitem__, x))
            if y not in inverse:
                inverse[y] = at_s(inverse[x])
            return y
        search([simples[:m]], reflections[:m], left, cap,
               "Weyl group enumeration")
        elements = _products(elements, list(map(_gather, inverse.values())))
    yield from islice(elements, cap)
    if next(elements, None) is not None:
        raise CapExceeded(f"Weyl group enumeration: reached {cap + 1}"
                          f" elements, over the cap {cap}")


def _orbits(indices, generators):
    """Orbits on `indices` under the index maps `generators`, in
    breadth-first order and ordered by their first member in `indices`."""
    seen = set()
    orbits = []
    for i in indices:
        if i not in seen:
            orbit = tuple(search([i], generators, lambda j, perm: perm[j]))
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def _simple_orbits(datum, *automorphisms):
    """Orbits on the positions of the simple roots (in `simple_pairs`) of
    the group the pinned automorphisms generate, ordered by their first
    member.  Only the simple roots are moved."""
    simples = datum.simple_roots()
    perms = [root_permutation(aut.matrix, simples) for aut in automorphisms]
    return _orbits(range(len(simples)), perms)


def folded_generators(datum, *automorphisms):
    """Longest elements of the orbit parabolics: one matrix per orbit J of
    the simple roots under the group the automorphisms generate.

    By Steinberg these generate the automorphism-fixed Weyl subgroup.  Each
    longest element w_J is built by descent: starting from the identity,
    keep appending a simple reflection s_j, j in J, while w(alpha_j) > 0,
    as w s_j = w - (w alpha_j)(alpha_j^)^T; it ends at w_J, the one w in
    W_J with every w(alpha_j) < 0 (Humphreys, Reflection groups and
    Coxeter groups, 1.6-1.8).  As w is in W_J, w(alpha_j) is a root with
    coefficients over alpha_J of one sign, kept per j along the way, as
    in the geometric representation of W_J (5.3):
    w s_j (alpha_i) = w(alpha_i) - <alpha_i, alpha_j^> w(alpha_j).  So only
    the simple pairs are read.
    """
    pairs, cartan, n = datum.simple_pairs, datum.cartan, datum.rank
    out = []
    for orbit in _simple_orbits(datum, *automorphisms):
        # row b: the coefficients of w(alpha_{orbit[b]}) over alpha_J
        coefficients = [[int(b == c) for c in range(len(orbit))]
                        for b in range(len(orbit))]
        w = IntMatrix.identity(n).data
        while True:
            j = next((b for b, row in enumerate(coefficients)
                      if max(row) > 0), None)
            if j is None:
                break
            root, coroot = pairs[orbit[j]]
            image = tuple(_dot(row, root) for row in w)
            w = tuple(tuple([x - c * y for x, y in zip(row, coroot)])
                      if c else row for row, c in zip(w, image))
            coefficients = [[x - cartan[i][orbit[j]] * y
                             for x, y in zip(row, coefficients[j])]
                            for i, row in zip(orbit, coefficients)]
        out.append(IntMatrix._trusted(w, n))
    return out


class RestrictedRootData(namedtuple("RestrictedRootData", "projection datum"
                                    " non_reduced reduced_datum type_name")):
    """Folded data for a pinned automorphism tau.

    `projection` is the matrix of X onto the torsion-free
    tau-coinvariants, the character lattice of the fixed subtorus (its
    row count is that lattice's rank); the restricted roots live there.
    `datum` may be non-reduced (flagged by the bool `non_reduced`);
    `reduced_datum` keeps only indivisible roots, and `type_name` names
    the Cartan type.
    """

    __slots__ = ()


def restricted_root_data(datum, tau):
    """Restricted (folded) root data of a pinned automorphism.

    Restricted roots are the images of the roots in the torsion-free
    tau-coinvariants of X.  Only the simple roots are folded: per
    tau-orbit, its one image and its coroot sum, doubled on an orbit
    spanning an A2, as a functional.  Their closure, capped at the number
    of images, is the reduced datum; the other images must be doubles 2b
    of its roots b, with coroot b^/2 (the non-reduced case).  Raises
    FoldingError otherwise, and when tau does not permute the simple coroots.
    """
    coinv = coinvariants(tau.matrix)
    k = coinv.torsion_count
    r = coinv.free_rank
    proj_free = IntMatrix(coinv.proj.data[k:], ncols=datum.rank)
    lift_free_t = IntMatrix(coinv.lift.transpose().data[k:], ncols=datum.rank)

    cartan = datum.cartan
    orbits = _simple_orbits(datum, tau)
    cosimples = [av for _, av in datum.simple_pairs]
    if set(images(tau.dual(), cosimples)) != set(cosimples):
        raise FoldingError("tau does not permute the simple coroots")
    cosums = []
    for orbit in orbits:
        a2 = any(cartan[p][q] for p in orbit for q in orbit if p != q)
        cosum = map(sum, zip(*(cosimples[i] for i in orbit)))
        cosums.append(tuple([2 * a for a in cosum] if a2 else cosum))
    folded = images(proj_free, datum.roots)
    image_set = set(folded)
    halves = {b: tuple(v // 2 for v in b) for b in image_set
              if not any(v % 2 for v in b)}
    doubles = {b for b, h in halves.items() if h in image_set}
    label = "restricted (reduced)" if doubles else "restricted"
    simples = [folded[datum.simple_indices[orbit[0]]] for orbit in orbits]
    try:
        reduced = (datum_from_simples(simples, images(lift_free_t, cosums),
                                      label, cap=len(image_set))
                   if simples else BasedRootDatum(r, (), (), (), label))
    except (ValueError, CapExceeded) as exc:
        raise FoldingError(f"folded simple system: {exc}") from exc
    coroot = dict(zip(reduced.roots, reduced.coroots))
    # the coroot b^ of the half b of each double, odd when b is no root
    cohalves = {b: coroot.get(halves[b], (1,)) for b in doubles}
    if (image_set.difference(doubles) != coroot.keys()
            or any(v % 2 for bv in cohalves.values() for v in bv)):
        raise FoldingError("folded images are not the closure's roots and"
                           " doubles 2b of them with coroot b^/2")
    name = detect_type(reduced)
    full = reduced
    if doubles:
        name = f"BC-type (non-reduced), reduced {name}"
        for b, bv in cohalves.items():
            coroot[b] = tuple(v // 2 for v in bv)
        ordered = sorted(coroot)
        full = BasedRootDatum(r, ordered, map(coroot.get, ordered),
                              map(ordered.index, simples), label="restricted")
    return RestrictedRootData(projection=proj_free, datum=full,
                              non_reduced=bool(doubles), reduced_datum=reduced,
                              type_name=name)


def detect_type(datum):
    """Cartan-type label of a reduced based root datum from its simple system.

    Rank-2 double-bond systems are reported as C2 (= B2).  Unrecognized
    shapes come back as 'unknown'.
    """
    k = len(datum.simple_pairs)
    if k == 0:
        return "torus"
    cartan = datum.cartan
    # the connected components of the Dynkin diagram: per node j, the map
    # sending each node joined to j there, and fixing the others
    components = _orbits(range(k), [[j if cartan[i][j] else i
                                     for i in range(k)] for j in range(k)])
    return " x ".join(sorted(_component_type(cartan, sorted(comp))
                             for comp in components))


def _component_type(cartan, comp):
    n = len(comp)
    if n == 1:
        return "A1"
    # the bonds i - j, i before j in `comp`, and their multiplicities
    bonds = {(i, j): cartan[i][j] * cartan[j][i]
             for a, i in enumerate(comp) for j in comp[a + 1:]
             if cartan[i][j] and cartan[j][i]}
    degree = {i: sum(i in bond for bond in bonds) for i in comp}
    triple = [e for e, m in bonds.items() if m == 3]
    double = [e for e, m in bonds.items() if m == 2]
    if triple:
        return "G2" if n == 2 and not double else "unknown"
    branch = [i for i, d in degree.items() if d >= 3]
    if branch:
        if double or len(branch) > 1:
            return "unknown"
        # the arms: the components of the diagram without its branch node
        k, center = len(cartan), branch[0]
        arms = sorted(map(len, _orbits(
            [i for i in comp if i != center],
            [[j if cartan[i][j] and center not in (i, j) else i
              for i in range(k)] for j in range(k)])))
        if arms[:2] == [1, 1]:
            return f"D{n}"
        return {(1, 2, 2): "E6", (1, 2, 3): "E7",
                (1, 2, 4): "E8"}.get(tuple(arms), "unknown")
    if not double:
        return f"A{n}"
    if len(double) > 1:
        return "unknown"
    (i, j) = double[0]
    if n == 2:
        return "C2"
    # the double bond must sit at an end of the chain
    end = i if degree[i] == 1 else (j if degree[j] == 1 else None)
    if end is None:
        return "F4" if n == 4 else "unknown"
    inner = j if end == i else i
    # <alpha_inner, alpha_end^> = -2 means the end root is short: type B
    if cartan[inner][end] == -2:
        return f"B{n}"
    if cartan[end][inner] == -2:
        return f"C{n}"
    return "unknown"
