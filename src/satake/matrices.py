"""Exact integer matrices, Smith normal form, kernels and linear solving.

Everything is computed over Z with Python's arbitrary-precision integers;
no floating point enters anywhere.  Matrices are immutable (tuple storage)
and hashable so that group elements can be collected into sets during
closure enumerations.  `linear_solver` is the one place where solutions
of M x = v, rational or integral, are read off a Smith form.
"""

from collections import namedtuple
from functools import cache
from itertools import compress
from math import lcm
from operator import add, mul, sub

# the largest order of a lattice automorphism, or of a group of them
ORDER_CAP = 10 ** 4


@cache
def _identity_rows(n):
    """The rows of I_n: a constant of n, shared by every identity built."""
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def _is_identity(m):
    """A shape test and one tuple comparison in C (on shared rows for I_n)."""
    return m.nrows == m.ncols and m.data == _identity_rows(m.nrows)


class IntMatrix:
    """An immutable integer matrix.

    >>> m = IntMatrix([[1, 2], [3, 4]])
    >>> (m @ m).data
    ((7, 10), (15, 22))
    >>> m.det()
    -2
    """

    __slots__ = ("data", "nrows", "ncols")

    def __init__(self, entries, ncols=None):
        rows = tuple(map(tuple, entries))
        data = tuple(tuple(map(int, row)) for row in rows)
        if data != rows:
            raise ValueError("matrix entries must be integers")
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data[1:]):
                raise ValueError("rows of unequal length")
            if ncols is not None and int(ncols) != width:
                raise ValueError("declared column count does not match rows")
        else:
            width = 0 if ncols is None else int(ncols)
        self.data = data
        self.nrows = len(data)
        self.ncols = width

    @classmethod
    def _trusted(cls, data, ncols):
        """Wrap a tuple of int tuples of width `ncols` as it is: no
        coercion and no shape check, for results the kernels build."""
        m = object.__new__(cls)
        m.data = data
        m.nrows = len(data)
        m.ncols = ncols
        return m

    @classmethod
    def identity(cls, n):
        return cls._trusted(_identity_rows(n), n)

    @classmethod
    def permutation(cls, images):
        """The permutation matrix sending e_j to e_{images[j]}: column j
        is the basis vector images[j]."""
        n = len(images)
        rows = [[0] * n for _ in range(n)]
        for j, i in enumerate(images):
            rows[i][j] = 1
        return cls._trusted(tuple(map(tuple, rows)), n)

    @classmethod
    def zeros(cls, m, n):
        return cls._trusted(((0,) * n,) * m, n)

    @classmethod
    def diagonal(cls, entries):
        k = len(entries)
        return cls._trusted(tuple((0,) * i + (d,) + (0,) * (k - 1 - i)
                                  for i, d in enumerate(entries)), k)

    @classmethod
    def from_columns(cls, columns, nrows=None):
        if columns:
            nrows = len(columns[0])
        elif nrows is None:
            raise ValueError("empty column list needs an explicit row count")
        if any(len(col) != nrows for col in columns):
            raise ValueError("columns of unequal length")
        return cls._trusted(tuple(zip(*columns)) or ((),) * nrows, len(columns))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def columns(self):
        return list(zip(*self.data)) if self.nrows else [()] * self.ncols

    def entry(self, i, j):
        return self.data[i][j]

    def transpose(self):
        return IntMatrix._trusted(tuple(zip(*self.data)) if self.nrows
                                  else ((),) * self.ncols, self.nrows)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if _is_identity(self):
            return other
        if _is_identity(other):
            return self
        # each output row is a combination of the rows of `other`, taken
        # only over the nonzero entries of the left row, which `compress`
        # picks out without a Python step per zero (sparse factors such
        # as permutation matrices then cost O(n^2), not O(n^3)); a
        # coefficient of 1 or -1 adds or subtracts the row as it is
        zero = (0,) * other.ncols
        rows = []
        for row in self.data:
            acc = zero
            for a, brow in compress(zip(row, other.data), row):
                if a == 1:
                    acc = tuple(map(add, acc, brow))
                elif a == -1:
                    acc = tuple(map(sub, acc, brow))
                else:
                    acc = tuple(map(add, acc, map(a.__mul__, brow)))
            rows.append(acc)
        return IntMatrix._trusted(tuple(rows), other.ncols)

    def apply(self, vector):
        """Matrix times column vector, as a tuple."""
        if len(vector) != self.ncols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(map(mul, row, vector)) for row in self.data)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(tuple(tuple(map(add, r1, r2)) for r1, r2
                                        in zip(self.data, other.data)),
                                  self.ncols)

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(tuple(tuple(map(sub, r1, r2)) for r1, r2
                                        in zip(self.data, other.data)),
                                  self.ncols)

    def __neg__(self):
        return IntMatrix._trusted(tuple(tuple(-a for a in row)
                                        for row in self.data), self.ncols)

    def power(self, k):
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out @ base
            k >>= 1
            base = base @ base if k else base
        return IntMatrix.identity(self.nrows) if out is None else out

    def det(self):
        """Exact determinant by fraction-free (Bareiss) elimination.

        A row with a zero in the pivot column is left alone when the
        pivot equals the previous one, since the update would return it
        unchanged; a permutation matrix then costs O(n^2)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return 1
        a = [list(row) for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = a[k][k]
            for i in range(k + 1, n):
                if a[i][k] == 0 and pivot == prev:
                    continue
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = pivot
        return sign * a[n - 1][n - 1]

    def is_unimodular(self):
        return self.nrows == self.ncols and self.det() in (1, -1)

    def multiplicative_order(self, cap=ORDER_CAP):
        """Least k >= 1 with self**k = 1; raises if cap is passed.

        The eigenvalues of a finite-order matrix are roots of unity, so
        every power has |trace| <= n, and trace n only when it is the
        identity (all eigenvalues 1, and it is diagonalisable); a power
        past that bound, or with trace n that is not the identity (as in
        a unipotent matrix), proves the order infinite and is refused at
        once.  A permutation matrix takes no product: its order is the
        lcm of its cycle lengths."""
        if self.nrows != self.ncols:
            raise ValueError("order of a non-square matrix")
        n = self.nrows
        if (images := _permutation_images(self.data)) is not None:
            order = lcm(*map(len, _cycles(images)))
            if order > cap:
                raise ValueError("matrix order exceeds cap; not finite order?")
            return order
        acc = self
        k = 1
        ident = IntMatrix.identity(n)
        while not acc == ident:
            trace = sum(acc.data[i][i] for i in range(n))
            if abs(trace) > n:
                raise ValueError(f"matrix has infinite order: |trace| of "
                                 f"its power {k} exceeds the size {n}")
            if trace == n:
                raise ValueError(f"matrix has infinite order: its power {k}"
                                 f" has trace {n} but is not the identity")
            acc = acc @ self
            k += 1
            if k > cap:
                raise ValueError("matrix order exceeds cap; not finite order?")
        return k

    def key(self):
        """Deterministic sort key."""
        return (self.nrows, self.ncols, self.data)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.shape == other.shape
                and self.data == other.data)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.data))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"


def _permutation_images(data):
    """images[j] = i when column j of the square `data` is e_i: each row
    holds one 1 and zeros elsewhere (C-level row scans), and no column
    is missed; None for any other matrix."""
    n = len(data)
    images = [None] * n
    for i, row in enumerate(data):
        if row.count(0) != n - 1 or 1 not in row:
            return None
        images[row.index(1)] = i
    return None if None in images else images


def _cycles(images):
    """The cycles of j -> images[j], each from its least index, in order."""
    cycles, seen = [], set()
    for start in range(len(images)):
        if start not in seen:
            cycle = [start]
            while images[cycle[-1]] != start:
                cycle.append(images[cycle[-1]])
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


def hstack(*mats):
    if not mats:
        raise ValueError("nothing to stack")
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise ValueError("row counts differ")
    rows = tuple(sum(parts, ()) for parts in zip(*(m.data for m in mats)))
    return IntMatrix._trusted(rows, sum(m.ncols for m in mats))


def _dense(vec, width):
    """The int tuple of length `width` holding the vector {index: entry}."""
    row = [0] * width
    for k, x in vec.items():
        row[k] = x
    return tuple(row)


class SmithForm(namedtuple("SmithForm", "pivots nrows ncols u uic vc")):
    """Smith normal form data U M V = D of an nrows x ncols matrix M, as
    the elimination leaves it.

    U, V are unimodular and U_inv is the inverse of U; D is diagonal
    with nonnegative entries in a divisibility chain d1 | d2 | ..., whose
    nonzero entries are the `pivots`.  U's rows and the columns of U_inv
    and of V are kept sparse, as dicts {index: nonzero entry} (`vc` is
    None when V was not tracked).  A reader builds only the rows or
    columns it asks for (`u_rows`, `u_inv_columns`, `v_columns`); the
    dense `U`, `D` and `V` are built each time they are read.
    """

    __slots__ = ()

    @property
    def diagonal(self):
        return self.pivots + (0,) * (min(self.nrows, self.ncols)
                                     - len(self.pivots))

    @property
    def rank(self):
        return len(self.pivots)

    def u_rows(self, indices):
        """The rows of U at `indices`, as int tuples."""
        return tuple(_dense(self.u[i], self.nrows) for i in indices)

    def u_inv_columns(self, indices):
        """The columns of U_inv at `indices`, as int tuples."""
        return tuple(_dense(self.uic[j], self.nrows) for j in indices)

    def v_columns(self, indices):
        """The columns of V at `indices`, as int tuples."""
        return tuple(_dense(self.vc[j], self.ncols) for j in indices)

    @property
    def U(self):
        return IntMatrix._trusted(self.u_rows(range(self.nrows)), self.nrows)

    @property
    def D(self):
        m, n = self.nrows, self.ncols
        d = [0] * (m * n)  # row by row, the pivots on the diagonal
        d[:len(self.pivots) * (n + 1):n + 1] = self.pivots
        return IntMatrix._trusted(tuple(zip(*[iter(d)] * n)) if n
                                  else ((),) * m, n)

    @property
    def V(self):
        return None if self.vc is None else IntMatrix.from_columns(
            self.v_columns(range(self.ncols)), nrows=self.ncols)


def _axpy(x, y, q):
    """x += q y in place, for vectors stored as {index: nonzero entry}."""
    for k, v in y.items() if q else ():
        if w := x.get(k, 0) + q * v:
            x[k] = w
        else:
            del x[k]


def smith_normal_form(matrix, with_v=True):
    """Smith normal form with unimodular transforms U, V and U_inv; with
    `with_v` false, V is not tracked and comes back None.  A zero or square
    identity matrix, on which no step would run, gets identities at once.

    >>> sf = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> sf.diagonal
    (2, 4)
    >>> sf.U @ IntMatrix([[2, 4], [6, 8]]) @ sf.V == sf.D
    True
    """
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix(matrix)
    m, n = matrix.nrows, matrix.ncols
    zero = not any(map(any, matrix.data))
    if zero or _is_identity(matrix):
        ident = [{i: 1} for i in range(m)]
        return SmithForm(() if zero else (1,) * m, m, n, ident, ident,
                         [{j: 1} for j in range(n)] if with_v else None)
    return _eliminate(matrix, with_v)


def _eliminate(matrix, with_v):
    """The Smith form of `matrix` by elimination.

    Pivot selection: smallest nonzero absolute value in the trailing
    block, ties broken by (row, column) position; the row-major scan
    stops at the first row holding an entry of absolute value 1.

    Only nonzeros are stored, as dicts {index: entry}: the rows of the
    working matrix and of U, and the columns of U_inv and of V.  The
    working matrix keys its entries by column label, the column's index
    in `matrix`; `at` and `pos` map positions to labels and back, so a
    column swap moves two labels.  A column operation changes only row
    s, since column s is already zero off the pivot.
    """
    m, n = matrix.nrows, matrix.ncols
    a = [dict(compress(enumerate(row), row)) if any(row) else {}
         for row in matrix.data]
    u, uic = [{i: 1} for i in range(m)], [{i: 1} for i in range(m)]
    # without V, one shared empty dict that nothing writes stands in
    vc = [{j: 1} for j in range(n)] if with_v else [{}] * n
    at, pos, pivots = list(range(n)), list(range(n)), []

    def swap_rows(i, k):
        for rows in a, u, uic:
            rows[i], rows[k] = rows[k], rows[i]

    def swap_cols(j, k):
        at[j], at[k] = at[k], at[j]
        pos[at[j]], pos[at[k]] = j, k
        vc[j], vc[k] = vc[k], vc[j]

    def row_op(i, k, q):
        # row i -= q * row k; U_inv: col k += q * col i
        _axpy(a[i], a[k], -q)
        _axpy(u[i], u[k], -q)
        _axpy(uic[k], uic[i], q)

    for s in range(min(m, n)):
        if a[s].get(at[s]) not in (1, -1):  # else a unit at (s, s) leads
            # least (|x|, row, position) in the trailing block, whose rows
            # hold nothing left of position s
            best = 0
            for i in range(s, m):
                for c, x in a[i].items():
                    x = abs(x)
                    if (not best or x < best
                            or x == best and i == pivot and pos[c] < col):
                        best, pivot, col = x, i, pos[c]
                if best == 1:
                    break
            if not best:
                break
            if pivot != s:
                swap_rows(s, pivot)
            if col != s:
                swap_cols(s, col)
        # clear row and column s; restart whenever a remainder appears,
        # since it is strictly smaller than the current pivot (a for loop
        # runs its else clause when it ends without a break)
        while True:
            row, label = a[s], at[s]
            p = row[label]
            for i in range(s + 1, m):
                if x := a[i].get(label):
                    q, r = divmod(x, p)
                    row_op(i, s, q)
                    if r:
                        swap_rows(s, i)
                        break
            else:
                # the other positions of row s, all past s, in order
                for j in (sorted(map(pos.__getitem__, row))[1:]
                          if len(row) > 1 else ()):
                    # col j -= q * col s; col s of `a` is zero off row s
                    c = at[j]
                    q, r = divmod(row.pop(c), p)
                    _axpy(vc[j], vc[s], -q)
                    if r:
                        row[c] = r
                        swap_cols(s, j)
                        break
                else:
                    # the pivot must divide the whole trailing block
                    offender = None if p in (1, -1) else next(
                        (i for i in range(s + 1, m)
                         if any(x % p for x in a[i].values())), None)
                    if offender is None:
                        break
                    row_op(s, offender, -1)  # add it, then re-clear
        if p < 0:
            for vec in a[s], u[s], uic[s]:
                for k in vec:
                    vec[k] = -vec[k]
        pivots.append(abs(p))

    return SmithForm(tuple(pivots), m, n, u, uic, vc if with_v else None)


def images(matrix, vectors):
    """matrix @ v for each of the int tuples v: the columns of one product
    with the vectors as columns, a loop over the few rows of the matrix."""
    if any(len(v) != matrix.ncols for v in vectors):
        raise ValueError("vector length does not match column count")
    if not (matrix.nrows and vectors):
        return ((),) * len(vectors)
    columns = IntMatrix._trusted(tuple(zip(*vectors)), len(vectors))
    return tuple(zip(*(matrix @ columns).data))


class LinearSolver(namedtuple("LinearSolver", "left den consistency")):
    """The solutions of M x = v read off one Smith form U M V = D, with
    d_1 | ... | d_r the nonzero entries of D: den = d_r (1 for r = 0),
    left = V[:, :r] diag(den / d_i) U[:r] and consistency = U[r:].

    M x = v has a rational solution exactly when consistency v = 0, and
    then x = left v / den = V[:, :r] y with y_i = (U v)_i / d_i is one.
    V[:, :r] extends to a basis of Z^n, so x is integral exactly when y
    is, that is exactly when M x = v has an integer solution."""

    __slots__ = ()

    def numerators(self, vectors):
        """Per vector v, den x for that x, or None when there is none: one
        product with `left`, one with `consistency`."""
        return [None if any(off) else nums for nums, off in
                zip(images(self.left, vectors),
                    images(self.consistency, vectors))]

    def solve(self, vectors):
        """Per vector v, an integer solution x of M x = v, or None."""
        den = self.den
        return [None if nums is None or any(c % den for c in nums)
                else tuple(c // den for c in nums)
                for nums in self.numerators(vectors)]


def linear_solver(matrix):
    """The LinearSolver of `matrix`, from one Smith form.

    >>> solver = linear_solver(IntMatrix([[2, 0], [0, 3]]))
    >>> solver.solve([(4, 9), (1, 0)]), solver.numerators([(1, 0)])
    ([(2, 3), None], [(3, 0)])
    """
    sf = smith_normal_form(matrix)
    m, r, diag = matrix.nrows, sf.rank, sf.pivots
    den = diag[-1] if r else 1
    u = sf.u_rows(range(m))
    v_r = IntMatrix.from_columns(sf.v_columns(range(r)), nrows=matrix.ncols)
    scaled_u = IntMatrix._trusted(tuple(tuple(den // d * x for x in row)
                                        for row, d in zip(u, diag)), m)
    return LinearSolver(v_r @ scaled_u, den, IntMatrix._trusted(u[r:], m))


def kernel_basis(matrix):
    """Columns form a basis of ker(matrix) on the source side (saturated):
    the columns of V past the rank."""
    sf = smith_normal_form(matrix)
    n = matrix.ncols
    return IntMatrix.from_columns(sf.v_columns(range(sf.rank, n)), nrows=n)


def column_span_basis(matrix):
    """Basis (as columns) of the column span of `matrix` (not saturated):
    d times column i of U_inv for each pivot d = d_i."""
    sf = smith_normal_form(matrix, with_v=False)
    return IntMatrix.from_columns(
        [tuple(d * x for x in col) for d, col in
         zip(sf.pivots, sf.u_inv_columns(range(sf.rank)))],
        nrows=matrix.nrows)
