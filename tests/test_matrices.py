"""Exact integer matrix layer: Smith forms, kernels, solvers."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_decomp, \
    smith_normal_form as sympy_smith

from satake import matrices
from satake.matrices import (
    IntMatrix, column_span_basis, hstack, images, kernel_basis,
    linear_solver, smith_normal_form,
)
from satake.abelian import FgAbGroup, GroupHom, cokernel
from satake.cli import main
from satake.kottwitz import build_induced_torus


def random_matrix(rng, max_dim=6, bound=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(n)]
                      for _ in range(m)])


def u_inv(sf):
    """The dense U_inv of a Smith form, built from its column reader."""
    return IntMatrix.from_columns(sf.u_inv_columns(range(sf.nrows)),
                                  nrows=sf.nrows)


def assert_snf_contract(mat, sf):
    assert sf.U @ mat @ sf.V == sf.D
    assert sf.U.is_unimodular() and sf.V.is_unimodular()
    assert u_inv(sf) @ sf.U == IntMatrix.identity(sf.U.nrows)
    diag = sf.diagonal
    for i in range(sf.D.nrows):
        for j in range(sf.D.ncols):
            if i != j:
                assert sf.D.entry(i, j) == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def test_smith_small_examples():
    sf = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert sf.diagonal == (2, 4)
    assert smith_normal_form(IntMatrix.identity(3)).diagonal == (1, 1, 1)
    assert smith_normal_form(IntMatrix.zeros(2, 3)).diagonal == (0, 0)
    # 1x1 and rectangular
    assert smith_normal_form(IntMatrix([[-6]])).diagonal == (6,)
    sf = smith_normal_form(IntMatrix([[2, 0, 0], [0, 3, 0]]))
    assert sf.diagonal == (1, 6)


def test_smith_random_sweep():
    rng = random.Random(90125)
    for _ in range(300):
        mat = random_matrix(rng)
        assert_snf_contract(mat, smith_normal_form(mat))


def test_smith_empty_shapes():
    sf = smith_normal_form(IntMatrix([], ncols=3))
    assert sf.diagonal == ()
    assert sf.V.shape == (3, 3)
    sf = smith_normal_form(IntMatrix.from_columns([], nrows=2))
    assert sf.U.shape == (2, 2)


def test_determinant_matches_diagonal():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 5)
        mat = IntMatrix([[rng.randint(-6, 6) for _ in range(n)]
                         for _ in range(n)])
        prod = 1
        for d in smith_normal_form(mat).diagonal:
            prod *= d
        assert abs(mat.det()) == prod


def test_kernel_basis_is_saturated():
    # kernel of [[2, 4]] is generated by (2, -1), not (4, -2)
    ker = kernel_basis(IntMatrix([[2, 4]]))
    assert ker.ncols == 1
    col = ker.column(0)
    assert col in ((2, -1), (-2, 1))
    # an injective 3x2 map has an empty kernel
    empty = kernel_basis(IntMatrix([[1, 0], [0, 1], [0, 0]]))
    assert empty.shape == (2, 0)
    rng = random.Random(7)
    for _ in range(60):
        mat = random_matrix(rng, max_dim=5, bound=5)
        ker = kernel_basis(mat)
        prod = mat @ ker
        assert prod == IntMatrix.zeros(*prod.shape)
        if ker.ncols:
            # saturation: the Smith form of the kernel basis has unit pivots
            assert all(d == 1 for d in smith_normal_form(ker).diagonal)


def sympy_inverse(m):
    """The inverse of a unimodular IntMatrix, computed by sympy."""
    return IntMatrix(Matrix(m.data).inv().tolist())


def smith_solve(matrix, rhs):
    """The per-vector solver `SmithForm.solve` was before `linear_solver`
    replaced it: the integer solution V y of matrix @ x = rhs, with
    y_i = (U rhs)_i / d_i and y_i = 0 past the rank, or None."""
    sf = smith_normal_form(matrix)
    ncols = matrix.ncols
    c = sf.U.apply(tuple(rhs))
    diag = sf.diagonal
    y = []
    for i in range(ncols):
        d = diag[i] if i < len(diag) else 0
        ci = c[i] if i < len(c) else 0
        if (ci % d if d else ci) != 0:
            return None
        y.append(ci // d if d else 0)
    if any(c[ncols:]):
        return None
    return sf.V.apply(tuple(y))


def test_solve_and_preimage_mod_relations():
    mat = IntMatrix([[2, 0], [0, 3]])
    assert linear_solver(mat).solve([(4, 9)]) == [(2, 3)]
    assert linear_solver(mat).solve([(1, 0)]) == [None]
    # 2x = 4 mod 6 has the solution x = 2
    sol, = GroupHom(FgAbGroup((), 1), FgAbGroup((6,), 0),
                    IntMatrix([[2]])).preimages([(4,)])
    assert sol is not None
    assert (2 * sol[0] - 4) % 6 == 0
    assert GroupHom(FgAbGroup((), 1), FgAbGroup((4,), 0),
                    IntMatrix([[2]])).preimages([(1,)]) == [None]
    rng = random.Random(301)
    for _ in range(50):
        mat = random_matrix(rng, max_dim=4, bound=4)
        x = tuple(rng.randint(-3, 3) for _ in range(mat.ncols))
        [found] = linear_solver(mat).solve([mat.apply(x)])
        assert found is not None
        assert mat.apply(found) == mat.apply(x)
        # one factorization answers every right-hand side, in one call
        rhs = [tuple(rng.randint(-3, 3) for _ in range(mat.nrows))
               for _ in range(3)]
        for v, got in zip(rhs, linear_solver(mat).solve(rhs)):
            assert got is None or mat.apply(got) == v


def test_column_span_basis_keeps_index():
    mat = IntMatrix([[2, 0], [0, 0]])
    span = column_span_basis(mat)
    # index 2 sublattice of its saturation: span is (2, 0), not (1, 0)
    assert span.ncols == 1
    assert span.column(0) in ((2, 0), (-2, 0))


def test_unimodular_inverse_and_order():
    w = IntMatrix([[0, 1], [1, 0]])
    assert w.is_unimodular()
    assert sympy_inverse(w) == w
    assert w.multiplicative_order() == 2
    rot = IntMatrix([[0, -1], [1, 0]])
    assert rot.multiplicative_order() == 4
    with pytest.raises(ValueError):
        IntMatrix([[1, 1], [0, 1]]).multiplicative_order(cap=50)
    assert not IntMatrix([[2]]).is_unimodular()
    with pytest.raises(ValueError):
        w.power(-1)


def test_matrix_arithmetic_and_stacking():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a - a == IntMatrix.zeros(2, 2)
    assert a + (-a) == IntMatrix.zeros(2, 2)
    assert a.power(0) == IntMatrix.identity(2)
    assert a.power(2) == a @ a
    assert a.transpose().transpose() == a
    assert hstack(a, IntMatrix.identity(2)).shape == (2, 4)
    stacked = hstack(IntMatrix([], ncols=0), IntMatrix([], ncols=0))
    assert stacked.nrows == 0
    with pytest.raises(ValueError):
        a @ IntMatrix.identity(3)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


def test_key_orders_matrices_deterministically():
    mats = [IntMatrix([[2]]), IntMatrix([[-1]]), IntMatrix([[0]])]
    assert sorted(mats, key=lambda m: m.key())[0] == IntMatrix([[-1]])


# --- oracles for the fast paths of det and smith_normal_form ------------------

def reference_smith(matrix):
    """The Smith normal form as computed before its pivot scan stopped at
    a unit and before it skipped the divisibility sweep for a unit pivot:
    (U, D, V, U_inv) as row tuples."""
    m, n = matrix.nrows, matrix.ncols
    a = [list(row) for row in matrix.data]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    ui = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]
        for r in range(m):
            ui[r][i], ui[r][k] = ui[r][k], ui[r][i]

    def swap_cols(j, k):
        for r in range(m):
            a[r][j], a[r][k] = a[r][k], a[r][j]
        for r in range(n):
            v[r][j], v[r][k] = v[r][k], v[r][j]

    def row_op(i, k, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]
        for r in range(m):
            ui[r][k] += q * ui[r][i]

    def col_op(j, k, q):
        for r in range(m):
            a[r][j] -= q * a[r][k]
        for r in range(n):
            v[r][j] -= q * v[r][k]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in range(m):
            ui[r][i] = -ui[r][i]

    s = 0
    while s < min(m, n):
        pivot = None
        best = None
        for i in range(s, m):
            for j in range(s, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != s:
            swap_rows(s, pivot[0])
        if pivot[1] != s:
            swap_cols(s, pivot[1])
        while True:
            p = a[s][s]
            dirty = False
            for i in range(s + 1, m):
                if a[i][s] != 0:
                    q, r = divmod(a[i][s], p)
                    row_op(i, s, q)
                    if r != 0:
                        swap_rows(s, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(s + 1, n):
                if a[s][j] != 0:
                    q, r = divmod(a[s][j], p)
                    col_op(j, s, q)
                    if r != 0:
                        swap_cols(s, j)
                        dirty = True
                        break
            if dirty:
                continue
            p = a[s][s]
            offender = None
            for i in range(s + 1, m):
                for j in range(s + 1, n):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(s, offender, -1)
        if a[s][s] < 0:
            negate_row(s)
        s += 1
    return tuple(tuple(map(tuple, x)) for x in (u, a, v, ui))


def as_tuples(sf):
    return tuple(x.data for x in (sf.U, sf.D, sf.V, u_inv(sf)))


@st.composite
def sparse_matrices(draw, max_dim=7, square=False):
    """Entries in [-9, 9], each kept with probability 0.15, 0.4 or 1."""
    m = draw(st.integers(1, max_dim))
    n = m if square else draw(st.integers(1, max_dim))
    density = draw(st.sampled_from((15, 40, 100)))
    entries = draw(st.lists(st.integers(-9, 9), min_size=m * n,
                            max_size=m * n))
    keep = draw(st.lists(st.integers(0, 99), min_size=m * n, max_size=m * n))
    flat = [x if k < density else 0 for x, k in zip(entries, keep)]
    return IntMatrix([flat[i * n:(i + 1) * n] for i in range(m)])


@st.composite
def signed_permutations(draw, max_dim=9):
    n = draw(st.integers(1, max_dim))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return IntMatrix([[signs[i] if perm[i] == j else 0 for j in range(n)]
                      for i in range(n)])


@settings(max_examples=150, deadline=None)
@given(mat=st.one_of(sparse_matrices(square=True), signed_permutations()))
def test_det_matches_sympy(mat):
    assert mat.det() == Matrix(mat.data).det()


@settings(max_examples=100, deadline=None)
@given(mat=st.one_of(sparse_matrices(), signed_permutations()))
def test_smith_diagonal_matches_sympy(mat):
    expected = sympy_smith(Matrix(mat.data), domain=ZZ)
    k = min(mat.nrows, mat.ncols)
    assert smith_normal_form(mat).diagonal == tuple(
        abs(int(expected[i, i])) for i in range(k))


@settings(max_examples=200, deadline=None)
@given(mat=st.one_of(sparse_matrices(max_dim=9), signed_permutations()))
def test_smith_transforms_match_reference(mat):
    sf = smith_normal_form(mat)
    assert as_tuples(sf) == reference_smith(mat)
    assert_snf_contract(mat, sf)


def test_smith_transforms_match_reference_on_a_sweep():
    rng = random.Random(2718)
    for density in (0.15, 0.4, 1.0):
        for _ in range(150):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            mat = IntMatrix([[rng.randint(-9, 9) if rng.random() < density
                              else 0 for _ in range(n)] for _ in range(m)])
            assert as_tuples(smith_normal_form(mat)) == reference_smith(mat)


# (e, f, q) of the induced tori of the structure workload
INDUCED_TORI = ((2, 3, 5), (4, 4, 3), (3, 5, 2), (6, 6, 5), (8, 8, 3))


@pytest.mark.parametrize("e,f,q", INDUCED_TORI)
def test_smith_transforms_match_reference_on_induced_tori(e, f, q):
    """The sizes the kernel is tuned for: tau - 1, sigma - 1 and both side
    by side on the induced tori of the structure workload."""
    torus = build_induced_torus(e, f, q)
    one = IntMatrix.identity(torus.rank)
    tau, sigma = torus.tau - one, torus.sigma - one
    for mat in (tau, sigma, hstack(tau, sigma)):
        assert as_tuples(smith_normal_form(mat)) == reference_smith(mat)


@st.composite
def dense_matrices(draw, max_dim=12, bound=40):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    entries = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return IntMatrix(draw(st.lists(entries, min_size=m, max_size=m)))


@settings(max_examples=200, deadline=None)
@given(mat=dense_matrices())
def test_smith_restart_paths_match_reference(mat):
    """Dense entries up to 40 reach non-unit pivots, a column swap after a
    remainder in a column operation, and the divisibility sweep."""
    assert as_tuples(smith_normal_form(mat)) == reference_smith(mat)


@settings(max_examples=100, deadline=None)
@given(mat=st.one_of(sparse_matrices(), dense_matrices(),
                     signed_permutations()))
def test_smith_without_v_keeps_the_other_transforms(mat):
    """with_v=False drops V and changes nothing else."""
    full = smith_normal_form(mat)
    lean = smith_normal_form(mat, with_v=False)
    assert lean.V is None
    assert (lean.U, lean.D, u_inv(lean)) == (full.U, full.D, u_inv(full))


def reference_readings(mat):
    """What each reader of a Smith form gives, by the formulas it used on
    the dense (U, D, V, U_inv) of `reference_smith`, as `readings` lists
    it: cokernel, kernel basis, column span basis, linear solver."""
    u, d, v, ui = reference_smith(mat)
    m, n = mat.nrows, mat.ncols
    diag = tuple(d[i][i] for i in range(min(m, n)))
    r = sum(1 for x in diag if x)
    torsion = [i for i, x in enumerate(diag) if x >= 2]
    free = [i for i in range(m) if i >= len(diag) or diag[i] == 0]
    rows = torsion + free
    den = diag[r - 1] if r else 1
    left = tuple(tuple(sum(v[a][i] * (den // diag[i]) * u[i][b]
                           for i in range(r)) for b in range(m))
                 for a in range(n))
    return ((tuple(diag[i] for i in torsion), len(free),
             (len(rows), m, tuple(u[i] for i in rows)),
             (m, len(rows), tuple(tuple(row[i] for i in rows) for row in ui))),
            (n, n - r, tuple(row[r:] for row in v)),
            (m, r, tuple(tuple(diag[i] * row[i] for i in range(r))
                         for row in ui)),
            ((n, m, left), den, (m - r, m, u[r:])))


def readings(mat):
    group, solver = cokernel(mat), linear_solver(mat)
    return ((group.invariant_factors, group.free_rank, group.proj.key(),
             group.lift.key()),
            kernel_basis(mat).key(), column_span_basis(mat).key(),
            (solver.left.key(), solver.den, solver.consistency.key()))


@settings(max_examples=150, deadline=None)
@given(mat=st.one_of(sparse_matrices(), dense_matrices(max_dim=8),
                     signed_permutations()))
def test_readers_match_the_dense_reference(mat):
    """Each reader reads only the rows and columns it keeps, and gets
    what it read off the dense transforms."""
    assert readings(mat) == reference_readings(mat)


@pytest.mark.parametrize("e,f,q", INDUCED_TORI)
def test_readers_match_the_dense_reference_on_induced_tori(e, f, q):
    torus = build_induced_torus(e, f, q)
    one = IntMatrix.identity(torus.rank)
    for mat in (torus.tau - one, torus.sigma - one):
        assert readings(mat) == reference_readings(mat)


def refuse_dense(sf):
    raise AssertionError("a dense transform was built")


@pytest.mark.parametrize("command", ["kottwitz", "compact", "cocycle"])
def test_the_structure_commands_build_no_dense_transform(command, capsys):
    """On the largest induced torus of the structure workload, every
    reader reads its rows and columns off the sparse form: no dense U, D
    or V is built (U_inv has no dense builder)."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("U", "D", "V"):
            patch.setattr(matrices.SmithForm, name, property(refuse_dense))
        assert main([command, "--preset", "induced e=8 f=8 q=3"]) == 0
    assert capsys.readouterr().out
    with pytest.raises(AssertionError, match="dense"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrices.SmithForm, "U", property(refuse_dense))
            smith_normal_form(IntMatrix([[2]])).U


@st.composite
def factor_pairs(draw, max_dim=6):
    """Two factors of compatible shapes, any dimension 0 included, with
    entries that are often 0, 1 or -1."""
    m, k, n = (draw(st.integers(0, max_dim)) for _ in range(3))
    entries = st.one_of(st.sampled_from((0, 0, 1, -1)), st.integers(-9, 9))

    def factor(rows, cols):
        return IntMatrix([[draw(entries) for _ in range(cols)]
                          for _ in range(rows)], ncols=cols)

    return factor(m, k), factor(k, n)


def as_sympy(mat):
    return Matrix(mat.nrows, mat.ncols, [x for row in mat.data for x in row])


@settings(max_examples=100, deadline=None)
@given(pair=factor_pairs())
def test_products_match_sympy(pair):
    """The row combinations of `@` (a coefficient 1, -1 or other, and
    rows with no nonzero entry) give sympy's product."""
    left, right = pair
    product = left @ right
    assert product.shape == (left.nrows, right.ncols)
    expected = (as_sympy(left) * as_sympy(right)).tolist()
    assert product == IntMatrix(expected, ncols=right.ncols)
    assert all(type(x) is int for row in product.data for x in row)


@st.composite
def matrices_and_vectors(draw, max_dim=6):
    """A matrix of any shape, no rows or no columns included, and a list
    of vectors of its column count, the empty list included."""
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    entries = st.one_of(st.sampled_from((0, 0, 1, -1)), st.integers(-9, 9))
    matrix = IntMatrix([[draw(entries) for _ in range(n)] for _ in range(m)],
                       ncols=n)
    return matrix, draw(st.lists(st.tuples(*[entries] * n), max_size=8))


@settings(max_examples=200, deadline=None)
@given(case=matrices_and_vectors())
@example(case=(IntMatrix([], ncols=3), [(1, 2, 3), (0, 0, 0)]))
@example(case=(IntMatrix([], ncols=0), [(), ()]))
@example(case=(IntMatrix([[], []]), [(), (), ()]))
@example(case=(IntMatrix([[1, 2], [3, 4]]), []))
@example(case=(IntMatrix([], ncols=2), []))
def test_images_match_apply(case):
    """`images` against `apply` one vector at a time: one image per
    vector, also an empty one when the matrix has no rows."""
    matrix, vectors = case
    got = images(matrix, vectors)
    assert list(got) == [matrix.apply(v) for v in vectors]
    assert all(type(x) is int for image in got for x in image)


def test_full_rank_solver_keeps_every_vector():
    """A full-rank system has a consistency matrix with no rows; every
    right-hand side still gets its numerators."""
    solver = linear_solver(IntMatrix([[2, 1], [0, 1]]))
    assert solver.consistency.nrows == 0
    assert solver.numerators([(1, 1), (2, 0)]) == [(0, 2), (2, 0)]


def test_power_matches_repeated_products(monkeypatch):
    """power(k) by squaring: no product for k = 1, and no squaring past
    the top bit nor product with the identity."""
    a = IntMatrix([[1, 2], [-1, 3]])
    expected = IntMatrix.identity(2)
    for k in range(8):
        assert a.power(k) == expected
        expected = expected @ a
    real = IntMatrix.__matmul__
    calls = []

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counting)
    for k in range(8):
        calls.clear()
        a.power(k)
        assert len(calls) == max(k.bit_length() + bin(k).count("1") - 2, 0)
    calls.clear()
    assert a.power(1) == a and not calls


def test_permutation_matrix_det_and_products():
    n = 64
    cols = [(7 * j + 3) % n for j in range(n)]
    perm = IntMatrix([[int(cols[j] == i) for j in range(n)] for i in range(n)])
    assert perm.det() == Matrix(perm.data).det()
    assert perm.transpose() @ perm == IntMatrix.identity(n)
    assert (-perm).det() == perm.det()   # n is even


def test_trusted_results_are_plain_int_tuples():
    a = IntMatrix([[1, -2], [0, 3]])
    b = IntMatrix([[4, 0], [-5, 7]])
    for m in (a @ a, a.transpose(), a + a, -a, a - b, hstack(a, b),
              IntMatrix.identity(3), *as_tuples(smith_normal_form(a))):
        data = m if isinstance(m, tuple) else m.data
        assert isinstance(data, tuple)
        assert all(isinstance(row, tuple) for row in data)
        assert all(type(x) is int for row in data for x in row)
    assert a - b == a + (-b)
    assert hstack(a, b).data == ((1, -2, 4, 0), (0, 3, -5, 7))
    with pytest.raises(ValueError, match="shape mismatch"):
        a - IntMatrix.identity(3)
    assert IntMatrix.identity(0).shape == (0, 0)
    assert IntMatrix([], ncols=3).transpose().shape == (3, 0)
    assert IntMatrix([[], []]).transpose().shape == (0, 2)


@pytest.mark.parametrize("rows", [
    [[2, 1], [1, 1]],                    # hyperbolic: trace 3 > 2
    [[0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0],
     [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]],
    [[1, 1], [0, 1]],                    # unipotent: trace 2, not 1
])
def test_infinite_order_is_refused_by_the_trace(rows):
    """The trace bound, and trace n off the identity, refuse these well
    before the cap of `ORDER_CAP`."""
    with pytest.raises(ValueError, match="infinite order"):
        IntMatrix(rows).multiplicative_order()


def test_finite_orders_pass_the_trace_bound():
    # signed permutations of order up to 12, and -1
    for mat, order in ((IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), 3),
                       (IntMatrix([[-1]]), 2),
                       (IntMatrix([[0, -1, 0, 0, 0], [1, 0, 0, 0, 0],
                                   [0, 0, 0, 0, 1], [0, 0, 1, 0, 0],
                                   [0, 0, 0, 1, 0]]), 12),
                       (IntMatrix([[1, -1], [1, 0]]), 6)):
        assert mat.multiplicative_order() == order


def order_by_products(mat):
    """The order as the least k with mat^k = 1, by repeated products."""
    ident = IntMatrix.identity(mat.nrows)
    acc, k = mat, 1
    while acc != ident:
        acc, k = acc @ mat, k + 1
    return k


def test_permutation_order_is_read_off_the_cycles(monkeypatch):
    """A permutation matrix's order takes no product; a signed permutation
    with a -1 still takes the product path.  Both agree with repeated
    products."""
    rng = random.Random(17)
    cases = []
    for n in (1, 2, 5, 9, 16):
        for _ in range(6):
            images = list(range(n))
            rng.shuffle(images)
            perm = IntMatrix.permutation(images)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            signs[rng.randrange(n)] = -1
            signed = IntMatrix([[s * x for x in row]
                                for s, row in zip(signs, perm.data)])
            cases.append((perm, order_by_products(perm)))
            cases.append((signed, order_by_products(signed)))
    products = []
    original = IntMatrix.__matmul__

    def counted(a, b):
        products.append(None)
        return original(a, b)
    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    for mat, order in cases:
        products.clear()
        assert mat.multiplicative_order() == order
        assert bool(products) == any(-1 in row for row in mat.data)
    with pytest.raises(ValueError, match="exceeds cap"):
        IntMatrix.permutation([1, 2, 3, 4, 0]).multiplicative_order(cap=4)
    assert IntMatrix.permutation([1, 2, 3, 4, 0]).multiplicative_order(
        cap=5) == 5


def test_non_integer_entries_are_refused():
    for rows in ([[1.5, Fraction(7, 2)]], [["3"]], [[1, 2], [3, 0.5]]):
        with pytest.raises(ValueError, match="entries must be integers"):
            IntMatrix(rows)
    exact = IntMatrix([[Fraction(2), 2.0, True]])
    assert exact.data == ((2, 2, 1),)
    assert all(type(x) is int for x in exact.data[0])


@st.composite
def solver_cases(draw, max_dim=5):
    """A matrix of any shape, 0 rows or 0 columns included, built as a
    product through an inner dimension k so that it is often of less
    than full rank; and right-hand sides that are images (an integer
    solution), images divided by their gcd (often only a rational one)
    or random (often none)."""
    m, k, n = (draw(st.integers(0, max_dim)) for _ in range(3))
    small = st.integers(-4, 4)

    def factor(rows, cols):
        return IntMatrix([[draw(small) for _ in range(cols)]
                          for _ in range(rows)], ncols=cols)

    mat = factor(m, k) @ factor(k, n)
    vectors = []
    for kind in draw(st.lists(st.sampled_from(("image", "divided", "random")),
                              max_size=4)):
        if kind == "random":
            vectors.append(tuple(draw(small) for _ in range(m)))
            continue
        v = mat.apply(tuple(draw(small) for _ in range(n)))
        g = gcd(*v)
        vectors.append(tuple(x // g for x in v) if kind == "divided" and g > 1
                       else v)
    return mat, vectors


@settings(max_examples=200, deadline=None)
@given(case=solver_cases())
def test_linear_solver_matches_sympy_smith_decomposition(case):
    """sympy's D = S M T shares no code with our kernel: an integer
    solution exists exactly when each d_i divides (S v)_i, where d_i = 0
    and the entries past the diagonal ask for zero; a rational one exactly
    when appending v keeps the rank.  The solutions are those of the
    per-vector solver the Smith form had before."""
    mat, vectors = case
    solver = linear_solver(mat)
    solutions = solver.solve(vectors)
    numerators = solver.numerators(vectors)
    assert len(solutions) == len(numerators) == len(vectors)
    d, s, _ = smith_normal_decomp(as_sympy(mat), domain=ZZ)
    diag = [int(d[i, i]) for i in range(min(mat.nrows, mat.ncols))]
    rank = as_sympy(mat).rank()
    for v, x, nums in zip(vectors, solutions, numerators):
        column = Matrix(mat.nrows, 1, list(v))
        c = [int(t) for t in s * column]
        integral = all(ci % diag[i] == 0 if i < len(diag) and diag[i]
                       else ci == 0 for i, ci in enumerate(c))
        assert (x is not None) == integral
        if x is not None:
            assert mat.apply(x) == v
        assert x == smith_solve(mat, v)
        rational = Matrix.hstack(as_sympy(mat), column).rank() == rank
        assert (nums is not None) == rational
        if nums is not None:
            assert mat.apply(nums) == tuple(solver.den * t for t in v)


# --- trivial inputs: identity factors, zero and identity Smith inputs --------

def triple_loop_product(left, right):
    """The textbook product, one entry at a time, as row tuples."""
    return tuple(tuple(sum(left.data[i][t] * right.data[t][j]
                           for t in range(left.ncols))
                       for j in range(right.ncols))
                 for i in range(left.nrows))


def identities(n):
    """I_n on the shared rows of `IntMatrix.identity`, by `diagonal`, and
    from nested lists, so the identity test meets rows it did not build."""
    return (IntMatrix.identity(n), IntMatrix.diagonal((1,) * n),
            IntMatrix([[int(i == j) for j in range(n)] for i in range(n)],
                      ncols=n))


@st.composite
def shaped_matrices(draw, max_dim=5):
    """A matrix of any shape, 0 x 0, m x 0 and 0 x n included, with
    entries that are often 0, 1 or -1."""
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    entries = st.one_of(st.sampled_from((0, 0, 1, -1)), st.integers(-9, 9))
    return IntMatrix([[draw(entries) for _ in range(n)] for _ in range(m)],
                     ncols=n)


@settings(max_examples=150, deadline=None)
@given(mat=shaped_matrices())
@example(mat=IntMatrix([], ncols=0))
@example(mat=IntMatrix([[], [], []]))
@example(mat=IntMatrix([], ncols=3))
def test_identity_factors_match_the_triple_loop_product(mat):
    """A @ I and I @ A are A, for I built any way; a matrix that differs
    from I in its last entry is no identity factor."""
    for n, side in ((mat.ncols, "right"), (mat.nrows, "left")):
        ones = identities(n)
        bump = IntMatrix.diagonal((0,) * (n - 1) + (1,)) if n else None
        near = (ones[0] + bump,) if n else ()
        for one in ones + near:
            left, right = (mat, one) if side == "right" else (one, mat)
            product = left @ right
            assert product.shape == (left.nrows, right.ncols)
            assert product.data == triple_loop_product(left, right)
            if one not in near:
                assert product == mat


@st.composite
def trivial_matrices(draw, max_dim=6):
    """A zero matrix of any shape or a square identity, each built by a
    constructor or from nested lists."""
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(("zeros", "zero rows", "identity")))
    if kind == "zeros":
        return IntMatrix.zeros(m, n)
    if kind == "zero rows":
        return IntMatrix([[0] * n for _ in range(m)], ncols=n)
    return draw(st.sampled_from(identities(m)))


def refuse_elimination(*args):
    raise AssertionError("the Smith elimination ran")


@settings(max_examples=150, deadline=None)
@given(mat=trivial_matrices())
@example(mat=IntMatrix.zeros(0, 0))
@example(mat=IntMatrix.zeros(4, 0))
@example(mat=IntMatrix.zeros(0, 4))
@example(mat=IntMatrix.identity(0))
def test_smith_of_zero_and_identity_matrices_matches_reference(mat):
    """A zero or identity matrix gets the form the elimination would have
    given, with V and without, and no elimination runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrices, "_eliminate", refuse_elimination)
        full = smith_normal_form(mat)
        lean = smith_normal_form(mat, with_v=False)
    assert as_tuples(full) == reference_smith(mat)
    assert_snf_contract(mat, full)
    assert lean.V is None
    assert (lean.U, lean.D, u_inv(lean)) == (full.U, full.D, u_inv(full))
