"""Acceptance suite: one test per claimed guarantee, all exact.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Golden files regenerate with UPDATE_GOLDEN=1.
"""

import contextlib
import io
import itertools
import os
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

from satake.abelian import GroupCharacter, all_characters
from satake.circle import ExactCircle, ONE
from satake.cli import main
from satake.components import (
    check_center_covers_components, check_fixed_weyl_is_folded,
)
from satake.kottwitz import (
    TorusWithAction, build_induced_torus, character_from_dual_point, classify,
    induced_character, induced_envelope, induced_torus_cocycle,
    kottwitz_group, kottwitz_hom, maximal_compact_quotient,
    parameter_from_character, setting_for_datum, setting_for_torus,
)
from satake.matrices import IntMatrix, smith_normal_form
from satake.presets import resolve_preset, split_gl
from satake.rootdata import (
    BasedRootDatum, galois_action, mulclose, pinned_automorphism,
    root_permutation, weyl_walk,
)
from test_abelian import pi0_fixed
from test_matrices import sympy_inverse

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

Q = ExactCircle(1, 0)
QINV = ExactCircle(-1, 0)
VALUE_GRID = (QINV, ONE, Q)


def test_criterion_1_smith_form_oracle():
    """500 random integer matrices: exact U*M*V = D with unimodular
    transforms and a nonnegative divisibility chain."""
    rng = random.Random(20260819)
    for _ in range(500):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        mat = IntMatrix([[rng.randint(-9, 9) for _ in range(n)]
                         for _ in range(m)])
        sf = smith_normal_form(mat)
        assert sf.U @ mat @ sf.V == sf.D
        assert sf.U.is_unimodular() and sf.V.is_unimodular()
        diag = sf.diagonal
        assert all(d >= 0 for d in diag)
        for i in range(sf.D.nrows):
            for j in range(sf.D.ncols):
                if i != j:
                    assert sf.D.entry(i, j) == 0
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0


def induced_grid():
    for e in range(1, 5):
        for f in range(1, 5):
            for q in (3, 5, 7):
                if gcd(q, e) == 1:
                    yield e, f, q


def test_criterion_2_induced_tori_are_infinite_cyclic():
    """Every tame induced torus on the (e, f, q) grid has T/T_0 and T/T_c
    both infinite cyclic."""
    count = 0
    for e, f, q in induced_grid():
        torus = build_induced_torus(e, f, q)
        kg = kottwitz_group(torus)
        assert kg.group.invariant_factors == ()
        assert kg.group.free_rank == 1, (e, f, q)
        compact = maximal_compact_quotient(torus)
        assert compact.invariant_factors == () and compact.free_rank == 1
        count += 1
    assert count == 44


def test_criterion_3_induced_character_round_trip():
    """Dual-point extraction followed by the pairing reproduces every test
    character exactly: q^{+-1}, q^{+-1/2}, and all eighth roots of unity."""
    values = [Q, QINV, ExactCircle(Fraction(1, 2), 0),
              ExactCircle(Fraction(-1, 2), 0)]
    values += [ExactCircle(0, Fraction(k, 8)) for k in range(8)]
    for e, f, q in induced_grid():
        torus = build_induced_torus(e, f, q)
        kg = kottwitz_group(torus)
        for fval in values:
            chi, c = induced_torus_cocycle(torus, fval)
            assert c == fval
            back = character_from_dual_point(kg, chi, c)
            assert back == induced_character(kg, fval), (e, f, q, fval)


def test_criterion_4_norm_one_torsion_classification():
    """The ramified norm-one torus: T/T_0 = Z/2, trivial T/T_c, and
    exactly two parameter classes by exhaustive enumeration."""
    torus = TorusWithAction(1, IntMatrix([[-1]]), IntMatrix.identity(1))
    kg = kottwitz_group(torus)
    assert kg.group.invariant_factors == (2,) and kg.group.free_rank == 0
    assert maximal_compact_quotient(torus).is_trivial()
    setting = setting_for_torus(torus)
    chars = list(all_characters(setting.group))
    assert len(chars) == 2
    keys = {classify(setting, parameter_from_character(setting.kottwitz, ch)).key()
            for ch in chars}
    assert len(keys) == 2


# preset -> (|W|, |W^tau|) frozen from the classical orders
TWISTED_SUITE = {
    "flip A2": (6, 2),
    "flip A3": (24, 8),
    "flip A4": (120, 8),
    "flip A5": (720, 48),
    "flip D4": (192, 48),
    "triality D4": (192, 12),
}


def test_criterion_5_twisted_group_checks():
    """Fixed-point connectedness, center covering, and fixed-Weyl = folded
    (orders checked against a brute-force commutant enumeration)."""
    for name, (worder, fixed_order) in TWISTED_SUITE.items():
        preset = resolve_preset(name)
        tau = pinned_automorphism(preset.datum, preset.tau)
        assert len(set(weyl_walk(preset.datum))) == worder, name
        weyl = mulclose([preset.datum.reflection_matrix(i)
                         for i in preset.datum.simple_indices])
        assert len(weyl) == worder, name
        brute = [w for w in weyl if w @ tau.matrix == tau.matrix @ w]
        assert len(brute) == fixed_order, name
        fold = check_fixed_weyl_is_folded(preset.datum, tau)
        assert fold.match, name
        assert fold.fixed_order == fixed_order
        assert fold.folded_order == fixed_order
        assert pi0_fixed(IntMatrix.permutation(root_permutation(
            tau.matrix, preset.datum.simple_roots()))).is_trivial(), name
        assert check_center_covers_components(preset.datum, tau).surjective, name


def unramified_setting(datum):
    n = datum.rank
    act = galois_action(datum, IntMatrix.identity(n), IntMatrix.identity(n))
    return setting_for_datum(datum, act)


def sort_key(values):
    return tuple(v.sort_key() for v in values)


def test_criterion_6_split_group_orbit_enumeration():
    """classify agrees with hand-enumerated symmetric-group orbits on the
    full 3^n grid over {q^-1, 1, q}, orbit sizes included."""
    # GL_n: the group of classes is Z^n modulo coordinate permutations
    for n, expected_classes in ((2, 6), (3, 10)):
        setting = unramified_setting(split_gl(n))
        assert setting.group.free_rank == n
        seen = {}
        for tup in itertools.product(VALUE_GRID, repeat=n):
            par = parameter_from_character(
                setting.kottwitz, GroupCharacter(setting.group, tup))
            cls = classify(setting, par)
            orbit = set(itertools.permutations(tup))
            assert cls.orbit_size == len(orbit), tup
            expected_rep = min(orbit, key=sort_key)
            assert cls.representative.character.values == expected_rep, tup
            seen[cls.key()] = cls.orbit_size
        assert len(seen) == expected_classes
        total = sum(seen.values())
        assert total == 3 ** n
    assert sorted(seen.values()) == [1, 1, 1, 3, 3, 3, 3, 3, 3, 6]

    # SL2: Z with the reflection acting by inversion
    sl2 = BasedRootDatum(1, ((2,), (-2,)), ((1,), (-1,)), (0,), label="SL2")
    setting = unramified_setting(sl2)
    seen = {}
    for v in VALUE_GRID:
        par = parameter_from_character(
            setting.kottwitz, GroupCharacter(setting.group, (v,)))
        cls = classify(setting, par)
        orbit = {(v,), (v.inverse(),)}
        assert cls.orbit_size == len(orbit)
        assert cls.representative.character.values == min(orbit, key=sort_key)
        seen[cls.key()] = cls.orbit_size
    assert len(seen) == 2
    assert sorted(seen.values()) == [1, 2]


def random_permutation_matrix(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return IntMatrix.from_columns([tuple(int(i == perm[j]) for i in range(n))
                                   for j in range(n)], nrows=n)


def assert_squares_commute(mat, kga, kgb):
    khom, chom = kottwitz_hom(mat, kga, kgb)
    assert (chom.compose(kga.inclusion)
            - kgb.inclusion.compose(khom)).is_zero()
    for j in range(mat.ncols):
        col = tuple(mat.column(j))
        unit = tuple(int(i == j) for i in range(mat.ncols))
        assert kgb.coinvariants.project(col) == chom(
            kga.coinvariants.project(unit))


def test_criterion_7_functoriality_squares_and_envelope():
    """100 random equivariant maps commute with the induced maps on
    T/T_0 and its presentation; the norm-one envelope hits both
    characters."""
    rng = random.Random(271828)
    for trial in range(100):
        if trial % 2 == 0:
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            eps = rng.choice((-1, 1))
            ta, tb = IntMatrix.diagonal([eps] * na), IntMatrix.diagonal([eps] * nb)
            sa, sb = IntMatrix.identity(na), IntMatrix.identity(nb)
            mat = IntMatrix([[rng.randint(-3, 3) for _ in range(na)]
                             for _ in range(nb)])
        else:
            n = rng.randint(1, 4)
            na = nb = n
            ta = tb = random_permutation_matrix(rng, n)
            sa = sb = ta.power(rng.randint(0, n))
            base = IntMatrix([[rng.randint(-2, 2) for _ in range(n)]
                              for _ in range(n)])
            mat = IntMatrix.zeros(n, n)
            g = IntMatrix.identity(n)
            for _ in range(ta.multiplicative_order()):
                mat = mat + g @ base @ sympy_inverse(g)
                g = g @ ta
        kga = kottwitz_group(TorusWithAction(na, ta, sa))
        kgb = kottwitz_group(TorusWithAction(nb, tb, sb))
        assert_squares_commute(mat, kga, kgb)

    norm_one = TorusWithAction(1, IntMatrix([[-1]]), IntMatrix.identity(1))
    env = induced_envelope(norm_one, 2)
    kgp = kottwitz_group(env.prime)
    kgn = kottwitz_group(norm_one)
    khom, _ = kottwitz_hom(env.norm, kgp, kgn)
    assert khom.is_surjective()
    hit = {ch.precompose(khom).key() for ch in all_characters(kgn.group)}
    assert len(hit) == 2


GOLDEN_CASES = {
    "norm-one-kottwitz.txt": ["kottwitz", "--preset", "norm-one"],
    "ramified-u3-kottwitz.txt": ["kottwitz", "--preset", "unitary ramified 3"],
    "induced-compact.txt": ["compact", "--preset", "induced e=3 f=2 q=7"],
    "induced-cocycle.txt": ["cocycle", "--preset", "induced e=3 f=2 q=7"],
    "gl2-classify.txt": ["classify", "--config",
                         str(GOLDEN_DIR / "gl2-classify.cfg"), "--q", "7"],
    "gl2-equal.txt": ["equal", "--config", str(GOLDEN_DIR / "gl2-equal.cfg")],
    "flip-a4-fold.json": ["fold", "--preset", "flip A4", "--format", "json"],
    "flip-d4-verify.json": ["verify-ks", "--preset", "flip D4",
                            "--format", "json"],
    "flip-a5-verify.json": ["verify-ks", "--preset", "flip A5",
                            "--format", "json"],
    "sp4-modulus.txt": ["modulus", "--preset", "split Sp4", "--q", "3"],
    "gl2-orbits.json": ["orbits", "--preset", "split GL2", "--torsion", "4",
                        "--format", "json"],
}


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_8_cli_output_determinism():
    """Every golden invocation is byte-identical across three consecutive
    runs and matches the stored file."""
    update = os.environ.get("UPDATE_GOLDEN") == "1"
    for fname, argv in GOLDEN_CASES.items():
        runs = []
        for _ in range(3):
            code, out = run_cli(argv)
            assert code == 0, (fname, out)
            runs.append(out.encode("utf-8"))
        assert runs[0] == runs[1] == runs[2], fname
        path = GOLDEN_DIR / fname
        if update:
            path.write_bytes(runs[0])
        assert path.read_bytes() == runs[0], fname
