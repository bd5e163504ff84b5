"""Component group certificates and the built-in presets."""

from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from satake.abelian import GroupHom, coinvariants, cokernel, induced_hom
from satake.cli import main
from satake.components import (
    CenterCoverCheck, check_center_covers_components,
    check_fixed_weyl_is_folded,
)
from satake import matrices
from satake.config import resolve
from satake.kottwitz import kottwitz_group, setting_for_datum
from satake.matrices import IntMatrix
from satake.presets import (
    adjoint_d4, norm_one_ramified_quadratic, resolve_preset, split_gl,
    split_pgl, split_sl, split_so, split_sp, split_torus,
)
from satake.rootdata import (
    BasedRootDatum, PinnedAutomorphism, datum_from_simples, galois_action,
    pinned_automorphism, restricted_root_data, root_closure,
    root_permutation, validate,
)

from test_abelian import pi0_fixed
from test_grid import GRID
from test_kottwitz import random_twisted_data
from test_rootdata import weyl_group

# fixed subgroup order and folded type per acceptance preset
KS_EXPECT = {
    "flip A2": (2, "A1", True),
    "flip A3": (8, "C2", False),
    "flip A4": (8, "C2", True),
    "flip A5": (48, "C3", False),
    "flip D4": (48, "B3", False),
    "triality D4": (12, "G2", False),
}


def test_pi0_of_diagonalizable_groups():
    assert pi0_fixed(IntMatrix([[-1]])).describe() == "Z/2"
    assert pi0_fixed(IntMatrix([[0, 1], [1, 0]])).is_trivial()
    assert pi0_fixed(IntMatrix.identity(2)).is_trivial()
    block = IntMatrix([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert pi0_fixed(block).describe() == "Z/2"


def tad_permutation(datum, tau):
    """tau on the character lattice of the adjoint torus, in the basis of
    the simple coroots, which a pinned tau permutes as it permutes the
    simple roots."""
    return IntMatrix.permutation(root_permutation(tau.matrix,
                                                  datum.simple_roots()))


def test_preset_data_are_valid():
    for datum, worder in ((split_gl(3), 6), (split_sl(3), 6), (split_pgl(3), 6),
                          (split_sp(4), 8), (split_so(5), 8),
                          (split_so(8), 192), (adjoint_d4(), 192),
                          (split_sl(2), 2), (split_gl(4), 24)):
        assert validate(datum) == [], datum.label
        assert weyl_group(datum).order == worder, datum.label


@pytest.mark.parametrize("name", sorted(KS_EXPECT))
def test_ks_suite(name):
    worder, rtype, non_reduced = KS_EXPECT[name]
    preset = resolve_preset(name)
    tau = pinned_automorphism(preset.datum, preset.tau)
    fold = check_fixed_weyl_is_folded(preset.datum, tau)
    assert fold.match
    assert fold.fixed_order == worder
    assert fold.folded_order == worder
    assert pi0_fixed(tad_permutation(preset.datum, tau)).is_trivial()
    cover = check_center_covers_components(preset.datum, tau)
    assert cover.surjective
    assert cover.kernel_witness == ()
    res = restricted_root_data(preset.datum, tau)
    assert rtype in res.type_name
    assert res.non_reduced == non_reduced


def test_d4_flip_has_covered_torus_components():
    preset = resolve_preset("flip D4")
    tau = pinned_automorphism(preset.datum, preset.tau)
    cover = check_center_covers_components(preset.datum, tau)
    assert cover.pi0_torus.describe() == "Z/2"
    assert cover.pi0_center.describe() == "Z/2"


def chain_by_loop(m):
    """e_i - e_{i+1} for i < m - 1, one vector per pass of the loop."""
    simples = []
    for i in range(m - 1):
        v = [0] * m
        v[i], v[i + 1] = 1, -1
        simples.append(tuple(v))
    return simples


def split_data_by_loops(family, n):
    """The reference for the split GL, Sp and SO presets: each simple
    system written out on its own."""
    if family == "GL":
        simples = chain_by_loop(n)
        return datum_from_simples(simples, simples, label=f"GL{n}")
    m = n // 2
    last = [0] * m
    simples, cosimples = chain_by_loop(m), chain_by_loop(m)
    if family == "Sp":
        last[m - 1] = 1
        simples.append(tuple(2 * x for x in last))
        cosimples.append(tuple(last))
    elif n % 2:
        last[m - 1] = 1
        simples.append(tuple(last))
        cosimples.append(tuple(2 * x for x in last))
    else:
        last[m - 2] = last[m - 1] = 1
        simples.append(tuple(last))
        cosimples.append(tuple(last))
    return datum_from_simples(simples, cosimples, label=f"{family}{n}")


@pytest.mark.parametrize("family, build, sizes", [
    ("GL", split_gl, [*range(2, 12), 100]),
    ("Sp", split_sp, range(4, 21, 2)),
    ("SO", split_so, range(5, 22)),
])
def test_split_presets_match_their_simple_systems(family, build, sizes):
    for n in sizes:
        got, want = build(n), split_data_by_loops(family, n)
        assert got == want, got.label
        assert got.positive_indices == want.positive_indices, got.label


def center_cover_by_two_quotients(datum, tau):
    """The reference for `check_center_covers_components`: the central
    quotient X^ / (all coroots) first, then its coinvariants, the
    cokernel of the tau it induces minus the identity.  The torsion map
    is tested on every torsion element, the lexicographically first one
    dying in the quotient the witness.  Returned with the test of dying,
    by which a witness that the kernel gives is checked."""
    n = datum.rank
    dual_tau = tau.dual()
    ct = coinvariants(dual_tau)
    central = cokernel(IntMatrix.from_columns(datum.coroots, nrows=n))
    tau_central = induced_hom(central, dual_tau)
    cz = (tau_central - GroupHom.identity(central)).cokernel_group()
    hom = induced_hom(ct, central.proj, cz)
    torsion, incl = ct.torsion_subgroup()

    def dies(el):
        return hom(incl(el)) == cz.zero()

    elements = product(*(range(d) for d in torsion.invariant_factors))
    witness = next((el for el in elements if any(el) and dies(el)), ())
    return CenterCoverCheck(not witness, torsion, cz.torsion_subgroup()[0],
                            witness), dies


DATUM_PRESETS = sorted(name for name in GRID
                       if resolve(preset=name).datum is not None)


def assert_center_check_matches_two_quotients(datum, tau):
    """The verdict and both component groups are the oracle's; a witness
    is there exactly when the oracle finds one, and it is a nonzero
    element of the torsion of the cochar coinvariants that dies in the
    central quotient's."""
    got = check_center_covers_components(datum, tau)
    want, dies = center_cover_by_two_quotients(datum, tau)
    for field in ("surjective", "pi0_torus", "pi0_center"):
        assert getattr(got, field) == getattr(want, field), field
    witness = got.kernel_witness
    assert bool(witness) == bool(want.kernel_witness)
    if witness:
        assert any(witness) and got.pi0_torus.reduce(witness) == witness
        assert dies(witness)
    return got


@pytest.mark.parametrize("name", DATUM_PRESETS)
def test_center_check_matches_two_quotients_on_the_grid(name):
    rg = resolve(preset=name)
    assert_center_check_matches_two_quotients(rg.datum, rg.action.tau)


def bc_datum(n, central):
    """BC_n on Z^(n + central), the last `central` coordinates a central
    torus: roots +-e_i +- e_j, +-e_i and +-2e_i (i, j <= n), the coroot
    of e_i being 2e_i^ and that of 2e_i being e_i^, based at
    e_1 - e_2, ..., e_(n-1) - e_n, e_n.  The simple coroots span only
    an index-2 sublattice of Q^."""
    rank = n + central
    chain = chain_by_loop(n)
    unit = tuple(int(i == n - 1) for i in range(n))
    pad = (0,) * central
    simples = [v + pad for v in chain + [unit]]
    seeds = simples + [tuple(2 * v for v in unit) + pad]
    coseeds = chain + [tuple(2 * v for v in unit), unit]
    roots, coroots, _ = root_closure(seeds, [v + pad for v in coseeds])
    index = {r: i for i, r in enumerate(roots)}
    datum = BasedRootDatum(rank, roots, coroots,
                           [index[r] for r in simples], label=f"BC{n}")
    assert validate(datum) == [] and len(datum.roots) == 2 * n * (n + 1)
    return datum


@pytest.mark.parametrize("n, central, signs, center", [
    (1, 0, [1], "0"),
    (2, 1, [1, 1, 1], "0"),
    (2, 1, [1, 1, -1], "Z/2"),
    (3, 2, [1, 1, 1, -1, 1], "Z/2"),
])
def test_center_check_matches_two_quotients_on_non_reduced_data(
        n, central, signs, center):
    """Q^ holds the coroot e_n^ of 2e_n, which the simple coroots miss,
    so X^ / Q^ is the central torus's cochars alone and tau = -1 on the
    center leaves pi_0 of Z^tau at Z/2 per sign flip, not twice that."""
    datum = bc_datum(n, central)
    tau = PinnedAutomorphism(IntMatrix.diagonal(signs),
                             1 if min(signs) > 0 else 2)
    cover = assert_center_check_matches_two_quotients(datum, tau)
    assert cover.surjective
    assert cover.pi0_center.describe() == center


@pytest.mark.parametrize("datum, matrix, witness", [
    (split_sl(2), IntMatrix([[-1]]), (1,)),
    (split_gl(2), IntMatrix.diagonal([-1, -1]), (1, 1)),
])
def test_an_unpinned_minus_one_leaves_torus_components_uncovered(
        datum, matrix, witness):
    """tau = -1 swaps the positive and negative roots, so it is not
    pinned: the witness branch, which no preset reaches."""
    cover = assert_center_check_matches_two_quotients(
        datum, PinnedAutomorphism(matrix, 2))
    assert not cover.surjective
    assert cover.kernel_witness == witness


def sl2_times_torus(k):
    """SL2 x T^k on Z^(1 + k): the root 2e_1, its coroot e_1^."""
    e1 = (1,) + (0,) * k
    return BasedRootDatum(1 + k, ((2,) + e1[1:], (-2,) + e1[1:]),
                          (e1, (-1,) + e1[1:]), (0,), label=f"SL2 x T^{k}")


def signs(values):
    """diag(values) as an automorphism of order 1 or 2, pinned or not."""
    return PinnedAutomorphism(IntMatrix.diagonal(values),
                              1 if min(values) > 0 else 2)


def sign_lists(rank):
    return st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank)


def resolved_pair(rg):
    return rg.datum, rg.action.tau


# (datum, tau) of rank at most 12, tau preserving the coroot span: the
# grid presets, random twisted data, BC_n times a torus and, where the
# check must fail, SL2 x T^k and GL_n under sign changes that are not
# pinned
CENTER_CHECK_CASES = st.one_of(
    st.sampled_from(DATUM_PRESETS).map(
        lambda name: resolved_pair(resolve(preset=name))),
    random_twisted_data().map(lambda config: resolved_pair(resolve(config))),
    st.tuples(st.integers(1, 3), st.integers(0, 2)).flatmap(
        lambda shape: st.tuples(st.just(bc_datum(*shape)),
                                sign_lists(sum(shape)).map(signs))),
    st.integers(0, 11).flatmap(
        lambda k: st.tuples(st.just(sl2_times_torus(k)),
                            sign_lists(1 + k).map(signs))),
    st.tuples(st.integers(2, 12), st.sampled_from((1, -1))).map(
        lambda case: (split_gl(case[0]), signs([case[1]] * case[0]))),
)


@settings(max_examples=60, deadline=None)
@given(case=CENTER_CHECK_CASES)
@example(case=(split_sl(2), signs([-1])))
@example(case=(split_gl(2), signs([-1, -1])))
@example(case=(sl2_times_torus(11), signs([-1] * 12)))
def test_kernel_verdict_matches_the_enumeration(case):
    """The one-kernel center check against the oracle that tests every
    torsion element: the same verdict and component groups, and a
    witness exactly when the enumeration finds one."""
    datum, tau = case
    assert datum.rank <= 12
    assert_center_check_matches_two_quotients(datum, tau)


def assert_tad_connected_by_orbits(datum, tau):
    """T_ad^tau is connected, as verify-ks reports for every pinned tau:
    the coinvariants of tau's permutation of the simple coroots are free
    of rank the number of its orbits, read off the orbits and as the
    cokernel of the permutation minus 1 (the elimination) alike."""
    perm = tad_permutation(datum, tau)
    got = coinvariants(perm)
    want = cokernel(perm - IntMatrix.identity(perm.nrows))
    assert (got.invariant_factors, got.free_rank) == ((), want.free_rank)
    assert want.torsion_count == 0


@pytest.mark.parametrize("name", DATUM_PRESETS)
def test_tad_connected_on_the_grid_runs_no_elimination(name, monkeypatch,
                                                       capsys):
    """verify-ks reports connected from the pinning alone, and the
    oracle agrees without an elimination: the coinvariants of a
    permutation are read off its orbits."""
    rg = resolve(preset=name)
    calls = []
    eliminate = matrices._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(matrices, "_eliminate", counted)
    assert pi0_fixed(tad_permutation(rg.datum, rg.action.tau)).is_trivial()
    assert calls == []
    monkeypatch.undo()
    assert_tad_connected_by_orbits(rg.datum, rg.action.tau)
    assert main(["verify-ks", "--preset", name]) == 0
    assert "result.tad_connected = true" in capsys.readouterr().out


@settings(max_examples=25, deadline=None)
@given(config=random_twisted_data())
def test_tad_connected_on_random_data(config):
    rg = resolve(config)
    assert_tad_connected_by_orbits(rg.datum, rg.action.tau)


def test_identity_automorphism_certificates():
    gl3 = split_gl(3)
    ident = pinned_automorphism(gl3, IntMatrix.identity(3))
    assert pi0_fixed(tad_permutation(gl3, ident)).is_trivial()
    assert check_center_covers_components(gl3, ident).surjective
    fold = check_fixed_weyl_is_folded(gl3, ident)
    assert fold.match and fold.fixed_order == 6


def test_torus_presets():
    assert kottwitz_group(
        norm_one_ramified_quadratic()).group.describe() == "Z/2"
    assert kottwitz_group(split_torus(2)).group.describe() == "Z^2"
    preset = resolve_preset("induced e=2 f=2 q=3")
    assert preset.torus.induced_params == (2, 2, 3)
    assert kottwitz_group(preset.torus).group.describe() == "Z"


def test_unitary_presets():
    pu2 = resolve_preset("unitary unramified 2")
    act = galois_action(pu2.datum, IntMatrix.identity(2), pu2.sigma)
    assert setting_for_datum(pu2.datum, act).group.describe() == "Z"
    pu3 = resolve_preset("unitary unramified 3")
    act3 = galois_action(pu3.datum, IntMatrix.identity(3), pu3.sigma)
    assert setting_for_datum(pu3.datum, act3).group.describe() == "Z"
    pr3 = resolve_preset("unitary ramified 3")
    tau = pinned_automorphism(pr3.datum, pr3.tau)
    res = restricted_root_data(pr3.datum, tau)
    assert res.non_reduced and "A1" in res.type_name
    actr = galois_action(pr3.datum, pr3.tau, IntMatrix.identity(3))
    assert setting_for_datum(pr3.datum, actr).group.describe() == "Z/2 + Z"


@pytest.mark.parametrize("bad", [
    "induced e=2 f=1", "split XX3", "flip A1", "nonsense",
    "induced e=2 f=1 q=4", "torus", "split SL2 extra junk", "",
])
def test_preset_errors(bad):
    with pytest.raises(ValueError):
        resolve_preset(bad)


def test_preset_q_override():
    assert resolve_preset("split SL2 q=5").q == 5
    assert resolve_preset("split SL2 q=5", q=7).q == 7
    assert resolve_preset("triality D4").q is None


def test_triality_has_order_three():
    preset = resolve_preset("triality D4")
    assert pinned_automorphism(preset.datum, preset.tau).order == 3
