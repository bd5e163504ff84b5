"""Component group certificates and the built-in presets."""

import pytest

from satake.components import (
    check_center_covers_components, check_fixed_weyl_is_folded,
    check_tad_connected, pi0_fixed,
)
from satake.kottwitz import kottwitz_group, setting_for_datum
from satake.matrices import IntMatrix
from satake.presets import (
    adjoint_d4, norm_one_ramified_quadratic, resolve_preset, split_gl,
    split_pgl, split_sl, split_so, split_sp, split_torus,
)
from satake.rootdata import (
    galois_action, pinned_automorphism, restricted_root_data, validate,
    weyl_group,
)

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
    assert pi0_fixed(IntMatrix([[-1]])).group.describe() == "Z/2"
    assert pi0_fixed(IntMatrix([[0, 1], [1, 0]])).is_connected()
    assert pi0_fixed(IntMatrix.identity(2)).is_connected()
    block = IntMatrix([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert pi0_fixed(block).group.describe() == "Z/2"


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
    assert check_tad_connected(preset.datum, tau).is_connected()
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


def test_identity_automorphism_certificates():
    gl3 = split_gl(3)
    ident = pinned_automorphism(gl3, IntMatrix.identity(3))
    assert check_tad_connected(gl3, ident).is_connected()
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
