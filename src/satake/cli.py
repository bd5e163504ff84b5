"""Command line interface.

Commands
--------
kottwitz    structure of T/T_0 for the configured group
compact     structure of the maximal compact quotient T/T_c
cocycle     dual-point data of an induced-torus character, with round trip
classify    canonical representative and orbit size of a parameter
equal       whether two parameters lie in one relative Weyl orbit
fold        restricted root system of the configured automorphism
verify-ks   connectedness, covering and folding checks
modulus     square-root modulus values at the T/T_0 generators
orbits      all parameter classes of bounded torsion

Exit status: 0 success, 1 bad input or configuration, 2 enumeration cap
exceeded.
"""

import argparse
import sys

from .abelian import GroupCharacter, character_classes, character_count
from .circle import ExactCircle
from .components import check_center_covers_components, \
    check_fixed_weyl_is_folded
from .config import ConfigError, GroupConfig, parse_config, resolve
from .kottwitz import SatakeParameter, character_from_dual_point, \
    classify, induced_character, induced_torus_cocycle, kottwitz_group, \
    maximal_compact_quotient, modulus_character, parameter_from_character, \
    parameters_equal
from .report import build_report, render_report
from .rootdata import CapExceeded, DEFAULT_WEYL_CAP, restricted_root_data


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors raise instead of exiting, so the
    process exit code stays under this module's control."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="satake",
                     description="Exact classification of spherical "
                                 "representations by their parameters.")
    parser.add_argument("command", choices=sorted(_COMMANDS),
                        help="what to compute")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="configuration file (key = value lines)")
    parser.add_argument("--preset", default=None, metavar="NAME",
                        help="built-in group, e.g. 'split GL2' or 'norm-one'")
    parser.add_argument("--q", type=int, default=None,
                        help="residue cardinality override")
    parser.add_argument("--torsion", type=int, default=None, metavar="N",
                        help="torsion bound for the orbits command")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    parser.add_argument("--max-orbit", type=int, default=DEFAULT_WEYL_CAP,
                        dest="max_orbit", metavar="N",
                        help="cap on the orbit size and on the number of"
                             " characters orbits enumerates, and on the Weyl"
                             " group walk of verify-ks (default %(default)s)")
    return parser


def _load(args):
    config = GroupConfig()
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
    if args.preset is None and config.preset is None and args.config is None:
        raise ConfigError("nothing to do: pass --config or --preset")
    return resolve(config, preset=args.preset, q=args.q)


def _inputs(rg):
    inputs = {"name": rg.name}
    if rg.q is not None:
        inputs["q"] = rg.q
    return inputs


def _cmd_kottwitz(rg, args):
    kg = kottwitz_group(rg.torus)
    return {
        "group": kg.group.describe(),
        "invariant_factors": list(kg.group.invariant_factors),
        "free_rank": kg.group.free_rank,
        "coinvariants": kg.coinvariants.describe(),
    }


def _cmd_compact(rg, args):
    quo = maximal_compact_quotient(rg.torus)
    return {"group": quo.describe(), "free_rank": quo.free_rank}


def _cmd_cocycle(rg, args):
    torus = rg.torus
    if torus is None or torus.induced_params is None:
        raise ConfigError("cocycle needs an induced torus"
                          " (preset 'induced e=.. f=..' with q)")
    fval = rg.value if rg.value is not None else ExactCircle(1)
    kg = kottwitz_group(torus)
    chi, c = induced_torus_cocycle(torus, fval)
    recovered = character_from_dual_point(kg, chi, c)
    expected = induced_character(kg, fval)
    return {
        "chi": list(chi),
        "value": c.render(),
        "character": recovered.render(),
        "round_trip": recovered == expected,
    }


def _character(setting, values, what):
    if values is None:
        raise ConfigError(f"this command needs the `{what}` config key")
    return GroupCharacter(setting.group, values)


def _cmd_classify(rg, args):
    setting = rg.setting()
    character = _character(setting, rg.values, "values")
    cls = classify(setting,
                   parameter_from_character(setting.kottwitz, character),
                   max_orbit=args.max_orbit)
    return {
        "group": setting.group.describe(),
        "canonical": cls.representative.character.render(),
        "orbit_size": cls.orbit_size,
    }


def _cmd_equal(rg, args):
    setting = rg.setting()
    c1 = _character(setting, rg.values, "values")
    c2 = _character(setting, rg.values2, "values2")
    same = parameters_equal(setting, SatakeParameter(c1), SatakeParameter(c2),
                            max_orbit=args.max_orbit)
    return {"group": setting.group.describe(), "equal": same}


def _cmd_fold(rg, args):
    if rg.datum is None:
        raise ConfigError("fold needs a root datum, not a bare torus")
    rrd = restricted_root_data(rg.datum, rg.action.tau)
    return {
        "type": rrd.type_name,
        "non_reduced": rrd.non_reduced,
        "invariant_rank": rrd.projection.nrows,
        "restricted_root_count": len(rrd.datum.roots),
        "reduced_root_count": len(rrd.reduced_datum.roots),
    }


def _cmd_verify_ks(rg, args):
    if rg.datum is None:
        raise ConfigError("verify-ks needs a root datum, not a bare torus")
    tau = rg.action.tau
    cover = check_center_covers_components(rg.datum, tau)
    foldc = check_fixed_weyl_is_folded(rg.datum, tau, cap=args.max_orbit)
    return {
        # `resolve` certified tau as pinned, so it permutes the simple
        # coroots, a basis of the adjoint-side torus's character
        # lattice: the coinvariants of a permutation lattice are
        # Z^{#orbits}, torsion-free, and T_ad^tau is connected
        "tad_connected": True,
        "center_covers": cover.surjective,
        "fixed_equals_folded": foldc.match,
        "fixed_order": foldc.fixed_order,
        "folded_order": foldc.folded_order,
        "pi0_torus": cover.pi0_torus.describe(),
        "pi0_center": cover.pi0_center.describe(),
    }


def _cmd_modulus(rg, args):
    setting = rg.setting()
    return {"group": setting.group.describe(),
            "values": modulus_character(setting).render()}


def _cmd_orbits(rg, args):
    if args.torsion is None:
        raise ConfigError("orbits needs --torsion N")
    if args.torsion < 1:
        raise ConfigError("--torsion must be positive")
    setting = rg.setting()
    count = character_count(setting.group, args.torsion)
    if count > args.max_orbit:
        raise CapExceeded(
            f"character enumeration: {count} characters of "
            f"{setting.group.describe()} with torsion {args.torsion}, "
            f"over the cap {args.max_orbit}")
    # every orbit lies among the characters counted, so within the cap
    listed = [{"values": values, "orbit_size": size} for values, size in
              character_classes(setting.group, args.torsion,
                                setting.orbit_moves)]
    return {
        "group": setting.group.describe(),
        "torsion": args.torsion,
        "character_count": count,
        "class_count": len(listed),
        "classes": listed,
    }


_COMMANDS = {
    "kottwitz": _cmd_kottwitz,
    "compact": _cmd_compact,
    "cocycle": _cmd_cocycle,
    "classify": _cmd_classify,
    "equal": _cmd_equal,
    "fold": _cmd_fold,
    "verify-ks": _cmd_verify_ks,
    "modulus": _cmd_modulus,
    "orbits": _cmd_orbits,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_orbit < 1:
            raise ConfigError("--max-orbit must be positive")
        rg = _load(args)
        report = build_report(args.command, _inputs(rg),
                              _COMMANDS[args.command](rg, args))
        sys.stdout.write(render_report(report, args.format))
        return 0
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
