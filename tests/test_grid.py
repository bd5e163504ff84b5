"""The preset grid pinned two ways: the benchmark's hand-derived checks
on its workload commands, and a byte manifest of every command on every
grid preset, of every cap refusal and of every config error message.

`tests/golden/manifest.json` maps each case to the SHA-256 of its exit
code, stdout and stderr; it regenerates with UPDATE_GOLDEN=1, as the
golden files do.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from satake.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# --- the benchmark's workload commands and their checks -----------------------

def _load_benchmark_module(name):
    """Import benchmark/<name>.py by path; `workloads` imports `checks` by
    its bare name, so each is registered under that name."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "benchmark" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("workload", ["setting", "orbits", "structure"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_workload_commands_pass_their_checks(workload, seed, tmp_path):
    _load_benchmark_module("checks")
    workloads = _load_benchmark_module("workloads")
    failures = []
    for command in workloads.build(workload, seed, tmp_path):
        code, out, err = run(command.argv)
        if code != 0:
            failures.append((command.cid, code, err))
            continue
        problems = command.verify(json.loads(out))
        if problems:
            failures.append((command.cid, problems))
    assert not failures


# split families up to rank 8 (SO on both parities), flip A7 and more
# induced tori, each through the benchmark's checks of its commands
WIDE_SPLIT = [("GL", r) for r in range(2, 9)] + [
    ("Sp", 2 * r) for r in range(2, 9)] + [
    ("SO", n) for n in range(5, 18)]
WIDE_INDUCED = ((1, 1, 2), (1, 4, 2), (5, 1, 2), (2, 5, 3), (7, 2, 3),
                (3, 4, 5))


def _wide_commands(checks, rng):
    """(argv, config text or None, check) per command of the wider grid."""
    values = [(Fraction(e, 2), Fraction(a, 8))
              for e in range(-2, 3) for a in range(8)]
    trivial = (Fraction(0), Fraction(0))
    for family, n in WIDE_SPLIT:
        preset = f"split {family}{n}"
        rank = n if family == "GL" else n // 2
        group = f"Z^{rank}"
        exponents = checks.split_modulus_exponents(family, n)
        yield (["modulus", "--preset", preset], None,
               lambda r, g=group, e=exponents:
               checks.check_modulus_split(r, g, e))
        # two drawn values, the rest trivial, so orbits stay small; for
        # type D (SO 2m) one is e(1/2), its own inverse, so the even sign
        # changes reach every sign change and the type-B orbit is the orbit
        chosen = rng.sample(values, 2) + [trivial] * (rank - 2)
        if family == "SO" and n % 2 == 0:
            chosen[1] = (Fraction(0), Fraction(1, 2))
        kind = "GL" if family == "GL" else "BC"
        text = ("values = [" + ",".join(map(checks.config_value, chosen))
                + "]\n")
        yield (["classify", "--preset", preset], text,
               lambda r, g=group, k=kind, v=chosen:
               checks.check_classify_split(r, g, k, v))
    yield (["fold", "--preset", "flip A7"], None,
           lambda r: checks.check_fold(r, checks.folded_flip_a(7)))
    yield (["verify-ks", "--preset", "flip A7"], None,
           lambda r: checks.check_verify_ks(r, checks.weyl_order_bc(4),
                                            *checks.pi0_flip_a(7)))
    for e, f, q in WIDE_INDUCED:
        preset = f"induced e={e} f={f} q={q}"
        coinv = "Z" if f == 1 else f"Z^{f}"
        value = rng.choice(values)
        yield (["kottwitz", "--preset", preset], None,
               lambda r, c=coinv: checks.check_kottwitz(r, "Z", [], 1, c))
        yield (["compact", "--preset", preset], None,
               lambda r: checks.check_compact(r, "Z", 1))
        yield (["cocycle", "--preset", preset],
               f"value = {checks.config_value(value)}\n",
               lambda r, e=e, f=f, v=value: checks.check_cocycle(r, e, f, v))


def test_a_wider_grid_passes_the_benchmark_checks(tmp_path):
    checks = _load_benchmark_module("checks")
    failures = []
    for argv, text, check in _wide_commands(checks, random.Random(7)):
        if text is not None:
            path = tmp_path / "case.cfg"
            path.write_text(text, encoding="utf-8")
            argv = argv + ["--config", str(path)]
        code, out, err = run(argv + ["--format", "json"])
        problems = check(json.loads(out)["result"]) if code == 0 else [err]
        if problems:
            failures.append((shlex.join(argv), problems))
    assert not failures


# --- the byte manifest --------------------------------------------------------

COMMANDS = ("kottwitz", "compact", "cocycle", "classify", "equal", "fold",
            "verify-ks", "modulus", "orbits")

# preset -> (number of torsion generators, free rank) of T/T_0, which
# shapes the `values` the classify and equal cases pass
GRID = {
    "split GL2": (0, 2), "split GL3": (0, 3), "split GL4": (0, 4),
    "split Sp4": (0, 2), "split Sp6": (0, 3), "split SO5": (0, 2),
    "split SO8": (0, 4),
    "flip A2": (1, 1), "flip A3": (0, 2), "flip A4": (1, 2),
    "flip A5": (0, 3), "flip A6": (1, 3), "flip D4": (1, 3),
    "triality D4": (0, 2),
    "unitary ramified 3": (1, 1), "unitary ramified 4": (0, 2),
    "unitary ramified 5": (1, 2), "unitary unramified 3": (0, 1),
    "unitary unramified 4": (0, 2), "unitary unramified 5": (0, 2),
    "norm-one": (1, 0), "torus n=2": (0, 2),
    "induced e=2 f=2 q=3": (0, 1), "induced e=3 f=1 q=5": (0, 1),
    "induced e=4 f=2 q=3": (0, 1),
}
FREE_VALUES = ("(1,0)", "(0,1/3)", "(-1,1/2)", "(1/2,0)")


def _values(torsion, free, shift=0):
    free_values = [FREE_VALUES[(j + shift) % len(FREE_VALUES)]
                   for j in range(free)]
    return "[" + ",".join(["(0,1/2)"] * torsion + free_values) + "]"


def _grid_cases():
    for preset, (torsion, free) in GRID.items():
        config = (f"values = {_values(torsion, free)}\n"
                  f"values2 = {_values(torsion, free, shift=1)}\n")
        for command in COMMANDS:
            argv = [command, "--preset", preset]
            if command in ("classify", "equal"):
                argv += ["--config", config]
            elif command == "orbits":
                argv += ["--torsion", "2"]
            yield argv
    yield ["orbits", "--preset", "flip A3", "--torsion", "3", "--format",
           "json"]
    yield ["cocycle", "--preset", "induced e=2 f=3 q=5", "--config",
           "value = (1/2,3/8)\n"]
    yield ["modulus", "--preset", "split GL3", "--q", "7", "--format", "json"]


# the orbits commands of the benchmark workload, and one larger split case:
# their classes mix denominators, which pins the order of the class list
ORBIT_ORDER_CASES = [
    *[["orbits", "--preset", preset, "--format", "json", "--torsion", str(t)]
      for preset, t in (
          ("split GL3", 6), ("split GL4", 3), ("split Sp6", 4),
          ("unitary ramified 3", 12), ("unitary ramified 4", 8),
          ("unitary unramified 4", 6), ("triality D4", 6),
          ("induced e=2 f=3 q=5", 12))],
    ["orbits", "--preset", "split GL3", "--torsion", "12"],
]


# the refusals of tests/test_config_cli.py, each with its own argv
CAP_CASES = [
    ["orbits", "--preset", "split GL4", "--torsion", "100", "--max-orbit",
     "20000"],
    ["orbits", "--preset", "flip D4", "--torsion", "4", "--max-orbit", "127"],
    ["orbits", "--preset", "split GL4", "--torsion", "100"],
    ["orbits", "--preset", "torus n=2", "--torsion", "8", "--max-orbit", "10"],
    ["classify", "--max-orbit", "1", "--config",
     "preset = split GL2\nvalues = [(1,0),(0,0)]\n"],
    ["verify-ks", "--preset", "flip A9"],
    *[["kottwitz", "--preset", preset] for preset in (
        "split GL99999999999", "split SL1000", "split Sp1000",
        "split SO1001", "split SO1000", "flip A999",
        "unitary ramified 1000", "torus n=100000",
        "induced e=100 f=30 q=7")],
    *[["kottwitz", "--config", text] for text in (
        "rank = 99999999999999999999\n", "rank = 100000\n",
        "rank = 3000\n")],
    ["kottwitz", "--config", "roots = [[2" + ",0" * 256 + "],[-2" + ",0" * 256
     + "]]\ncoroots = [[1" + ",0" * 256 + "],[-1" + ",0" * 256
     + "]]\nsimple = [0]\n"],
]

_A2 = "[[1,-1,0],[0,1,-1],[1,0,-1],[-1,1,0],[0,-1,1],[-1,0,1]]"

# one malformed config per error message of satake/config.py
CONFIG_ERRORS = [
    "rank = 1/0",                                   # bad number
    "rank = x",                                     # unexpected character
    "roots = [",                                    # unexpected end of value
    "roots = [[1]",                                 # missing ']'
    "roots = [[1] [2]]",                            # expected ',' or ']'
    "roots = [[1],]",                               # dangling ','
    "roots = [[[2]]]",                              # nested deeper than 2
    "roots = ]",                                    # unexpected ']'
    "rank = 1 2",                                   # trailing input
    "rank = 1/2",                                   # must be an integer
    "roots = 5",                                    # list of integer vectors
    "roots = [[1],[2,3]]",                          # unequal lengths
    "simple = 3",                                   # list of integers
    "value = (1)",                                  # a pair
    "values = 3",                                   # list of pairs
    "rank = 1\ntau = [[1,2]]",                      # matrix must be square
    "rank = 2\ntau = (1 2) x",                      # expected '('
    "rank = 2\ntau = (1 2",                         # unclosed cycle
    "rank = 2\ntau = (a b)",                        # entries must be integers
    "rank = 2\ntau = (1 1)",                        # bad cycle
    "rank = 3\ntau = (1 2)(2 3)",                   # not disjoint
    "rank = 2\ntau = swap",                         # id, a matrix, or cycles
    "just words",                                   # expected 'key = value'
    "bogus = 1",                                    # unknown key
    "rank = 1\nrank = 2",                           # duplicate key
    "rank =",                                       # empty value
    "rank = 1\ntau = [[1,0],[0,1]]",                # matrix size vs rank
    "rank = 1\ntau = (1 2)",                        # permuted index vs rank
    "preset = split GL2\nrank = 2",                 # preset with structure
    "preset = bogus",                               # unknown preset
    "preset = split GL2\nq = 1",                    # residue cardinality
    "preset = norm-one\ntau = [[1]]",               # torus preset override
    "roots = [[2]]\nsimple = [0]",                  # roots without coroots
    "roots = [[2],[-2]]\ncoroots = [[1],[-1]]",     # no simple key
    "roots = []\ncoroots = []\nsimple = []",        # empty roots
    "roots = [[2]]\ncoroots = [[1,0]]\nsimple = [0]",   # vector lengths
    "rank = 2\nroots = [[2]]\ncoroots = [[1]]\nsimple = [0]",   # rank
    "roots = [[2],[-2]]\ncoroots = [[1]]\nsimple = [0]",    # counts
    "roots = [[2],[-2]]\ncoroots = [[1],[-1]]\nsimple = [5]",   # range
    "roots = [[2]]\ncoroots = [[1]]\nsimple = [0]",     # invalid datum
    f"roots = {_A2}\ncoroots = {_A2}\nsimple = [0,1,2]",    # dependent
    "name = lonely",                                # torus needs rank
    "rank = 2\nsimple = [0]",                       # torus with simple
    "rank = -1",                                    # negative rank
    "rank = 1\ntau = [[2]]",                        # not an automorphism
    "roots = [[2,0],[-2,0]]\ncoroots = [[1,0],[-1,0]]\nsimple = [0]\n"
    "tau = [[0,0],[1,0]]",                          # singular datum action
    "preset = split GL2\ntau = (1 2)",              # not a pinned action
]


def _cases():
    yield from _grid_cases()
    yield from ORBIT_ORDER_CASES
    yield from CAP_CASES
    for text in CONFIG_ERRORS:
        yield ["kottwitz", "--config", text + "\n"]


def _digest(argv, tmp_path):
    """SHA-256 of (exit code, stdout, stderr); the text after --config is
    written to a file and its path passed in its place."""
    argv = list(argv)
    if "--config" in argv:
        i = argv.index("--config") + 1
        path = tmp_path / "case.cfg"
        path.write_text(argv[i], encoding="utf-8")
        argv[i] = str(path)
    blob = json.dumps(run(argv)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def test_manifest_pins_every_case(tmp_path):
    got = {shlex.join(argv): _digest(argv, tmp_path) for argv in _cases()}
    if os.environ.get("UPDATE_GOLDEN") == "1":
        MANIFEST.write_text(json.dumps(got, indent=1) + "\n",
                            encoding="utf-8")
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    changed = [key for key in got if got[key] != want[key]]
    assert not changed
