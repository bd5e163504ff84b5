"""The benchmark's three workloads.

A workload is a fixed list of CLI commands; which groups appear never
depends on the seed.  The seed draws the parameter values written to the
config files of `classify`, `equal` and `cocycle`, the `--q` echoed by
datum presets, and the order of commands within each round, so the cost
of a round does not depend on it.  Every command carries its independent
check from `checks`.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

import checks as C


@dataclass
class Command:
    cid: str
    argv: list
    check: object                      # result dict -> list of problems
    q: int = None
    group_key: str = ""                # the group a cross-command cache would key on
    corruptions: tuple = ()            # corruptions the self-test expects rejected

    def verify(self, report):
        """Problems with one parsed report: envelope, then the check."""
        problems = []
        if report.get("command") != self.argv[0]:
            problems.append(f"command echo {report.get('command')!r}")
        if report.get("exact") is not True:
            problems.append("exact flag missing")
        if self.q is not None and report.get("input", {}).get("q") != self.q:
            problems.append(f"q echo {report.get('input', {}).get('q')!r}")
        try:
            problems += self.check(report["result"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed result: {exc!r}")
        return problems


# Twisted presets: T/T_0 and |W^Gamma| derived by hand (see README.md).
# (group, torsion generators, free |q-exponents| of delta^1/2, |W^Gamma|)
TWISTED = {
    "unitary ramified 5": ("Z/2 + Z^2", [2], [1, 2], C.weyl_order_bc(2)),
    "unitary unramified 5": ("Z^2", [], [2, 4], C.weyl_order_bc(2)),
    "flip A5": ("Z^3", [], [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)],
                C.weyl_order_bc(3)),
    "flip D4": ("Z/2 + Z^3", [2], [1, 2, 3], C.weyl_order_bc(3)),
    "triality D4": ("Z^2", [], [3, 5], 12),
    "unitary ramified 3": ("Z/2 + Z", [2], [1], C.weyl_order_bc(1)),
    "unitary ramified 4": ("Z^2", [], [Fraction(1, 2), Fraction(3, 2)],
                           C.weyl_order_bc(2)),
    "unitary unramified 4": ("Z^2", [], [1, 3], C.weyl_order_bc(2)),
}

# Presets that build the same group under another name.
SAME_GROUP = {"unitary ramified 4": "flip A3"}

Q_CHOICES = (3, 5, 7, 11, 13)
EXPONENTS = tuple(Fraction(k, 2) for k in range(-2, 3))
ARGUMENTS = tuple(Fraction(k, 8) for k in range(8))

VALUE_CORRUPTIONS = ("bump", "group")
SWAP = ("swap",)


class _CommandList:
    def __init__(self, seed, cfg_dir):
        self.rng = random.Random(seed)
        self.cfg_dir = cfg_dir
        self.commands = []

    def config(self, lines):
        path = self.cfg_dir / f"{len(self.commands)}.cfg"
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    def add(self, cid, cmd, preset, check, corruptions, cfg=None, extra=(),
            q=True):
        argv = [cmd, "--preset", preset, "--format", "json", *extra]
        qv = None
        if q:
            qv = self.rng.choice(Q_CHOICES)
            argv += ["--q", str(qv)]
        if cfg is not None:
            argv += ["--config", cfg]
        self.commands.append(Command(cid, argv, check, qv,
                                     SAME_GROUP.get(preset, preset),
                                     tuple(corruptions)))

    # -- seeded parameter values --

    def split_values(self, n):
        pool = set()
        while len(pool) < 3:
            pool.add((self.rng.choice(EXPONENTS), self.rng.choice(ARGUMENTS)))
        pool = sorted(pool)
        return [self.rng.choice(pool) for _ in range(n)]

    def unitary_values(self, torsion, free):
        """Unitary character of order 8: Z/d generators take d-th roots of
        unity, free ones eighth roots with at least one primitive."""
        vals = [(Fraction(0), Fraction(self.rng.randrange(d), d))
                for d in torsion]
        free_vals = [(Fraction(0), self.rng.choice(ARGUMENTS))
                     for _ in range(free)]
        k = self.rng.randrange(free)
        free_vals[k] = (Fraction(0), Fraction(self.rng.choice((1, 3, 5, 7)), 8))
        return vals + free_vals

    def permute(self, values):
        """A seeded element of W = S_n applied to the values of GL_n."""
        out = list(values)
        self.rng.shuffle(out)
        return out

    def perturb(self, values, canon):
        """Change one value by q^(1/2) until the classes differ."""
        while True:
            out = list(values)
            i = self.rng.randrange(len(out))
            out[i] = C.times(out[i], (Fraction(self.rng.choice((-1, 1)), 2),
                                      Fraction(0)))
            if canon(out)[0] != canon(values)[0]:
                return out


def _values_line(key, values):
    return f"{key} = [" + ",".join(C.config_value(v) for v in values) + "]"


# --- setting ------------------------------------------------------------------

# About five seconds a round, so that a 30-second run holds several rounds
# and per-command medians shrug off one slow round.
SPLIT_SETTING = (
    ("GL", 4, ("modulus", "classify", "equal")),
    ("GL", 5, ("modulus", "classify", "equal")),
    ("SL", 5, ("modulus",)),
    ("PGL", 5, ("modulus",)),
    ("Sp", 8, ("classify",)),
    ("SO", 8, ("modulus",)),
)
TWISTED_SETTING = (
    ("unitary ramified 5", ("modulus", "classify", "equal")),
    ("unitary unramified 5", ("modulus", "classify", "equal")),
    ("flip A5", ("classify",)),
    ("flip D4", ("modulus", "classify", "equal")),
    ("triality D4", ("modulus", "classify", "equal")),
)


def _rank(family, n):
    return n if family == "GL" else (n - 1 if family in ("SL", "PGL") else n // 2)


def _setting(b):
    equal_true = True
    for family, n, cmds in SPLIT_SETTING:
        preset = f"split {family}{n}"
        rank = _rank(family, n)
        group = f"Z^{rank}"
        kind = "GL" if family == "GL" else "BC"
        canon = C.canonical_gl if kind == "GL" else C.canonical_bc
        for cmd in cmds:
            if cmd == "modulus":
                exps = C.split_modulus_exponents(family, n)
                b.add(f"modulus {preset}", cmd, preset,
                      lambda r, g=group, e=exps: C.check_modulus_split(r, g, e),
                      VALUE_CORRUPTIONS + SWAP)
                continue
            values = b.split_values(rank)
            lines = [_values_line("values", values)]
            if cmd == "classify":
                check = (lambda r, g=group, k=kind, v=values:
                         C.check_classify_split(r, g, k, v))
                corr = VALUE_CORRUPTIONS + SWAP + ("size",)
            else:
                other = (b.permute(values) if equal_true
                         else b.perturb(values, canon))
                lines.append(_values_line("values2", other))
                expected = canon(values)[0] == canon(other)[0]
                check = (lambda r, g=group, x=expected:
                         C.check_equal(r, g, x))
                corr = ("flip", "group")
                equal_true = not equal_true
            b.add(f"{cmd} {preset}", cmd, preset, check, corr,
                  cfg=b.config(lines))
    for preset, cmds in TWISTED_SETTING:
        group, torsion, abs_exps, worder = TWISTED[preset]
        free = len(abs_exps)
        for cmd in cmds:
            if cmd == "modulus":
                b.add(f"modulus {preset}", cmd, preset,
                      lambda r, g=group, t=len(torsion), a=abs_exps:
                      C.check_modulus_twisted(r, g, t, a),
                      VALUE_CORRUPTIONS)
                continue
            values = b.unitary_values(torsion, free)
            lines = [_values_line("values", values)]
            if cmd == "classify":
                check = (lambda r, g=group, w=worder, v=values:
                         C.check_classify_twisted(r, g, w, v))
                corr = VALUE_CORRUPTIONS + ("size",)
            else:
                # w_0 = -1 lies in W^Gamma, so inversion is a W-translate;
                # a non-unitary perturbation leaves the orbit.
                if equal_true:
                    other = [C.inverse(v) for v in values]
                else:
                    other = values[:-1] + [C.times(values[-1],
                                                   (Fraction(1, 2), 0))]
                lines.append(_values_line("values2", other))
                check = (lambda r, g=group, x=equal_true:
                         C.check_equal(r, g, x))
                corr = ("flip", "group")
                equal_true = not equal_true
            b.add(f"{cmd} {preset}", cmd, preset, check, corr,
                  cfg=b.config(lines))


# --- orbits -------------------------------------------------------------------

ORBITS = (
    ("split GL3", 6, ("GL", 3)),
    ("split GL4", 3, ("GL", 4)),
    ("split Sp6", 4, ("Sp", 3)),
    ("unitary ramified 3", 12, None),
    ("unitary ramified 4", 8, None),
    ("unitary unramified 4", 6, None),
    ("triality D4", 6, None),
    ("induced e=2 f=3 q=5", 12, None),
)

SPLIT_WEYL = {"GL": factorial, "Sp": C.weyl_order_bc}


def _orbits(b):
    for preset, t, split in ORBITS:
        if split is not None:
            family, n = split
            group, torsion, worder = f"Z^{n}", [], SPLIT_WEYL[family](n)
            free = n
        elif preset.startswith("induced"):
            group, torsion, worder, free = "Z", [], 1, 1
        else:
            group, torsion, abs_exps, worder = TWISTED[preset]
            free = len(abs_exps)
        sizes = [gcd(d, t) for d in torsion] + [t] * free
        b.add(f"orbits {preset} t={t}", "orbits", preset,
              lambda r, g=group, t=t, s=sizes, w=worder, sp=split,
              tw=preset.startswith("induced"):
              C.check_orbits(r, g, t, s, w, split=sp, trivial_weyl=tw),
              ("bump", "size", "count", "group"),
              extra=["--torsion", str(t)], q=not preset.startswith("induced"))


# --- structure ----------------------------------------------------------------

INDUCED = ((2, 3, 5), (4, 4, 3), (3, 5, 2), (6, 6, 5), (8, 8, 3))
FOLD = (
    ("flip A4", C.folded_flip_a(4)),
    ("flip A5", C.folded_flip_a(5)),
    ("flip A6", C.folded_flip_a(6)),
    ("flip A7", C.folded_flip_a(7)),
    ("flip D4", ("B", 3, False, 18, 18, 3)),
    ("triality D4", ("G", 2, False, 12, 12, 2)),
    ("unitary ramified 4", C.folded_flip_a(3)),
    ("unitary unramified 4", ("A", 3, False, 12, 12, 4)),
)
VERIFY = (
    ("flip A3", C.weyl_order_bc(2), *C.pi0_flip_a(3)),
    ("flip A4", C.weyl_order_bc(2), *C.pi0_flip_a(4)),
    ("flip A5", C.weyl_order_bc(3), *C.pi0_flip_a(5)),
    ("flip D4", C.weyl_order_bc(3), "Z/2", "Z/2"),
    ("triality D4", 12, "0", "0"),
    ("unitary ramified 4", C.weyl_order_bc(2), *C.pi0_flip_a(3)),
    ("unitary unramified 4", 24, "0", "0"),
)


def _structure(b):
    for e, f, q in INDUCED:
        preset = f"induced e={e} f={f} q={q}"
        coinv = "Z" if f == 1 else f"Z^{f}"
        b.add(f"kottwitz {preset}", "kottwitz", preset,
              lambda r, c=coinv: C.check_kottwitz(r, "Z", [], 1, c),
              ("count", "group"), q=False)
        b.add(f"compact {preset}", "compact", preset,
              lambda r: C.check_compact(r, "Z", 1), ("count", "group"),
              q=False)
        value = (b.rng.choice(EXPONENTS), b.rng.choice(ARGUMENTS))
        cfg = b.config([f"value = {C.config_value(value)}"])
        b.add(f"cocycle {preset}", "cocycle", preset,
              lambda r, e=e, f=f, v=value: C.check_cocycle(r, e, f, v),
              ("bump", "flip", "chi"), cfg=cfg, q=False)
    b.add("kottwitz norm-one", "kottwitz", "norm-one",
          lambda r: C.check_kottwitz(r, "Z/2", [2], 0, "Z/2"),
          ("count", "group"), q=False)
    b.add("compact norm-one", "compact", "norm-one",
          lambda r: C.check_compact(r, "0", 0), ("count", "group"), q=False)
    for preset, expect in FOLD:
        b.add(f"fold {preset}", "fold", preset,
              lambda r, x=expect: C.check_fold(r, x), ("count", "flip"))
    for preset, worder, pt, pc in VERIFY:
        b.add(f"verify-ks {preset}", "verify-ks", preset,
              lambda r, w=worder, pt=pt, pc=pc: C.check_verify_ks(r, w, pt, pc),
              ("count", "flip"))


WORKLOADS = {"setting": _setting, "orbits": _orbits, "structure": _structure}


def build(name, seed, cfg_dir):
    """The workload's commands, with config files written under cfg_dir."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    b = _CommandList(seed, cfg_dir)
    WORKLOADS[name](b)
    return b.commands


def repeat_share(order):
    """Share of commands whose group already appeared earlier in the round:
    the most a cache shared across commands could serve."""
    seen, repeats = set(), 0
    for cmd in order:
        repeats += cmd.group_key in seen
        seen.add(cmd.group_key)
    return repeats / len(order)


def round_orders(commands, seed):
    """Endless seeded sequence of command orders, one per round."""
    rng = random.Random(f"order-{seed}")
    while True:
        order = list(commands)
        rng.shuffle(order)
        yield order
