"""Show that every output check rejects corrupted reports.

`rejections(commands, reports)` corrupts each real report in the ways its
command declares (swapped values, a value moved by q^1/2, an orbit size or
a count off by one, a flipped boolean, a wrong group, a reversed chi) and
returns the corruptions a check failed to reject.  run.py applies it to
the first round of every run; run standalone it measures nothing and
prints one line per command:

    python3 benchmark/selftest.py [--seed N]
"""

import copy
import json
import sys
from fractions import Fraction

import checks as C

VALUE_KEYS = ("values", "canonical", "character")
COUNT_KEYS = ("character_count", "fixed_order", "restricted_root_count",
              "free_rank")
FLAG_KEYS = ("equal", "round_trip", "fixed_equals_folded", "non_reduced")


def _value_list(result):
    for key in VALUE_KEYS:
        if key in result:
            return result[key]
    if result.get("classes"):
        return result["classes"][0]["values"]
    return None


def corrupt(result, kind):
    """A corrupted copy of `result`, or None when `kind` does not apply."""
    r = copy.deepcopy(result)
    values = _value_list(r)
    if kind == "bump" and values:
        values[0] = C.render_value(C.times(C.parse_value(values[0]),
                                           (Fraction(1, 2), Fraction(0))))
    elif kind == "swap" and values:
        for j in range(1, len(values)):
            if values[j] != values[0]:
                values[0], values[j] = values[j], values[0]
                break
    elif kind == "size":
        if "orbit_size" in r:
            r["orbit_size"] += 1
        elif r.get("classes"):
            r["classes"][0]["orbit_size"] += 1
    elif kind == "count":
        key = next((k for k in COUNT_KEYS if k in r), None)
        if key is not None:
            r[key] += 1
    elif kind == "flip":
        key = next((k for k in FLAG_KEYS if k in r), None)
        if key is not None:
            r[key] = not r[key]
    elif kind == "group" and "group" in r:
        r["group"] += " + Z"
    elif kind == "chi" and "chi" in r:
        r["chi"].reverse()
    return None if r == result else r


def rejections(commands, reports):
    """(tried, accepted): corruptions applied, and those a check let pass.
    `reports` maps command id to the parsed report of a passing run."""
    tried, accepted = 0, []
    for cmd in commands:
        report = reports.get(cmd.cid)
        if report is None:
            continue
        for kind in cmd.corruptions:
            bad = corrupt(report["result"], kind)
            if bad is None:
                continue
            tried += 1
            if not cmd.check(bad):
                accepted.append(f"{cmd.cid}: {kind}")
    return tried, accepted


def main(argv):
    import run
    import workloads
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 1
    ok = True
    for name in workloads.WORKLOADS:
        commands = workloads.build(name, seed,
                                   run.RESULTS / "configs" / f"{name}-{seed}")
        out = run.spawn(commands)
        reports, failed = run.evaluate(commands, out)
        tried, accepted = rejections(commands, reports)
        for cmd in commands:
            kinds = [k for k in cmd.corruptions
                     if cmd.cid in reports
                     and corrupt(reports[cmd.cid]["result"], k) is not None]
            missed = [k for k in kinds if f"{cmd.cid}: {k}" in accepted]
            print(f"{name:9s} {cmd.cid:40s} rejects {','.join(kinds) or '-':28s}"
                  f" {'MISSED ' + ','.join(missed) if missed else ''}")
        print(f"{name}: {len(commands)} commands, {len(failed)} failed,"
              f" {tried} corruptions tried, {len(accepted)} accepted")
        ok = ok and not failed and not accepted and tried > 0
    print(json.dumps({"selftest_passed": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
