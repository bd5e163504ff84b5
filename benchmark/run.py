"""The satake benchmark.

    python3 benchmark/run.py --workload setting|orbits|structure|all
                             [--seed N] [--seconds S] [--trace 0|1]

Drives the program only through `satake.cli.main(argv)`.  Each round runs
the workload's commands once, in a seeded order, in a fresh interpreter
(benchmark/worker.py); rounds run one after another until --seconds have
passed, always whole.  Every command's output is checked against an
independent calculation (checks.py), and every check is shown to reject
corrupted copies of the first round's reports (selftest.py).

Times are speed-normalised: t * T_REF_NOMINAL / t_ref, where t_ref is the
reference kernel (refkernel.py) timed just before and after the call.

--trace 0 reports the end-to-end metrics.  --trace 1 runs pairs of rounds,
one untraced and one with the per-layer wrappers of layertrace.py, and
reports the per-layer metrics.  Human-readable tables come first; the last
line of standard output is one JSON object.  Results, and the spans of the
first traced round, are written to benchmark/results/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import refkernel
import selftest
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_SPAWNS = 5          # set-up-only interpreters per run, besides rounds
WORKER_TIMEOUT = 150      # seconds for one round
NOMINAL = refkernel.T_REF_NOMINAL


class BenchError(RuntimeError):
    pass


def spawn(commands, trace=False, spans_path=None):
    """Run one round in a fresh interpreter; adds its normalised set-up time."""
    request = json.dumps({"commands": [[c.cid, c.argv] for c in commands],
                          "trace": trace,
                          "spans_path": str(spans_path) if spans_path else None})
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                              input=request, capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a round took over {WORKER_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout)
    out["setup_raw"] = out["ready"] - t_spawn
    out["setup"] = out["setup_raw"] * NOMINAL / out["setup_ref"]
    return out


def evaluate(commands, out):
    """(reports of passing commands by id, [(id, problems)] of failures)."""
    by_id = {c.cid: c for c in commands}
    reports, failed = {}, []
    for item in out["commands"]:
        cmd = by_id[item["cid"]]
        if item["rc"] != 0:
            problems = [f"exit code {item['rc']}: {item['stderr'][-300:]}"]
        else:
            try:
                report = json.loads(item["stdout"])
            except ValueError:
                report = None
            problems = (cmd.verify(report) if isinstance(report, dict)
                        else ["stdout is not a JSON report"])
        if problems:
            failed.append((cmd.cid, problems))
        else:
            reports[cmd.cid] = report
    return reports, failed


def _norm(item):
    return item["wall"] * NOMINAL / item["ref"]


def _median_by_command(rounds, key):
    samples = {}
    for r in rounds:
        for item in r["commands"]:
            samples.setdefault(item["cid"], []).append(key(item))
    return {cid: statistics.median(v) for cid, v in samples.items()}


def end_to_end(commands, rounds, setups):
    med = _median_by_command(rounds, _norm)
    raw = _median_by_command(rounds, lambda item: item["wall"])
    n = len(commands)

    def geomean_ms(values):
        return 1000 * math.exp(sum(math.log(v) for v in values) / len(values))

    metrics = {
        "commands_per_s": (n / sum(med.values()), "1/s",
                           n / sum(raw.values())),
        "latency_geomean_ms": (geomean_ms(med.values()), "ms",
                               geomean_ms(raw.values())),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in rounds) / 1024, "MB", None),
        "setup_s": (statistics.median(s["setup"] for s in setups), "s",
                    statistics.median(s["setup_raw"] for s in setups)),
    }
    return metrics, med, raw


def per_layer(pairs):
    """Per-layer metrics from (untraced, traced) round pairs: counts of the
    first traced round, medians over traced rounds of normalised seconds."""
    traced = [t for _, t in pairs]
    counts = {}
    for item in traced[0]["commands"]:
        for k, v in item["trace"]["counts"].items():
            counts[k] = counts.get(k, 0) + v
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit, None)

    self_rounds = {layer: [] for layer in layertrace.SPAN_LAYERS}
    coverage = []
    for t in traced:
        for layer in self_rounds:
            self_rounds[layer].append(sum(
                item["trace"]["self_s"][layer] * NOMINAL / item["ref"]
                for item in t["commands"]))
        coverage.append(sum(i["trace"]["covered"] for i in t["commands"])
                        / sum(i["wall"] for i in t["commands"]))
    self_s = {layer: statistics.median(v) for layer, v in self_rounds.items()}
    overhead = statistics.median(
        sum(map(_norm, t["commands"])) - sum(map(_norm, u["commands"]))
        for u, t in pairs)

    put("cli.self_s", self_s["cli"], "s")
    put("config.resolve_calls", counts["config.resolve_calls"], "count")
    put("config.self_s", self_s["config"], "s")
    put("rootdata.weyl_elements", counts["rootdata.weyl_elements"], "count")
    put("rootdata.self_s", self_s["rootdata"], "s")
    for name in ("matmul_calls", "smith_calls"):
        put(f"matrices.{name}", counts[f"matrices.{name}"], "count")
    put("matrices.self_s", self_s["matrices"], "s")
    for name in ("subgroup_coordinates_calls", "precompose_calls", "characters"):
        put(f"abelian.{name}", counts[f"abelian.{name}"], "count")
    put("abelian.self_s", self_s["abelian"], "s")
    put("circle.ops", counts["circle.ops"], "count")
    for name in ("settings", "descend_calls", "classify_calls"):
        put(f"kottwitz.{name}", counts[f"kottwitz.{name}"], "count")
    put("kottwitz.self_s", self_s["kottwitz"], "s")
    weyl = counts["rootdata.weyl_elements"]
    put("kottwitz.weyl_kept_ratio",
        counts["kottwitz.descend_calls"] / weyl if weyl else 0.0, "ratio")
    calls = counts["kottwitz.classify_calls"]
    put("kottwitz.class_yield",
        counts["kottwitz.classes"] / calls if calls else 0.0, "ratio")
    put("components.self_s", self_s["components"], "s")
    put("report.self_s", self_s["report"], "s")
    put("trace.coverage", statistics.median(coverage), "ratio")
    put("trace.overhead_s", overhead, "s")
    return metrics


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (summary dict, printable lines)."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    commands = workloads.build(workload, seed,
                               RESULTS / "configs" / f"{workload}-{seed}")
    if len({c.cid for c in commands}) != len(commands):
        raise BenchError("command ids are not unique")
    spawn([])                      # compiles byte code; not measured
    setups = [spawn([]) for _ in range(SETUP_SPAWNS)]
    orders = workloads.round_orders(commands, seed)
    spans_path = RESULTS / f"spans-{workload}.jsonl.gz"
    rounds, pairs = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        order = next(orders)
        plain = spawn(order)
        rounds.append(plain)
        if trace:
            pairs.append((plain, spawn(order, trace=True,
                                       spans_path=None if pairs else spans_path)))
            rounds.append(pairs[-1][1])
        last = time.monotonic() - t0
        if time.monotonic() - start + last / 2 >= seconds:
            break

    by_id = {c.cid: c for c in commands}
    attempted, failures, first_reports = 0, [], None
    for r in rounds:
        reports, failed = evaluate(commands, r)
        attempted += len(r["commands"])
        failures += failed
        if first_reports is None:
            first_reports = reports
    tried, accepted = selftest.rejections(commands, first_reports)
    correct = tried > 0 and not accepted

    share = statistics.mean(workloads.repeat_share(
        [by_id[i["cid"]] for i in r["commands"]]) for r in rounds)
    lines = [f"workload {workload}  seed {seed}  rounds {len(rounds)}"
             f"  commands/round {len(commands)}  attempted {attempted}"
             f"  failed {len(failures)}  self-test {tried - len(accepted)}/"
             f"{tried} corruptions rejected  repeated-group share {share:.3f}"]
    lines += [f"  FAILED {cid}: {'; '.join(p)[:300]}" for cid, p in failures[:20]]
    lines += [f"  CHECK MISSED {a}" for a in accepted]
    detail = {"workload": workload, "seed": seed, "trace": trace,
              "rounds": len(rounds), "attempted": attempted,
              "repeated_group_share": share,
              "failed": [[c, p] for c, p in failures],
              "selftest": {"tried": tried, "accepted": accepted},
              "t_ref_nominal": NOMINAL,
              "t_ref_median": statistics.median(
                  i["ref"] for r in rounds for i in r["commands"])}
    if trace:
        metrics = per_layer(pairs)
        lines.append(f"  {'per-layer metric':34s} {'value':>14s}  unit")
        lines += [f"  {k:34s} {v:14.6g}  {u}" for k, (v, u, _) in
                  metrics.items()]
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, med, raw = end_to_end(commands, rounds, setups + rounds)
        lines.append(f"  {'end-to-end metric':22s} {'normalised':>12s}"
                     f" {'raw':>12s}  unit")
        lines += [f"  {k:22s} {v:12.6g} {'' if r is None else f'{r:12.6g}':>12s}"
                  f"  {u}" for k, (v, u, r) in metrics.items()]
        lines.append(f"  {'command':44s} {'median ms':>10s} {'raw ms':>10s}")
        lines += [f"  {c.cid:44s} {1000 * med[c.cid]:10.2f}"
                  f" {1000 * raw[c.cid]:10.2f}" for c in commands]
        detail["command_median_s"] = med
        detail["command_median_raw_s"] = raw
    detail["metrics"] = {k: {"value": v, "unit": u, "raw": r}
                         for k, (v, u, r) in metrics.items()}
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1))
    summary = {"correct": correct, "attempted": attempted,
               "failed": len(failures),
               "metrics": {k: {"value": v, "unit": u}
                           for k, (v, u, _) in metrics.items()}}
    return summary, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "satake" / "cli.py").is_file():
        print(f"error: no satake sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            summary, lines = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(summary))
            return 0
        # every workload: end-to-end tables first, then the per-layer tables
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for trace in (False, True):
            for name in workloads.WORKLOADS:
                summary, lines = measure(name, args.seed, args.seconds, trace)
                print("\n".join(lines), flush=True)
                total["correct"] = total["correct"] and summary["correct"]
                total["attempted"] += summary["attempted"]
                total["failed"] += summary["failed"]
                for k, v in summary["metrics"].items():
                    total["metrics"][f"{name}/{k}"] = v
        print(json.dumps(total))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
