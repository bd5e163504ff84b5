"""One round of commands in a fresh interpreter.

Started by run.py.  Imports `satake.cli` from the checkout's `src/` first
(the set-up that setup_s times), then reads a JSON request on stdin:

    {"commands": [[cid, argv], ...], "trace": bool, "spans_path": str|null}

runs each command through `satake.cli.main(argv)` bracketed by the
reference kernel, and writes one JSON object on stdout.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)
import satake.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import refkernel  # noqa: E402


def run_command(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = satake.cli.main(argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
    return rc, wall, out.getvalue(), err.getvalue()


def main():
    setup_ref = refkernel.measure()
    if os.path.dirname(os.path.dirname(os.path.abspath(satake.cli.__file__))) \
            != SRC:
        sys.exit(f"satake was imported from {satake.cli.__file__}, not {SRC}")
    request = json.loads(sys.stdin.read())
    tracer = None
    if request.get("trace"):
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
    results = []
    for cid, argv in request["commands"]:
        gc.collect()
        ref_before = refkernel.measure()
        if tracer is not None:
            tracer.begin()
        rc, wall, stdout, stderr = run_command(argv)
        item = {"cid": cid, "rc": rc, "wall": wall, "stdout": stdout,
                "stderr": stderr[-4000:]}
        if tracer is not None:
            item["trace"] = tracer.end(keep=request.get("spans_path") is not None)
        item["ref"] = (ref_before + refkernel.measure()) / 2
        results.append(item)
    if tracer is not None and request.get("spans_path"):
        tracer.write_spans(request["spans_path"], [r["cid"] for r in results])
    json.dump({"ready": READY, "setup_ref": setup_ref,
               "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "commands": results}, sys.stdout)


if __name__ == "__main__":
    main()
