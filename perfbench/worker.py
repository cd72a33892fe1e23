"""One pass of one workload, in a fresh process.

Reads a job from standard input as JSON:
  {"root", "workload", "seed", "pass", "ops", "trace", "spans_out"}
imports hilbdiag from `<root>/src`, runs the set-up and then the pass's
ops, and prints one JSON line with the timestamps, op latencies, failure
count, output digest and peak memory; with "trace" set, also the layer
metrics from the tracer.  `run.py` starts it; it is not run by hand.
"""

import hashlib
import json
import os
import resource
import sys
import time


def main():
    job = json.loads(sys.stdin.read())
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import hilbdiag
    if not os.path.abspath(hilbdiag.__file__).startswith(src + os.sep):
        raise SystemExit("hilbdiag was not imported from %s" % src)
    from workloads import WORKLOADS

    wl = WORKLOADS[job["workload"]](job["seed"], job["pass"], job["ops"])
    digest = hashlib.sha256()
    digest.update(_canon(wl.setup_output))
    latencies = []
    failures = []
    if tracer:
        tracer.count_gc(True)
    clock = time.perf_counter
    t_first_op = time.monotonic()
    t_loop = clock()
    for k, item in enumerate(wl.items):
        if tracer:
            tracer.op = k
        t = clock()
        try:
            ok, output = wl.op(item)
        except Exception as exc:  # an op that raises counts as failed
            ok, output = False, ["raised", repr(exc)]
        latencies.append(clock() - t)
        if not ok:
            failures.append([k, repr(item)[:200], repr(output)[:300]])
        digest.update(_canon(output))
    loop_s = clock() - t_loop
    result = {
        "t_first_op": t_first_op,
        "loop_s": loop_s,
        "latencies": latencies,
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "setup_ok": bool(wl.setup_ok),
        "digest": digest.hexdigest(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.count_gc(False)
        tracer.op = None
        result["layers"] = tracer.summary(loop_s)
        if job.get("spans_out"):
            tracer.write_spans(job["spans_out"])
    sys.stdout.write(json.dumps(result) + "\n")


def _canon(obj):
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


if __name__ == "__main__":
    main()
