#!/usr/bin/env python3
"""Small-size smoke test of the end-to-end benchmark itself.

  python3 perfbench/smoke_test.py

Runs every workload through run.py at a small size, untraced and traced,
and checks that:
  * the last line holds exactly correct/attempted/failed/metrics, and the
    metrics are exactly BENCHMARK.json's end-to-end (untraced) or
    per-layer (traced) metrics, each a finite number with its unit;
  * every run is correct: a traced output that differs from the untraced
    one fails the run inside the driver, so a correct traced run means
    the traced outputs were identical;
  * each traced run wrote a Chrome trace with spans;
  * the negative control (daemon with an injected engine fault) reports
    failed operations and exits non-zero.
Exits non-zero on the first check that does not hold.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = {
    "thm12_recursive_coloring": ["--n", "4096"],
    "thm15_recursive_edge_coloring": ["--n", "4096"],
    "ooc_uniform_rake_compress": ["--n", "16384"],
    "daemon_closed_loop_mixed": ["--n", "1024"],
}


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    cmd += SMALL[workload] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=300)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            code, record, last = run(w, trace)
            tag = "%s trace=%d" % (w, trace)
            check(code == 0, "%s exited %d: %s" % (tag, code, record["failures"]))
            check(sorted(last) == ["attempted", "correct", "failed", "metrics"],
                  tag + ": result keys " + str(sorted(last)))
            check(last["correct"] is True and last["failed"] == 0 and
                  last["attempted"] >= 1, tag + ": not correct")
            want = {m["name"]: m["unit"] for m in declared}
            check(set(last["metrics"]) == set(want),
                  tag + ": metric names differ from BENCHMARK.json")
            for name, m in last["metrics"].items():
                check(m["unit"] == want[name], "%s: %s unit %s" % (tag, name, m["unit"]))
                check(isinstance(m["value"], (int, float)) and
                      math.isfinite(m["value"]), "%s: %s not finite" % (tag, name))
                if trace == 0:
                    check(m["value"] > 0, "%s: %s is not positive" % (tag, name))
            if trace:
                with open(record["trace_file"]) as f:
                    spans = json.load(f)["traceEvents"]
                check(len(spans) > 0, tag + ": empty trace")
            print("ok   %s: %d operations" % (tag, last["attempted"]))

    code, record, last = run("daemon_closed_loop_mixed", 0, ["--fault"])
    check(code != 0, "negative control exited 0")
    check(last["correct"] is False and last["failed"] > 0 and
          record["fail_frac"] > 0, "negative control reported no failure")
    print("ok   negative control: %d of %d requests failed, exit %d" %
          (last["failed"], last["attempted"], code))


if __name__ == "__main__":
    main()
