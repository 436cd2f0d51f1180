#!/usr/bin/env python3
"""End-to-end benchmark of treelocal: builds the perfbench driver from
source, runs one workload (or all of them) and checks every output.

  python3 perfbench/run.py                     # all workloads, default seeds
  python3 perfbench/run.py --workload W --seed S --seconds R --trace 0|1

With --workload, the last line of standard output is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each with its unit. The line before it is
the full record (host fingerprint, fail_frac, sample counts), also written
to .bench_out/. The exit code is non-zero when any operation failed.

--n overrides a workload's size (the smoke test uses it); --fault arms
the daemon's fault injector, the negative control, which must fail the
run.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver and graph_convert."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                      "--target", "perfbench", "graph_convert"])
        for cmd in steps:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if p.returncode != 0:
                sys.stderr.write(p.stdout[-8000:])
                die("build failed: " + " ".join(cmd))
    return (os.path.join(BUILD, "perfbench"),
            os.path.join(BUILD, "treelocal", "graph_convert"))


def read_first(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def llc_size():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, None)
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as f:
                level = int(f.read())
            with open(os.path.join(base, entry, "size")) as f:
                size = f.read().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, size)
    return best[1]


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(ROOT) else None


def source_digest():
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def host(rec):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "llc_size": llc_size(),
        "compiler": rec.get("compiler"),
        "build_type": rec.get("build_type"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run_one(bench, manifest, binaries, workload, seed, seconds, trace, args):
    params = manifest["workloads"][workload]
    n = args.n or params["n"]
    cmd = [binaries[0], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--n", str(n),
           "--setups", str(params["setups"]),
           "--out-dir", OUT, "--graph-convert", binaries[1]]
    if args.fault:
        cmd.append("--fault")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(workload + ": no result within %d s" % RUN_TIMEOUT_S)
    try:
        rec = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        die("%s: driver exited %d without a result" % (workload, p.returncode))

    # Units come from BENCHMARK.json. A per-layer metric of a layer this
    # workload does not cross (see manifest.json) reads 0.
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for m in declared:
        name = m["name"]
        crossed = not trace or workload in manifest["per_layer"][name]["measured_on"]
        value = rec["metrics"].get(name) if crossed else 0
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            if rec["failed"] == 0:
                die("%s: metric %s missing or not finite" % (workload, name))
            value = 0
        metrics[name] = {"value": value, "unit": m["unit"]}

    attempted, failed = rec["attempted"], rec["failed"]
    correct = failed == 0 and p.returncode == 0 and attempted > 0
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "n": n, "fault": args.fault, "correct": correct,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / max(attempted, 1), "failures": rec["failures"],
        "metrics": metrics, "info": rec["info"], "trace_file": rec["trace_file"],
        "host": host(rec),
    }
    with open(os.path.join(OUT, "record-%s-%d-trace%d.json" %
                           (workload, seed, trace)), "w") as f:
        json.dump(record, f, indent=1)
    for why in rec["failures"]:
        print("run.py: %s: %s" % (workload, why), file=sys.stderr)
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, help="override the workload's size")
    ap.add_argument("--fault", action="store_true",
                    help="daemon negative control: inject an engine fault")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "manifest.json")) as f:
        manifest = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        die("unknown workload %r (known: %s)" % (args.workload, ", ".join(workloads)))
    if args.fault and args.workload != "daemon_closed_loop_mixed":
        die("--fault needs --workload daemon_closed_loop_mixed")
    seconds = args.seconds or bench["run_seconds"]

    binaries = build()
    os.makedirs(OUT, exist_ok=True)
    if args.workload is not None:
        seed = args.seed if args.seed is not None else \
            manifest["workloads"][args.workload]["seed"]
        rec = run_one(bench, manifest, binaries, args.workload, seed, seconds,
                      args.trace, args)
        print(json.dumps(rec))
        print(json.dumps({k: rec[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        sys.exit(0 if rec["correct"] else 1)

    ok = True
    for w in workloads:
        seed = args.seed if args.seed is not None else manifest["workloads"][w]["seed"]
        rec = run_one(bench, manifest, binaries, w, seed, seconds, args.trace, args)
        ok = ok and rec["correct"]
        print(json.dumps(rec))
        print("%-32s seed=%d correct=%s fail_frac=%.4g (%d/%d)" % (
            w, seed, rec["correct"], rec["fail_frac"], rec["failed"],
            rec["attempted"]))
        for name, m in rec["metrics"].items():
            print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
