#!/usr/bin/env python3
"""Regression bounds for BENCH_engine.json round trajectories.

CI historically gated only on transcript identity; this closes the ROADMAP
leftover by asserting the *shape* of the per-phase round trajectories and
floor bounds on the acceptance ratios:

  * every record carrying `transcripts_identical` must say true — the
    determinism contract, restated over the merged artifact;
  * every `*round_active_nodes` trajectory must be non-increasing with a
    positive final round: nodes only ever leave the worklist within a run,
    so a growing (or zero-tail) curve means the engine's halting or
    RoundStats accounting broke;
  * every `*round_messages` trajectory must be non-negative;
  * every `*round_seconds` trajectory must show per-round cost tracking the
    active-node count, not n: the median of the last three rounds (a
    handful of live nodes) must not exceed the mean of the first three
    (all n live), beyond a small absolute floor for timer noise;
  * per-experiment speedup floors (loose — CI runners are shared and
    noisy; these catch collapses, not percent-level drift);
  * wake-scheduler accounting: records carrying the sweep visit fields
    must stay transcript-identical with scheduling on vs off
    (`scheduler_identical`), and the scheduled visit count must stay
    within VISIT_RATIO_BOUND of decisions + message wakes;
  * host stamps: experiments whose wall-clock numbers are quoted across
    changes (HOST_STAMPED_EXPERIMENTS) must carry the bench::HostFields
    fields, since a timing without its machine compares with nothing;
  * compressed-backend bounds: per-record backstops on
    `compact_bytes_per_edge` / `compact_ratio`, identity gating of the
    compression numbers, and a demonstration floor (<= 6 bytes/edge,
    >= 4x vs CSR) on the best identity-gated workload.

Usage: check_bench_regression.py <path/to/BENCH_engine.json>
Exits non-zero listing every violated bound.
"""

import json
import math
import sys

# Absolute floor under which round timings are treated as timer noise.
TAIL_NOISE_FLOOR_SECONDS = 5e-5

# Wake-scheduler visit bound: a scheduled class sweep's engine visits must
# approach the useful work — decisions plus message wakes — instead of the
# always-visit sum of live counts. 1.2x leaves room for re-sleep visits
# (a woken node peeking and going back to sleep) without letting the
# calendar degrade back into an idle walk. Structural, so it applies at
# every size the bench records, not just acceptance runs.
VISIT_RATIO_BOUND = 1.2

# experiment -> minimum acceptable value of the record's "speedup" field.
# Floors are intentionally loose (collapse detectors): single-core CI
# containers cannot show real parallel speedup, and shared runners swing
# wall-clock +-30%.
SPEEDUP_FLOORS = {
    # Optimized engine vs the naive reference: must never fall back to
    # reference-level throughput.
    "rake_compress_engine_acceptance": 1.0,
    # Sharded / relabeled runs must never lose big to serial.
    "parallel_scaling": 0.5,
    "relabel_ablation": 0.5,
    # Dedup runs strictly fewer solo runs; a collapse below 0.8 means the
    # fan-out copy started dominating the saved engine work.
    "batched_k_sweep_dedup": 0.8,
    # Bit-plane CV lanes vs B solo scalar Network runs: the planes must win
    # at every recorded size (the word-parallel round pass touches ~planes/8
    # bytes per instance against 24-byte scalar mailbox slots); 1.0 is the
    # smoke floor, the 2x claim is gated on acceptance-sized records below.
    "bitplane_cv_batch": 1.0,
    # Engine-native Thm 3/15 pipeline vs the legacy oracle on whole-pipeline
    # runs (loose: small-n records are noise-dominated; the hard 1.0 floor
    # lives on the acceptance-sized phase-2/3 record below).
    "thm15_pipeline": 0.5,
    "thm3_pipeline": 0.5,
    "arboricity_pipeline": 0.5,
    "node_base_f_delta": 0.3,
    "edge_base_f_delta": 0.15,
}

# Acceptance-sized records (the bench sets "acceptance": true only for the
# real 2^18+ measurement, never for CI smoke sizes): the engine-native
# phases must not collapse against the preserved legacy path. The floor is
# 0.8, not 1.0: an identical binary re-run back to back on the shared
# container measured speedups from 0.69x to 1.04x against itself, so a
# parity-level floor on a single measurement is pure noise roulette. The
# hard gates on these records are transcript identity and the wake-
# scheduler visit bound above, which are deterministic.
# Compressed graph backend (bench_graph_backend): hard demonstration
# floors applied to the BEST identity-gated workload, plus loose
# per-record backstops (see check_record / check_compact_group).
COMPACT_BYTES_PER_EDGE_FLOOR = 6.0
COMPACT_RATIO_FLOOR = 4.0
COMPACT_BYTES_PER_EDGE_BACKSTOP = 8.5
COMPACT_RATIO_BACKSTOP = 3.2

ACCEPTANCE_FLOORS = {
    "edge_pipeline_phase23": 0.8,
    # The bit-plane batch kernels' headline claim: >= 2x instance
    # throughput over B = 64 solo scalar runs on the acceptance-sized
    # dense-round workload. Unlike the parity-level floors above, 2.0 is
    # far from the noise band (measured ~23x against 64 solo runs at
    # n = 2^16 on a 4-vCPU Xeon), so a breach means the word-parallel path
    # actually collapsed.
    "bitplane_cv_batch": 2.0,
}


# Fields bench::HostFields writes, and the experiments that must carry them.
HOST_FIELDS = ("host_nproc", "host_cpu_model", "host_compiler",
               "host_build_type")
HOST_STAMPED_EXPERIMENTS = {"rake_compress_engine_acceptance"}


def fail(msgs, record, what):
    src = record.get("source", "?")
    exp = record.get("experiment", "?")
    msgs.append(f"[{src}/{exp}] {what}")


def check_record(rec, msgs):
    if rec.get("transcripts_identical") is False:
        fail(msgs, rec, "transcripts_identical is false")
    if rec.get("scheduler_identical") is False:
        fail(msgs, rec, "scheduler_identical is false (wake scheduling "
                        "changed the transcript)")

    visits = rec.get("sweep_visits_scheduled")
    if visits is not None:
        useful = rec.get("sweep_decisions", 0) + rec.get("sweep_wakes", 0)
        if useful > 0 and visits > VISIT_RATIO_BOUND * useful:
            fail(msgs, rec,
                 f"scheduled sweep visits {visits} exceed "
                 f"{VISIT_RATIO_BOUND}x (decisions+wakes) = "
                 f"{VISIT_RATIO_BOUND * useful:.0f} — the wake calendar is "
                 f"degrading back into an idle walk")
        if rec.get("sweep_idle_visits_eliminated", 0) < 0:
            fail(msgs, rec,
                 "sweep_idle_visits_eliminated is negative (scheduling "
                 "visited MORE than always-visit)")

    for key, value in rec.items():
        if not isinstance(value, list) or not value:
            continue
        if key.endswith("round_active_nodes"):
            if any(b > a for a, b in zip(value, value[1:])):
                fail(msgs, rec, f"{key} is not non-increasing")
            if value[-1] <= 0:
                fail(msgs, rec, f"{key} ends at {value[-1]} (no live nodes in final round)")
            if "n" in rec and value[0] > rec["n"]:
                fail(msgs, rec, f"{key} starts above n ({value[0]} > {rec['n']})")
        elif key.endswith("round_messages"):
            if any(m is None or m < 0 for m in value):
                fail(msgs, rec, f"{key} has negative entries")
        elif key.endswith("round_seconds"):
            if len(value) < 8 or any(v is None for v in value):
                continue  # too short for a meaningful head/tail split
            # The rule asserts per-round cost tracks the active-node count.
            # It only has teeth when the active curve actually decays; a
            # phase whose participants all halt in the same round (the
            # fused multi-forest Cole-Vishkin) is flat by design, and a
            # flat cost curve IS tracking it.
            active = rec.get(key[: -len("round_seconds")] +
                             "round_active_nodes")
            if (isinstance(active, list) and len(active) >= 2 and
                    2 * active[-1] > active[1]):
                continue
            head = sum(value[:3]) / 3.0
            tail = sorted(value[-3:])[1]  # median of the last three rounds
            bound = max(head, TAIL_NOISE_FLOOR_SECONDS)
            if tail > bound:
                fail(
                    msgs, rec,
                    f"{key}: tail median {tail:.3g}s exceeds head mean "
                    f"{head:.3g}s — per-round cost no longer tracks active nodes",
                )

    exp = rec.get("experiment")
    if exp in HOST_STAMPED_EXPERIMENTS:
        missing = [f for f in HOST_FIELDS if f not in rec]
        if missing:
            fail(msgs, rec, "lacks host fields " + ", ".join(missing) +
                 " — a timing without its machine compares with nothing")

    floor = SPEEDUP_FLOORS.get(exp)
    if rec.get("acceptance") is True and exp in ACCEPTANCE_FLOORS:
        floor = ACCEPTANCE_FLOORS[exp]
    speedup = rec.get("speedup")
    if floor is not None and speedup is not None:
        if not isinstance(speedup, (int, float)) or not math.isfinite(speedup):
            fail(msgs, rec, f"speedup is not finite: {speedup}")
        elif speedup < floor:
            fail(msgs, rec, f"speedup {speedup:.3f} below floor {floor}")

    # Records carrying the explicit bitplane_speedup field are gated even if
    # their experiment name is ever reshuffled: 2.0 on acceptance-sized
    # runs, 1.0 on smoke sizes.
    bp = rec.get("bitplane_speedup")
    if bp is not None:
        bp_floor = 2.0 if rec.get("acceptance") is True else 1.0
        if not isinstance(bp, (int, float)) or not math.isfinite(bp):
            fail(msgs, rec, f"bitplane_speedup is not finite: {bp}")
        elif bp < bp_floor:
            fail(msgs, rec,
                 f"bitplane_speedup {bp:.3f} below floor {bp_floor}")

    if exp == "batched_k_sweep_dedup":
        if rec.get("dedup_factor", 0) < 1.0:
            fail(msgs, rec, f"dedup_factor {rec.get('dedup_factor')} < 1")

    # Compressed-backend records: per-record backstops. Gap widths grow
    # with log(n), so bytes/edge drifts up at the 2^20 workload (~7.4) —
    # the backstop catches encoder regressions, while the headline <= 6
    # bytes/edge / >= 4x claims are gated on the best recorded workload in
    # check_compact_group (the ISSUE acceptance is "demonstrated on the
    # bench workloads", which the 2^14 record carries at ~5.5/5.1x).
    # The backstops are scoped to the matrix workloads ("compact_backend");
    # the huge out-of-core record ("compact_backend_huge", recursive tree at
    # n ~ 10^8) legitimately sits wider because gap varints span the whole
    # id range, and its claims are residency claims, not compression ones.
    bpe = rec.get("compact_bytes_per_edge")
    if bpe is not None and exp == "compact_backend":
        if not isinstance(bpe, (int, float)) or not math.isfinite(bpe):
            fail(msgs, rec, f"compact_bytes_per_edge is not finite: {bpe}")
        elif bpe > COMPACT_BYTES_PER_EDGE_BACKSTOP:
            fail(msgs, rec,
                 f"compact_bytes_per_edge {bpe:.3f} above backstop "
                 f"{COMPACT_BYTES_PER_EDGE_BACKSTOP}")
        if "transcripts_identical" not in rec:
            fail(msgs, rec,
                 "compact_backend record lacks the transcripts_identical "
                 "identity gate — compression numbers are only admissible "
                 "from identity-gated runs")
        ratio = rec.get("compact_ratio")
        if ratio is not None and isinstance(ratio, (int, float)):
            if not math.isfinite(ratio) or \
                    ratio < COMPACT_RATIO_BACKSTOP:
                fail(msgs, rec,
                     f"compact_ratio {ratio} below backstop "
                     f"{COMPACT_RATIO_BACKSTOP}")


def check_compact_group(records, msgs):
    """Demonstration gate for the compressed backend: among identity-gated
    compact_backend records, the best workload must still demonstrate the
    headline claims (<= 6 bytes/edge, >= 4x smaller than the CSR)."""
    gated = [r for r in records
             if r.get("experiment") == "compact_backend" and
             r.get("transcripts_identical") is True]
    if not gated:
        return  # nothing recorded yet; per-record gates handle the rest
    best_bpe = min(r.get("compact_bytes_per_edge", math.inf) for r in gated)
    best_ratio = max(r.get("compact_ratio", 0.0) for r in gated)
    if best_bpe > COMPACT_BYTES_PER_EDGE_FLOOR:
        msgs.append(
            f"[compact_backend] best bytes/edge {best_bpe:.3f} exceeds the "
            f"{COMPACT_BYTES_PER_EDGE_FLOOR} demonstration floor on every "
            f"identity-gated workload")
    if best_ratio < COMPACT_RATIO_FLOOR:
        msgs.append(
            f"[compact_backend] best CSR ratio {best_ratio:.3f} below the "
            f"{COMPACT_RATIO_FLOOR}x demonstration floor on every "
            f"identity-gated workload")


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[1]) as f:
        records = json.load(f)
    if not isinstance(records, list) or not records:
        print(f"{argv[1]}: expected a non-empty record array")
        return 1

    msgs = []
    trajectories = 0
    for rec in records:
        trajectories += sum(
            1 for k, v in rec.items()
            if isinstance(v, list) and k.endswith("round_active_nodes"))
        check_record(rec, msgs)
    check_compact_group(records, msgs)

    print(f"checked {len(records)} records, {trajectories} active-node "
          f"trajectories, {len(msgs)} violations")
    for m in msgs:
        print(f"  REGRESSION: {m}")
    return 1 if msgs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
