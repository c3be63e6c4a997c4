#!/usr/bin/env python3
"""The repo benchmark: build the driver, run one workload, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload dgs-w8-sim --seed 1 --seconds 35 --trace 0

--trace 0 times core::TrainingSession::run() from outside, tracing off,
over as many seeded sub-runs as fit in --seconds, and prints every
end-to-end metric of BENCHMARK.json. --trace 1 runs the benchmark's own
round-robin driver with a span around each layer call and prints every
per-layer metric. Both check the program's outputs. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The driver (perfbench/CMakeLists.txt) is built under $CARGO_TARGET_DIR, or
.bench_build when unset; build logs go to stderr. Workload targets, floors,
seeds and the layer-to-end-to-end map live in perfbench/workloads.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import stats  # noqa: E402

# How long the driver may run past --seconds before it counts as hung (the
# last sub-run may start just before the budget ends).
GRACE_S = 90
BUILD_TYPE = "RelWithDebInfo"

# The driver times every span in microseconds; these are reported in ms.
MS_SPANS = {"eval.pass_us": "eval.pass_ms"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def call(cmd):
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    except OSError as e:
        log("perfbench: cannot run %s: %s" % (cmd[0], e))
        return 127


def cache_source(cache):
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build_driver():
    """Configure (once) and build perfbench_driver; None on failure."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if (os.path.exists(cache) and
            os.path.realpath(cache_source(cache) or "") != os.path.realpath(HERE)):
        shutil.rmtree(build_dir)
    if not os.path.exists(cache):
        if call(["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]) != 0:
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if call(["cmake", "--build", build_dir, "-j", jobs,
             "--target", "perfbench_driver"]) != 0:
        return None
    return build_root, os.path.join(build_dir, "perfbench_driver")


def stop_group(pgid):
    """SIGKILL whatever is left of the driver's process group and wait."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_driver(driver, mode, args, work_dir):
    """Run the driver; returns (records, exit code, timed out)."""
    cmd = [driver, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
    stop_group(proc.pid)
    records = []
    for line in out.splitlines():
        if line.startswith("{"):
            try:
                records.append(json.loads(line))
            except ValueError:
                log("perfbench: unparsable driver line: %s" % line[:200])
    return records, proc.returncode, timed_out


def median_or_zero(values):
    q = stats.quartiles(values)
    return q[1] if q else 0.0


def spread_note(values):
    """How a median was formed, for the human-readable table."""
    q = stats.quartiles(values)
    if q is None:
        return "no samples"
    return "median of n=%d; q1 %.6g, q3 %.6g" % (len(values), q[0], q[2])


def summarize_e2e(records, code, timed_out, workload):
    """End-to-end metrics + checks from the driver's per-run records."""
    target = workload["target_accuracy"]
    floor = workload["accuracy_floor"]
    runs = [r for r in records if r.get("kind") == "run"]
    summary = next((r for r in records if r.get("kind") == "summary"), None)

    checked = []
    for r in runs:
        row = dict(r)
        if "error" not in r:
            row["time_to_target_s"] = stats.crossing_time(r["curve"], target)
            row["ok"] = (r["finite"] and r["final_test_accuracy"] >= floor
                         and row["time_to_target_s"] is not None)
        checked.append(row)
    if code != 0 or timed_out or summary is None:
        # The sub-run in progress when the driver died or hung.
        checked.append({"error": "driver exit %s%s" % (
            code, ", timed out" if timed_out else "")})
    attempted, failed = stats.count_failures(checked)

    fingerprints = [r["data_fp"] for r in runs if "data_fp" in r]
    seed_changes_data = len(set(fingerprints)) == len(fingerprints) >= 2
    reproducible = (summary is not None and bool(fingerprints)
                    and summary["repeat_data_fp"] == runs[0].get("data_fp"))

    good = [r for r in checked if r.get("ok")]
    series = {
        "samples_per_s": [r["samples"] / r["run_s"] for r in good],
        "time_to_target_s": [r["time_to_target_s"] for r in good],
        "final_test_accuracy": [r["final_test_accuracy"] for r in good],
        "up_bytes_per_element": [r["up_bytes_per_element"] for r in good],
        "down_bytes_per_element": [r["down_bytes_per_element"] for r in good],
        "setup_s": [r["setup_s"] for r in runs if "setup_s" in r],
    }
    values = {name: median_or_zero(v) for name, v in series.items()}
    notes = {name: spread_note(v) for name, v in series.items()}
    # The driver process plus, on dgs-w2-uds, its largest forked worker.
    values["peak_rss_mb"] = (summary["rss_self_mb"] + summary["rss_children_mb"]
                             if summary else 0.0)
    values["run_success_fraction"] = (attempted - failed) / attempted
    notes["run_success_fraction"] = "%d of %d sub-runs passed" % (
        attempted - failed, attempted)

    for r in checked:
        if not r.get("ok"):
            log("perfbench: failed sub-run: %s" % json.dumps(
                {k: r.get(k) for k in ("index", "seed", "error", "finite",
                                       "final_test_accuracy",
                                       "time_to_target_s")}))
    if not seed_changes_data:
        log("perfbench: sub-run seeds did not all give distinct datasets")
    if not reproducible:
        log("perfbench: the same seed did not reproduce the same dataset")
    correct = failed == 0 and seed_changes_data and reproducible
    return values, notes, correct, attempted, failed


def summarize_traced(records, code, timed_out, workload):
    """Per-layer metrics + checks from the driver's traced record."""
    rec = next((r for r in records if r.get("kind") == "traced"), None)
    if rec is None:
        log("perfbench: traced driver produced no record (exit %s%s)" % (
            code, ", timed out" if timed_out else ""))
        return None

    values = {}
    notes = {}
    for key, durations in rec["spans"].items():
        prefix = MS_SPANS.get(key, key)
        scale = 1e-3 if key in MS_SPANS else 1.0
        durations = [d * scale for d in durations if d is not None]
        pct, tail = stats.tail_percentile(durations)
        values[prefix + ".p50"] = median_or_zero(durations)
        values[prefix + ".tail"] = tail
        values[prefix + ".n"] = len(durations)
        notes[prefix + ".p50"] = spread_note(durations)
        notes[prefix + ".tail"] = "%s of n=%d" % (
            "p%g" % pct if pct else "max", len(durations))

    steps = max(rec["steps"], 1)
    driver_bytes = rec["driver_bytes"]
    server_bytes = rec["server_bytes"]
    client_bytes = rec["client_bytes"]
    phase = rec["phase_us_on"]
    span_total = {k: sum(d for d in rec["spans"][k] if d is not None)
                  for k in rec["spans"]}

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    per_step_on = ratio(rec["seconds_on"], rec["steps_on"])
    per_step_off = ratio(rec["seconds_off"], rec["steps_off"])
    values.update({
        "sparse.push_density": rec["push_density_mean"],
        "server.reply_density": ratio(rec["reply_nnz"], rec["reply_dense"]),
        "server.reply_bytes": driver_bytes["down"] / steps,
        "server.staleness_p95": rec["engine_staleness_p95"],
        "server.state_mb": rec["server_state_mb"],
        "comm.wire_bytes_per_step": (
            (server_bytes["up"] + server_bytes["down"]) / steps
            if rec["on_wire"] else 0.0),
        "comm.failures": rec["comm_failures"],
        "data.generate_s": median_or_zero(rec["generate_s"]),
        "obs.trace_overhead_frac": ratio(per_step_on, per_step_off) - 1.0,
        "ledger.compute_and_pack_ratio": ratio(
            phase["fwd_bwd"] + phase["sparsify_select"] + phase["encode"],
            span_total["worker.compute_and_pack_us"]),
        "ledger.handle_push_ratio": ratio(
            phase["server_apply"] + phase["reply_encode"],
            span_total["server.handle_push_us"]),
        "ledger.apply_model_diff_ratio": ratio(
            phase["decode_apply"], span_total["worker.apply_model_diff_us"]),
        "check.eq5_max_abs_diff": rec["eq5_max_abs_diff"],
    })

    checks = {
        "driver ran to completion": rec["ok"] and code == 0 and not timed_out,
        "final models are finite": rec["finite"],
        "accuracy at or above the floor":
            rec["final_test_accuracy"] >= workload["accuracy_floor"],
        "Eq. 5 holds after every reply": rec["eq5_violations"] == 0,
        "driver-counted bytes equal the server ByteCounter":
            driver_bytes == server_bytes,
        "no comm failures": rec["comm_failures"] == 0,
        "the seed reproduces its dataset": rec["data_reproducible"],
        "another seed changes the dataset": rec["data_seed_changes"],
    }
    # Only the UDS loop has worker ends with counters of their own; the
    # channel transport counts both ends in one.
    if client_bytes is not None:
        checks["driver-counted bytes equal the worker ByteCounters"] = (
            driver_bytes == client_bytes)
    for name, passed in checks.items():
        if not passed:
            log("perfbench: check failed: %s" % name)
    correct = all(checks.values())
    attempted = steps
    failed = rec["comm_failures"] + rec["eq5_violations"]
    if not correct:
        failed = max(failed, 1)
    return values, notes, correct, attempted, min(failed, attempted)


def print_table(declared, values, notes):
    """Human-readable lines: every metric with its unit and how it was formed."""
    for m in declared:
        name = m["name"]
        note = "  [%s]" % notes[name] if name in notes else ""
        print("%-36s %14.6g %-9s%s" % (name, values.get(name, 0.0), m["unit"],
                                       note))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    workload = config["workloads"].get(args.workload)
    if workload is None:
        log("perfbench: unknown workload %s" % args.workload)
        return 2

    built = build_driver()
    if built is None:
        log("perfbench: build failed")
        return 3
    build_root, driver = built

    work_dir = os.path.relpath(os.path.join(build_root, "run-%d" % os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    mode = "traced" if args.trace else "e2e"
    try:
        records, code, timed_out = run_driver(driver, mode, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    summary = (summarize_traced if args.trace else summarize_e2e)(
        records, code, timed_out, workload)
    if summary is None:
        values = {m["name"]: 0.0 for m in declared}
        notes, correct, attempted, failed = {}, False, 1, 1
    else:
        values, notes, correct, attempted, failed = summary

    print("perfbench %s workload=%s seed=%d seconds=%g" % (
        mode, args.workload, args.seed, args.seconds))
    print_table(declared, values, notes)
    result = stats.result_line(declared, values, correct, attempted, failed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
