#!/usr/bin/env python3
"""The repository benchmark: four seeded workloads timed in thread CPU time.

Result-line times are rescaled to a reference core: each timed piece of
work is divided by the CPU time of a fixed kernel run right after it, so
that contention from other tenants of the host cancels (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N            # every workload in turn

Builds perfbench_runner from the library sources (CMake, into
.bench_build/perfbench at the checkout root), runs the workload in its own
single-threaded process, checks the outputs, prints a human-readable report
and, as the last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits 1 when an output check fails, 2 when the build or the runner fails.
See perfbench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("campaign-mixed", "heal-killhost", "traffic-flash", "fleet-replan")
SIM_WORKLOADS = ("campaign-mixed", "heal-killhost", "traffic-flash")

# Defined on every workload; the --trace 0 result line carries exactly these.
# Times are in reference-core terms (see stats.at_reference).
END_TO_END = {
    "setup_s": "s",
    "run_ref_ms.p50": "ms",
    "run_ref_ms.tail": "ms",
    "heap_peak_mb.p50": "MB",
}

# The runner's reference kernel's thread CPU ms on an uncontended core of
# the machine that defined the benchmark (4-vCPU Xeon, model 143); times
# are reported as if every unit had run at that speed.
REFERENCE_MS = 7.6
# A unit is rescaled by the median kernel time of the units this many places
# either side of it in its pass (a second or two): contention changes over
# seconds to minutes, while one 7.6 ms kernel run is noisy.
REFERENCE_WINDOW = 8

LAYERS = ("desi", "core", "sim", "chaos", "heal", "traffic", "model", "algo",
          "check")

# The --trace 1 result line carries exactly these.
PER_LAYER = {
    "machine.calibration_ms": "ms",
    "machine.reference_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.untraced_p50_ms": "ms",
    "trace.traced_p50_ms": "ms",
    "trace.unattributed_share": "ratio",
    "trace.spans": "count",
    **{f"layer.{layer}.self_ms": "ms" for layer in LAYERS},
    "desi.generate_cpu_ms": "ms",
    "core.instantiate_cpu_ms": "ms",
    "sim.events": "count",
    "sim.cpu_ns_per_event": "ns",
    "sim.net.messages": "count",
    "sim.net.kb_per_message": "KB",
    "sim.net.drop_ratio": "ratio",
    "prism.monitor.pings_per_sim_s": "1/s",
    "prism.txn.rounds": "count",
    "prism.txn.commit_ratio": "ratio",
    "prism.txn.prepare_sent": "count",
    "prism.migrations": "count",
    "analyzer.analyses": "count",
    "analyzer.redeploy_ratio": "ratio",
    "algo.replan_cpu_ms": "ms",
    "algo.evaluations": "count",
    "algo.evals_per_cpu_s": "1/s",
    "model.evaluator_build_cpu_ms": "ms",
    "check.preflight_cpu_ms": "ms",
    "check.plan_cpu_ms": "ms",
    "check.audit_cpu_ms": "ms",
    "check.resilience_cpu_ms": "ms",
    "check.diagnostics": "count",
    "chaos.run_cpu_ms.centralized": "ms",
    "chaos.run_cpu_ms.decentralized": "ms",
    "chaos.judge_cpu_us": "us",
    "chaos.faults": "count",
    "heal.plan_cpu_ms": "ms",
    "heal.condemnations": "count",
    "heal.false_condemn_ratio": "ratio",
    "heal.repair_commit_ratio": "ratio",
    "traffic.cpu_us_per_request": "us",
    "traffic.offered": "count",
    "traffic.shed_ratio": "ratio",
    "traffic.throttle_actions": "count",
}


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources missing under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench_runner",
         "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "perfbench_runner"


def run_runner(exe, workload, seed, seconds, trace):
    proc = subprocess.run(
        [str(exe), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, timeout=170, cwd=ROOT)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(doc):
    """End-to-end metrics, plus the workload-specific ones the report prints
    but the result line leaves out (they are not defined on every
    workload). Returns (metrics, extras, notes)."""
    units = doc["units"]
    # Raw CPU time: a unit's fastest pass, since other tenants' load only
    # ever adds CPU time to fixed work.
    cpu = [min(u["cpu_ms"]) for u in units]
    wall = [min(u["wall_ms"]) for u in units]
    passes = len(units[0]["cpu_ms"])
    ref = stats.at_reference(
        [[u["cpu_ms"][p] for u in units] for p in range(passes)],
        [[u["ref_ms"][p] for u in units] for p in range(passes)],
        REFERENCE_MS, REFERENCE_WINDOW)
    n = len(cpu)
    tail = stats.tail_percentile(n)
    if tail is None:
        raise RuntimeError(f"{n} units are too few for a tail percentile")
    metrics = {
        "setup_s": statistics.median(stats.at_reference(
            [doc["setup_cpu_s"]], [doc["setup_ref_ms"]], REFERENCE_MS,
            len(doc["setup_cpu_s"]))),
        "run_ref_ms.p50": stats.percentile(ref, 50),
        "run_ref_ms.tail": stats.percentile(ref, tail),
        "heap_peak_mb.p50": stats.percentile(
            [u["heap_peak_kb"] for u in units], 50) / 1024.0,
    }
    notes = [f"run_ref_ms.tail is p{tail:g} of {n} units; each unit's time "
             f"is its median over {passes} passes of CPU ms x "
             f"{REFERENCE_MS:g} / the median reference-kernel CPU ms of the "
             f"{2 * REFERENCE_WINDOW + 1} units around it",
             f"setup_s is the median over {len(doc['setup_cpu_s'])} set-ups, "
             "each over the median kernel time after them; raw CPU times "
             "are report-only"]
    extras = {
        "run_cpu_ms.p50": (stats.percentile(cpu, 50), "ms"),
        "run_cpu_ms.tail": (stats.percentile(cpu, tail), "ms"),
        "setup_cpu_s": (statistics.median(doc["setup_cpu_s"]), "s"),
        "reference_cpu_ms.p50": (statistics.median(
            x for u in units for x in u["ref_ms"]), "ms"),
        "units_per_cpu_s": (n / (sum(cpu) / 1e3), "1/s"),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, "MB"),
        "run_wall_ms.p50": (stats.percentile(wall, 50), "ms"),
        "setup_wall_s": (statistics.median(doc["setup_wall_s"]), "s"),
        "failed_ratio": (ratio(sum(u["failed"] for u in units),
                               sum(u["attempted"] for u in units)), "ratio"),
    }
    workload = doc["workload"]
    outs = [u["out"] for u in units]
    if workload in SIM_WORKLOADS:
        extras["sim_s_per_cpu_s"] = (
            sum(u["sim_ms"] for u in units) / sum(cpu), "s/s")
    if workload != "traffic-flash":
        extras["availability_final"] = (
            statistics.mean(o["availability_final"] for o in outs), "ratio")
    if workload == "heal-killhost":
        mttr = [x for o in outs for x in o["mttr_ms"]]
        mttr_tail = stats.tail_percentile(len(mttr))
        if mttr:
            extras["mttr_ms.p50"] = (stats.percentile(mttr, 50), "ms")
        if mttr_tail is None:
            notes.append(f"mttr_ms.tail undefined: {len(mttr)} repairs")
        else:
            extras["mttr_ms.tail"] = (stats.percentile(mttr, mttr_tail), "ms")
            notes.append(f"mttr_ms.tail is p{mttr_tail:g} of {len(mttr)} "
                         "committed repairs, in sim time")
    if workload == "traffic-flash":
        latency = stats.merge_histograms(
            h for u in units
            for name, h in u["metrics"]["histograms"].items()
            if name.startswith("traffic.tenant.")
            and name.endswith(".latency_ms"))
        count = sum(latency["counts"])
        req_tail = stats.tail_percentile(count)
        extras["request_ms.p50"] = (
            stats.histogram_percentile(latency, 50), "ms")
        extras["request_ms.tail"] = (
            stats.histogram_percentile(latency, req_tail), "ms")
        extras["slo_violation_s"] = (
            statistics.mean(o["slo_violation_ms"] for o in outs) / 1e3, "s")
        notes.append(
            f"request_ms.tail is p{req_tail:g} of {count} requests pooled "
            "from the traffic.tenant.*.latency_ms bucket histograms (bucket "
            "upper bounds, failed requests at the failure penalty); "
            "open loop in sim time, timed from each request's scheduled "
            "arrival; the generator runs on the simulated clock, so it is "
            "never late")
        notes.append("slo_violation_s is the mean per session")
    return metrics, extras, notes


def per_layer(doc):
    """Per-layer metrics from one traced run."""
    spans = doc["traced"]["spans"]
    units = doc["units"]
    outs = [u["out"] for u in units]
    registry = doc["traced"]["registry"]
    counters = dict(registry["counters"])
    gauges = dict(registry["gauges"])
    for u in units:
        for name, v in u.get("metrics", {}).get("counters", {}).items():
            counters[name] = counters.get(name, 0) + v
        for name, v in u.get("metrics", {}).get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0.0) + v

    def span_ms(name, units_only=False):
        return [e - s for n, s, e, p, unit in spans
                if n == name and (unit >= 0 or not units_only)]

    def mean_call(name, units_only=False):
        durations = span_ms(name, units_only)
        return ratio(sum(durations), len(durations))

    def mean_unit(name):
        per_unit = {}
        for n, s, e, p, unit in spans:
            if n == name:
                per_unit[unit] = per_unit.get(unit, 0.0) + e - s
        return ratio(sum(per_unit.values()), len(per_unit))

    def total(key):
        return sum(o.get(key, 0) for o in outs)

    # Both legs in reference-core terms: they run minutes apart, and the
    # host's contention may change in between.
    traced = stats.at_reference([[u["cpu_ms"][0] for u in units]],
                                [[u["ref_ms"][0] for u in units]],
                                REFERENCE_MS, REFERENCE_WINDOW)
    untraced = stats.at_reference([doc["traced"]["untraced_cpu_ms"]],
                                  [doc["traced"]["untraced_ref_ms"]],
                                  REFERENCE_MS, REFERENCE_WINDOW)
    selfs = stats.self_times(spans)
    roots = sum(e - s for n, s, e, p, unit in spans if p < 0)
    sim_s = sum(u["sim_ms"] for u in units) / 1e3

    sim_events = total("sim_events")
    if doc["workload"] == "traffic-flash":
        sim_ms = sum(span_ms("traffic.session"))
    else:
        sim_ms = sum(span_ms("sim.run_until"))
    # Fleet cycles report their own replan and checks; the other workloads'
    # drive legs report their probes'.
    evaluations = total("evaluations") + total("algo_evaluations")
    diagnostics = total("diagnostics") + total("check_diagnostics")
    sent = counters.get("net.sent", 0)
    offered = total("offered")
    m = {
        "machine.calibration_ms": doc["machine"]["calibration_cpu_ms"],
        "machine.reference_ms": statistics.median(
            doc["machine"]["reference_cpu_ms"]),
        "trace.overhead_ratio": ratio(stats.percentile(traced, 50),
                                      stats.percentile(untraced, 50)),
        "trace.untraced_p50_ms": stats.percentile(untraced, 50),
        "trace.traced_p50_ms": stats.percentile(traced, 50),
        "trace.unattributed_share": ratio(selfs.get("bench", 0.0), roots),
        "trace.spans": len(spans),
        **{f"layer.{layer}.self_ms": selfs.get(layer, 0.0)
           for layer in LAYERS},
        "desi.generate_cpu_ms": mean_call("desi.generate"),
        "core.instantiate_cpu_ms": mean_unit("core.instantiate"),
        "sim.events": sim_events,
        "sim.cpu_ns_per_event": ratio(sim_ms * 1e6, sim_events),
        "sim.net.messages": sent,
        "sim.net.kb_per_message": ratio(gauges.get("net.kb_sent", 0.0), sent),
        "sim.net.drop_ratio": ratio(counters.get("net.dropped", 0) +
                                    counters.get("net.unroutable", 0), sent),
        "prism.monitor.pings_per_sim_s": ratio(
            counters.get("monitor.rel.pings", 0), sim_s),
        "prism.txn.rounds": counters.get("deploy.redeployments", 0),
        "prism.txn.commit_ratio": ratio(
            counters.get("deploy.txn.committed", 0),
            counters.get("deploy.redeployments", 0)),
        "prism.txn.prepare_sent": counters.get("deploy.txn.prepare_sent", 0),
        "prism.migrations": counters.get("deploy.migrations", 0),
        "analyzer.analyses": counters.get("analyzer.analyses", 0),
        "analyzer.redeploy_ratio": ratio(
            counters.get("analyzer.redeploy_decisions", 0),
            counters.get("analyzer.analyses", 0)),
        "algo.replan_cpu_ms": mean_call("algo.replan", units_only=True),
        "algo.evaluations": evaluations,
        "algo.evals_per_cpu_s": ratio(
            evaluations, sum(span_ms("algo.replan", units_only=True)) / 1e3),
        "model.evaluator_build_cpu_ms": mean_call("model.evaluator_build"),
        "check.preflight_cpu_ms": mean_call("check.preflight"),
        "check.plan_cpu_ms": mean_call("check.plan"),
        "check.audit_cpu_ms": mean_call("check.audit"),
        "check.resilience_cpu_ms": mean_call("check.resilience"),
        "check.diagnostics": diagnostics,
        "chaos.run_cpu_ms.centralized": mean_call("chaos.run.centralized"),
        "chaos.run_cpu_ms.decentralized": mean_call("chaos.run.decentralized"),
        "chaos.judge_cpu_us": mean_call("chaos.judge") * 1e3,
        "chaos.faults": total("faults"),
        "heal.plan_cpu_ms": mean_call("heal.plan"),
        "heal.condemnations": total("condemnations"),
        "heal.false_condemn_ratio": ratio(total("rejoins"),
                                          total("condemnations")),
        "heal.repair_commit_ratio": ratio(total("recoveries_committed"),
                                          total("recoveries_started")),
        "traffic.cpu_us_per_request": ratio(
            sum(span_ms("traffic.session")) * 1e3, offered),
        "traffic.offered": offered,
        "traffic.shed_ratio": ratio(total("shed"), offered),
        "traffic.throttle_actions": total("throttle_actions"),
    }
    notes = [
        f"traced block: {len(units)} units, run untraced then traced; "
        f"trace.overhead_ratio = traced/untraced median unit time, both "
        f"rescaled to the reference core like run_ref_ms",
        f"unattributed (benchmark's own) CPU: {selfs.get('bench', 0.0):.1f} "
        f"ms of {roots:.1f} ms in root spans",
        "opaque unit spans (chaos.run.*, traffic.session) hold their whole "
        "call as self time; the drive leg's sim.run_until spans hold sim, "
        "prism, analyzer and algo together (split only by counts)",
    ]
    return m, notes


def report(workload, seed, seconds, trace, exe):
    doc = run_runner(exe, workload, seed, seconds, trace)
    checks = doc["checks"]
    correct = all(c["ok"] for c in checks)
    units = doc["units"]
    machine = doc["machine"]
    print(f"== perfbench {workload} seed={seed} trace={trace}")
    print(f"machine: nproc={os.cpu_count()} cpu={cpu_model()} "
          f"calibration_cpu_ms={machine['calibration_cpu_ms']:.3f} "
          f"reference_cpu_ms="
          f"{statistics.median(machine['reference_cpu_ms']):.3f}")
    print("input: " + json.dumps(doc["config"], sort_keys=True))
    if trace:
        metrics, notes = per_layer(doc)
        unit_of = PER_LAYER
        extras = {}
    else:
        metrics, extras, notes = end_to_end(doc)
        unit_of = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit_of[name]}")
    for name, (value, unit) in extras.items():
        print(f"  {name:34s} {value:14.6g} {unit}   (report only)")
    for note in notes:
        print(f"  note: {note}")
    for c in checks:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} "
              f"({c['detail']})")
    result = {
        "correct": correct,
        "attempted": sum(u["attempted"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return correct


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        exe = build()
        workloads = [args.workload] if args.workload else WORKLOADS
        correct = True
        for workload in workloads:
            correct &= report(workload, args.seed, args.seconds, args.trace,
                              exe)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e!r}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
