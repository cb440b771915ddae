#!/usr/bin/env python3
"""Repository benchmark: build the driver, run one workload, check it,
and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet|paper_tables|sweep
        [--seed N] [--seconds S] [--trace 0|1] [--workers N]

--trace 0 prints the end-to-end metrics of untraced reps; --trace 1
prints the per-layer metrics derived from the spans of traced reps,
plus the tracing overhead against the untraced reps of the same run.
Every run also prints each end-to-end metric of the workload by name
with its unit, and writes a result file with a provenance block under
.bench_build/perfbench/results/.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
exit code is non-zero when the build fails or a correctness check
fails.

Workload settings (worker count, default and held-out seeds) and the
per-layer to end-to-end mapping live in perfbench/workloads.json.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
# Time limits: a first build from scratch may take minutes; after an
# up-to-date build check (about a second) the measured run keeps the
# whole invocation below three minutes.
BUILD_DEADLINE_S = 700.0
RUN_DEADLINE_S = 150.0

CHIPS = ("xg2", "xg3")
POLICIES = ("baseline", "safevmin", "placement", "optimal")
OBJECTIVES = ("energy", "ed2p")
STEP_S = 0.01  # ScenarioRunner timestep: one simulated step
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

# End-to-end metrics every workload reports (BENCHMARK.json).
E2E_NAMES = ("wall_s", "setup_s", "peak_rss_mb", "sim_s_per_s")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    u = {}
    for name, unit in (("build_s", "s"), ("advance_calls", "count"),
                       ("epochs_per_advance", "epochs"),
                       ("advance_ms.p50", "ms"), ("advance_ms.tail", "ms"),
                       ("advance_ms.tail_pct", "%"),
                       ("advance_ms.tail_n", "count"),
                       ("advance_s", "s"), ("finish_s", "s"),
                       ("parked_frac", "ratio"),
                       ("awake_utilization", "ratio"),
                       ("autoscale_parks", "count"),
                       ("autoscale_unparks", "count"),
                       ("node_crashes", "count"),
                       ("jobs_completed", "count")):
        u["cluster." + name] = unit
    for c in CHIPS:
        for p in POLICIES:
            u[f"core.replay_s.{c}.{p}"] = "s"
            u[f"core.ns_per_step.{c}.{p}"] = "ns"
    for c in CHIPS:
        for name in ("daemon_samples", "daemon_plans", "migrations",
                     "voltage_transitions"):
            u[f"core.{name}.{c}"] = "count"
    for c in CHIPS:
        u[f"exp.map_specs_s.{c}"] = "s"
        u[f"exp.parallel_efficiency.{c}"] = "ratio"
        u[f"workloads.generate_ms.{c}"] = "ms"
    for c in CHIPS:
        for o in OBJECTIVES:
            u[f"search.pruned_s.{c}.{o}"] = "s"
            u[f"search.simulated_points.{c}.{o}"] = "count"
            u[f"search.simulated_frac.{c}.{o}"] = "ratio"
            u[f"search.waves.{c}.{o}"] = "count"
            u[f"search.exhaustive_s.{c}.{o}"] = "s"
    u["search.group_ms.p50"] = "ms"
    for c in CHIPS:
        u[f"search.model_eval_us.{c}.p50"] = "us"
        u[f"search.model_eval_us.{c}.tail"] = "us"
        u[f"search.model_eval_us.{c}.tail_pct"] = "%"
        u[f"search.model_eval_us.{c}.tail_n"] = "count"
        u[f"sim.point_ms.{c}"] = "ms"
    u["trace.overhead_s"] = "s"
    u["trace.overhead_frac"] = "ratio"
    return u


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Build and run


def run_step(cmd, deadline):
    """Run one child process with its output on stderr; False when it
    fails or would outlive the deadline (the child is then killed)."""
    left = deadline - time.monotonic()
    if left <= 0:
        return False
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=left)
    except subprocess.TimeoutExpired:
        log(f"perfbench: timed out: {cmd[0]}")
        return False
    if res.returncode != 0:
        log(f"perfbench: {cmd[0]} exited with {res.returncode}")
        return False
    return True


def build(deadline):
    """Configure (once) and build the driver."""
    if not (BUILD / "CMakeCache.txt").exists():
        if not run_step(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                        deadline):
            return False
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    return (run_step(["cmake", "--build", str(BUILD), "-j", jobs],
                     deadline) and DRIVER.exists())


# ---------------------------------------------------------------------
# Provenance


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    """HEAD commit read from .git without calling git (None outside a
    checkout with history)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the library and benchmark sources, so results can
    be matched to code where no git history exists."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and p.suffix in (".cc", ".hh", ".txt",
                                                   ".py", ".json"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(args, workers, raw):
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


# ---------------------------------------------------------------------
# Statistics over reps and spans


def nearest_rank(sorted_values, pct):
    k = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def p50_and_tail(values):
    """Median, plus the highest ladder percentile with at least ten
    samples beyond it (the median when there are too few samples)."""
    if not values:
        return 0.0, 0.0, 0.0, 0
    s = sorted(values)
    n = len(s)
    pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0),
               50.0)
    return nearest_rank(s, 50.0), nearest_rank(s, pct), pct, n


class Spans:
    """The driver's spans: [id, parent, run, name, tag, start, end]."""

    def __init__(self, rows):
        self.rows = [dict(zip(("id", "parent", "run", "name", "tag",
                               "start", "end"), r)) for r in rows]
        for r in self.rows:
            r["dur"] = r["end"] - r["start"]

    def durations(self, name, tag=None, run=None):
        return [r["dur"] for r in self.rows
                if r["name"] == name and (tag is None or r["tag"] == tag)
                and (run is None or r["run"] == run)]

    def runs(self, root):
        """Run ids of the traced reps (those with a `root` span)."""
        return sorted({r["run"] for r in self.rows if r["name"] == root})

    def per_run_sum(self, root, name, tag=None):
        """Median over traced reps of the summed span durations."""
        return statistics.median(sum(self.durations(name, tag, run))
                                 for run in self.runs(root))

    def self_times(self):
        """(name, count, total s, self s) per span name: self time is
        the span minus the union of its children's intervals."""
        children = {}
        for r in self.rows:
            children.setdefault(r["parent"], []).append(r)
        table = {}
        for r in self.rows:
            covered = 0.0
            edge = r["start"]
            for c in sorted(children.get(r["id"], []),
                            key=lambda c: c["start"]):
                lo, hi = max(c["start"], edge), min(c["end"], r["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            row = table.setdefault(r["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += r["dur"]
            row[2] += r["dur"] - covered
        return sorted(((k, *v) for k, v in table.items()),
                      key=lambda t: -t[3])


# ---------------------------------------------------------------------
# Metrics


def end_to_end(workload, untraced, setups, raw):
    """The four metrics every workload reports, plus the workload's
    own end-to-end figures (printed and kept in the result file)."""
    sim = untraced[0]["sim"]
    checks = untraced[0]["checks"]
    wall = statistics.median(r["wall_s"] for r in untraced)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MiB"),
        "sim_s_per_s": (sim["sim_seconds"] / wall, "s/s"),
    }
    if workload == "fleet":
        metrics["node_epochs_per_s"] = (sim["nodes"] * sim["makespan_s"]
                                        / wall, "1/s")
        metrics["failed_frac"] = ((sim["jobs_dropped"] + sim["jobs_lost"])
                                  / sim["jobs_submitted"], "ratio")
        metrics["energy_per_job_j"] = (sim["energy_per_job_j"], "J")
        metrics["latency_p99_s"] = (sim["latency_p99_s"], "s")
    elif workload == "paper_tables":
        outcomes = [ok for k, ok in checks.items()
                    if k.startswith("paper_tables.outcome_ok.")]
        metrics["failed_frac"] = (outcomes.count(False) / len(outcomes),
                                  "ratio")
        # Hour 0 is the seed's own Tables III/IV input.
        for c in CHIPS:
            base, opt = f"{c}.h0.baseline", f"{c}.h0.optimal"
            metrics[f"{c}_energy_savings_pct"] = (
                100.0 * (1.0 - sim[opt + ".energy_j"]
                         / sim[base + ".energy_j"]), "%")
            metrics[f"{c}_time_penalty_pct"] = (
                100.0 * (sim[opt + ".completion_s"]
                         / sim[base + ".completion_s"] - 1.0), "%")
    else:
        bad = sum(1 for k, ok in checks.items()
                  if k.startswith("sweep.argmin_match.") and not ok)
        metrics["failed_frac"] = (bad / sim["groups"], "ratio")
    return metrics


def per_layer(workload, raw, traced, untraced):
    spans = Spans(raw["spans"])
    m = {name: 0.0 for name in per_layer_units()}
    sim = traced[0]["sim"]
    workers = raw["workers"]

    if workload == "fleet":
        calls = statistics.median(
            len(spans.durations("ClusterSim::advance", run=run))
            for run in spans.runs("fleet"))
        p50, tail, pct, n = p50_and_tail(
            [d * 1e3 for d in spans.durations("ClusterSim::advance")])
        m.update({
            "cluster.build_s": spans.per_run_sum("fleet",
                                                 "ClusterSim::ClusterSim"),
            "cluster.advance_calls": calls,
            "cluster.epochs_per_advance": sim["makespan_s"] / calls,
            "cluster.advance_ms.p50": p50,
            "cluster.advance_ms.tail": tail,
            "cluster.advance_ms.tail_pct": pct,
            "cluster.advance_ms.tail_n": n,
            "cluster.advance_s": spans.per_run_sum("fleet",
                                                   "ClusterSim::advance"),
            "cluster.finish_s": spans.per_run_sum("fleet",
                                                  "ClusterSim::finish"),
        })
        for name in ("parked_frac", "awake_utilization", "autoscale_parks",
                     "autoscale_unparks", "node_crashes",
                     "jobs_completed"):
            m["cluster." + name] = sim[name]

    elif workload == "paper_tables":
        root = "paper_tables"
        hours = sorted({k.split(".")[1] for k in sim
                        if k.startswith(CHIPS[0] + ".h")})
        for c in CHIPS:
            replays = 0.0
            for p in POLICIES:
                replay = spans.per_run_sum(root, "ScenarioRunner::run",
                                           f"{c}.{p}")
                steps = sum(sim[f"{c}.{h}.{p}.completion_s"]
                            for h in hours) / STEP_S
                replays += replay
                m[f"core.replay_s.{c}.{p}"] = replay / len(hours)
                m[f"core.ns_per_step.{c}.{p}"] = replay * 1e9 / steps
            for name in ("daemon_samples", "daemon_plans", "migrations",
                         "voltage_transitions"):
                m[f"core.{name}.{c}"] = sum(sim[f"{c}.{h}.optimal.{name}"]
                                            for h in hours)
            mapped = spans.per_run_sum(root, "ExperimentEngine::mapSpecs", c)
            m[f"exp.map_specs_s.{c}"] = mapped
            m[f"exp.parallel_efficiency.{c}"] = replays / (workers * mapped)
            m[f"workloads.generate_ms.{c}"] = 1e3 * spans.per_run_sum(
                root, "WorkloadGenerator::generate", c)

    else:
        for c in CHIPS:
            exhaustive = 0.0
            points = 0.0
            for o in OBJECTIVES:
                label = f"{c}.{o}"
                total = sim[label + ".total_points"]
                simulated = sim[label + ".simulated_points"]
                ex = spans.per_run_sum("sweep", "search::runConfigurations",
                                       label)
                exhaustive += ex
                points += total
                m.update({
                    f"search.pruned_s.{label}": spans.per_run_sum(
                        "sweep", "SweepSearch::searchGroup", label),
                    f"search.simulated_points.{label}": simulated,
                    f"search.simulated_frac.{label}": simulated / total,
                    f"search.waves.{label}": sim[label + ".waves"],
                    f"search.exhaustive_s.{label}": ex,
                })
            # Worker-milliseconds per point: host ms at one worker.
            m[f"sim.point_ms.{c}"] = 1e3 * exhaustive * workers / points
            p50, tail, pct, n = p50_and_tail(
                [d * 1e6 for d in spans.durations("AnalyticModel::evaluate",
                                                  c)])
            m[f"search.model_eval_us.{c}.p50"] = p50
            m[f"search.model_eval_us.{c}.tail"] = tail
            m[f"search.model_eval_us.{c}.tail_pct"] = pct
            m[f"search.model_eval_us.{c}.tail_n"] = n
        m["search.group_ms.p50"] = 1e3 * statistics.median(
            spans.durations("SweepSearch::searchGroup"))

    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m, spans


# ---------------------------------------------------------------------
# Checks


def run_checks(reps):
    """(name, ok) for every rep's checks, plus one determinism check:
    every rep, traced or not, simulated exactly the same values."""
    results = []
    for i, r in enumerate(reps):
        results += [(f"rep{i}.{k}", ok) for k, ok in r["checks"].items()]
    first = reps[0]["sim"]
    results.append(("sim_values_repeat_exactly",
                    all(r["sim"] == first for r in reps)))
    return results


# ---------------------------------------------------------------------


def main():
    with open(HERE / "workloads.json") as f:
        registry = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(registry))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=None,
                    help="override the workload's fixed worker count "
                         "(for worker-count determinism checks)")
    args = ap.parse_args()
    spec = registry[args.workload]
    if args.seed is None:
        args.seed = spec["default_seed"]
    workers = args.workers or spec["workers"]

    if not build(time.monotonic() + BUILD_DEADLINE_S):
        log("perfbench: build failed")
        return 1
    deadline = time.monotonic() + RUN_DEADLINE_S
    out_dir = BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = out_dir / (stem + ".raw.json")
    if not run_step([str(DRIVER), args.workload, "--seed", str(args.seed),
                     "--workers", str(workers), "--seconds",
                     str(args.seconds), "--trace", str(args.trace),
                     "--out", str(raw_path)], deadline):
        return 1
    with open(raw_path) as f:
        raw = json.load(f)

    reps = raw["reps"]
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    checks = run_checks(reps)
    failed = [name for name, ok in checks if not ok]

    e2e = end_to_end(args.workload, untraced,
                     [r["setup_s"] for r in untraced] + raw["setup_only_s"],
                     raw)
    print(f"== perfbench {args.workload}: seed {args.seed}, {workers} "
          f"worker(s), {len(untraced)} untraced / {len(traced)} traced "
          f"rep(s)")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<26} {value:>16.6g} {unit}")
    result = {"provenance": provenance(args, workers, raw),
              "end_to_end": {k: {"value": v, "unit": u}
                             for k, (v, u) in e2e.items()},
              "checks": dict(checks)}

    if args.trace:
        layers, spans = per_layer(args.workload, raw, traced, untraced)
        units = per_layer_units()
        print("  -- per-layer metrics (traced reps)")
        for name, value in layers.items():
            print(f"  {name:<36} {value:>14.6g} {units[name]}")
        print("  -- where traced time went")
        for name, count, total, own in spans.self_times():
            print(f"  {name:<30} n={count:<6} total {total:10.4f} s  "
                  f"self {own:10.4f} s")
        result["per_layer"] = {k: {"value": v, "unit": units[k]}
                               for k, v in layers.items()}
        reported = result["per_layer"]
    else:
        reported = {k: result["end_to_end"][k] for k in E2E_NAMES}
    with open(out_dir / (stem + ".json"), "w") as f:
        json.dump(result, f, indent=1)

    for name in failed:
        log(f"perfbench: check failed: {name}")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": reported}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
