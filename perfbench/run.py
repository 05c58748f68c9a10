#!/usr/bin/env python3
"""Served-workload benchmark for jinjing.

Builds `jinjing` and the load generator from the sources of this checkout,
boots `jinjing serve` as its own process and drives one of three seeded,
closed-loop workloads through it, re-verifies the answers, and prints the
metrics. See perfbench/README.md.

  python3 perfbench/run.py --workload check_flood --seed 1 --seconds 50 --trace 0
  python3 perfbench/run.py --workload update_cycle --seed 3 --seconds 50 --trace 1
  python3 perfbench/run.py --steady 5 --workload check_flood,interactive_large --seconds 50

The last line of a measured run is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import pbstats  # noqa: E402

WORKLOADS = ("check_flood", "interactive_large", "update_cycle")

# (name, unit) in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("check_p50_ms", "ms"),
    ("check_p90_ms", "ms"),
    ("wire_kb_per_check", "KB"),
    ("peak_rss_mb", "MB"),
]

SERVED_LAYERS = [
    # From the server's metrics RPC, as deltas over the timed window.
    ("svc.queue_wait_ms_mean", "ms"),
    ("svc.batch_size_mean", "jobs"),
    ("svc.coalesced_share", "ratio"),
    ("svc.server_cpu_per_wall", "ratio"),
    ("svc.job_run_ms_mean", "ms"),
    ("svc.batch_algebra_builds", "count"),
    ("svc.wire.request_kb_per_check", "KB"),
    ("svc.wire.response_kb_per_check", "KB"),
    ("core.executor.steals_per_run", "count"),
    ("core.obligations_executed_per_check", "count"),
    ("core.incremental.hit_ratio", "ratio"),
    ("core.incremental.invalidations_per_apply", "count"),
    ("core.incremental.rebases_per_apply", "count"),
    ("smt.sessions_built_per_check", "count"),
    ("smt.queries_per_check", "count"),
    ("smt.solve_ms_mean", "ms"),
    ("smt.optimize_queries_per_fix", "count"),
    ("topo.fec_cache.hit_ratio", "ratio"),
    ("topo.fec_delta.reused_share", "ratio"),
    ("topo.fec_delta.rebuilds", "count"),
    # Client-side latencies of the op kinds the end-to-end set leaves out;
    # 0 where the workload has no such op (or too few for the percentile).
    ("client.check_p99_ms", "ms"),
    ("client.control_check_p50_ms", "ms"),
    ("client.control_check_p90_ms", "ms"),
    ("client.fix_p50_ms", "ms"),
    ("client.generate_p50_ms", "ms"),
    ("client.apply_p50_ms", "ms"),
]

# From the traced in-process replay: self ms per op that calls the layer.
REPLAY_LAYERS = [
    ("config.print_acl_ms", "ms"),
    ("svc.json_dump_ms", "ms"),
    ("svc.json_parse_ms", "ms"),
    ("config.parse_acl_ms", "ms"),
    ("lai.parse_resolve_ms", "ms"),
    ("core.batch.algebra_build_ms", "ms"),
    ("core.batch.scan_ms", "ms"),
    ("core.incremental.check_ms", "ms"),
    ("core.checker.control_check_ms", "ms"),
    ("core.fixer.fix_ms", "ms"),
    ("core.generator.generate_ms", "ms"),
    ("svc.state_store.apply_ms", "ms"),
    ("topo.fec_delta.refine_ms", "ms"),
    ("core.deploy.format_plan_ms", "ms"),
    ("svc.result_encode_ms", "ms"),
]

PER_LAYER = SERVED_LAYERS + REPLAY_LAYERS + [
    ("unattributed_share", "ratio"),
    ("replay.wall_s", "s"),
]

# Layers on the blocking path of one pure check, as the replay times them.
CHECK_PATH = [
    "config.print_acl_ms",
    "svc.json_dump_ms",
    "svc.json_parse_ms",
    "config.parse_acl_ms",
    "lai.parse_resolve_ms",
    "core.deploy.format_plan_ms",
    "svc.result_encode_ms",
]

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SERVED_TIMEOUT_S = 150
REPLAY_TIMEOUT_S = 25


class BenchError(Exception):
    pass


def log(message):
    print(message, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


# ---- build -----------------------------------------------------------------


def check_sources():
    for required in ("src/CMakeLists.txt", "tools/jinjing_main.cpp"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            raise BenchError("no jinjing sources in %s (missing %s)" % (ROOT, required))


def build():
    check_sources()
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "jinjing", "perfbench_load",
                  "-j", str(nproc())])
    with open(build_log, "a") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as text:
                    tail = text.read()[-4000:]
                raise BenchError("build failed: %s\n%s" % (" ".join(step), tail))
    return os.path.join(BUILD_DIR, "jinjing"), os.path.join(BUILD_DIR, "perfbench_load")


def compiler_id():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                    version = subprocess.run([compiler, "--version"], capture_output=True,
                                             text=True).stdout.splitlines()
                    return version[0] if version else compiler
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds, so two outputs can be
    matched to one tree without git."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def host_line():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none"  # a benchmark checkout need not be a git repository
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    except OSError:
        pass
    return "host: nproc=%d cpu=%r build=Release compiler=%r commit=%s source=%s" % (
        nproc(), cpu, compiler_id(), commit, source_digest())


# ---- running the load generator ---------------------------------------------


def run_load(argv, cwd, timeout):
    """Runs the load generator in its own process group, so that it and the
    server it spawned are killed together on a timeout."""
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %d s" % (argv[1], timeout))
    finally:
        # Also reaps a server orphaned by a crashed load generator.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    if proc.returncode != 0:
        raise BenchError("perfbench_load %s failed:\n%s" % (argv[1], err[-4000:]))
    return json.loads(out.splitlines()[-1])


def served_metrics(raw):
    """The end-to-end metrics of one served run; None where a percentile
    lacks samples."""
    latency = raw["latency_ms"]
    checks = latency["check"]
    completed = sum(len(v) for v in latency.values())
    wire = raw["wire"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "ops_per_s": completed / raw["window_s"],
        "check_p50_ms": pbstats.percentile(checks, 0.50),
        "check_p90_ms": pbstats.percentile(checks, 0.90),
        "wire_kb_per_check": pbstats.ratio(
            wire["check_request_bytes"] + wire["check_response_bytes"], 1000 * wire["checks"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
    }


def layer_metrics(raw, replay, e2e):
    d = pbstats.metrics_delta(raw["metrics_before"], raw["metrics_after"])
    lat = raw["latency_ms"]
    checks = len(lat["check"]) + len(lat["control_check"])
    fixes = len(lat["fix"])
    applies = len(lat["apply"])
    wire = raw["wire"]

    def mean(series, scale=1.0):
        return pbstats.ratio(d.get(series + "_sum", 0), d.get(series + "_count", 0)) * scale

    def total(name):
        return d.get("jinjing_%s_total" % name, 0.0)

    def share(a, b):
        return pbstats.ratio(total(a), total(a) + total(b))

    def pct(kind, q):
        value = pbstats.percentile(lat[kind], q)
        return 0.0 if value is None else value

    m = {
        "svc.queue_wait_ms_mean": mean("jinjing_svc_queue_wait_micros", 1e-3),
        "svc.batch_size_mean": mean("jinjing_svc_batch_size"),
        "svc.coalesced_share": pbstats.ratio(total("svc_batch_jobs_coalesced"),
                                             total("svc_jobs_done")),
        "svc.server_cpu_per_wall": raw["server_cpu_s"] / raw["window_s"],
        "svc.job_run_ms_mean": mean("jinjing_svc_job_run_micros", 1e-3),
        "svc.batch_algebra_builds": total("svc_batch_algebra_builds"),
        "svc.wire.request_kb_per_check": pbstats.ratio(wire["check_request_bytes"],
                                                       1000 * wire["checks"]),
        "svc.wire.response_kb_per_check": pbstats.ratio(wire["check_response_bytes"],
                                                        1000 * wire["checks"]),
        "core.executor.steals_per_run": pbstats.ratio(total("executor_steals"),
                                                      total("executor_runs")),
        "core.obligations_executed_per_check": pbstats.ratio(total("obligations_executed"),
                                                             checks),
        "core.incremental.hit_ratio": share("delta_cache_hits", "delta_cache_misses"),
        "core.incremental.invalidations_per_apply": pbstats.ratio(
            total("delta_cache_invalidations"), applies),
        "core.incremental.rebases_per_apply": pbstats.ratio(total("delta_cache_rebases"),
                                                            applies),
        "smt.sessions_built_per_check": pbstats.ratio(total("smt_sessions_built"), checks),
        "smt.queries_per_check": pbstats.ratio(total("smt_queries"), checks),
        "smt.solve_ms_mean": mean("jinjing_smt_solve_micros", 1e-3),
        "smt.optimize_queries_per_fix": pbstats.ratio(total("smt_optimize_queries"), fixes),
        "topo.fec_cache.hit_ratio": share("fec_cache_hits", "fec_cache_misses"),
        "topo.fec_delta.reused_share": share("fec_delta_reused_atoms", "fec_delta_splits"),
        "topo.fec_delta.rebuilds": total("fec_delta_rebuilds"),
        "client.check_p99_ms": pct("check", 0.99),
        "client.control_check_p50_ms": pct("control_check", 0.50),
        "client.control_check_p90_ms": pct("control_check", 0.90),
        "client.fix_p50_ms": pct("fix", 0.50),
        "client.generate_p50_ms": pct("generate", 0.50),
        "client.apply_p50_ms": pct("apply", 0.50),
    }
    # A layer the workload's ops never call reads 0.
    for name, _ in REPLAY_LAYERS:
        entry = replay["layers"].get(name, {"ms": 0, "per": 0})
        m[name] = pbstats.ratio(entry["ms"], entry["per"])
    verdict = ("core.batch.scan_ms" if m["svc.coalesced_share"] > 0
               else "core.incremental.check_ms")
    blocking = sum(m[name] for name in CHECK_PATH) + m[verdict] + m["svc.queue_wait_ms_mean"]
    m["unattributed_share"] = 1 - pbstats.ratio(blocking, e2e["check_p50_ms"] or 0)
    m["replay.wall_s"] = replay["wall_s"]
    return m


def measure(workload, seed, seconds, trace, tools, quiet=False):
    """One benchmark run; returns the result object of the last line."""
    jinjing, load = tools
    workdir = os.path.join(OUT_DIR, "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    say = (lambda _: None) if quiet else log
    try:
        raw = run_load([load, "run", "--workload", workload, "--seed", str(seed),
                        "--seconds", repr(float(seconds)), "--jinjing", jinjing],
                       workdir, SERVED_TIMEOUT_S)
    except BenchError:
        say("server log kept in %s" % workdir)
        raise
    shutil.rmtree(workdir, ignore_errors=True)

    e2e = served_metrics(raw)
    lat = raw["latency_ms"]
    oracle = raw["oracle"]
    say("server: jinjing serve %s" % " ".join(raw["server_flags"]))
    say("ops: fingerprint=%s (first %d ops) rounds=%d attempted=%d failed=%d window=%.2fs" % (
        pbstats.fnv1a64(raw["op_lines"]), len(raw["op_lines"]), raw["rounds"],
        raw["attempted"], raw["failed"], raw["window_s"]))
    say("latency (ms):   kind            n      p50      p90      p99")
    for kind, samples in lat.items():
        if samples:
            cells = ["%8s" % ("-" if v is None else "%.2f" % v)
                     for v in (pbstats.percentile(samples, q) for q in (0.5, 0.9, 0.99))]
            say("                %-13s %5d %s" % (kind, len(samples), " ".join(cells)))
    subset = ", ".join("%s %d/%d" % (k, n, len(lat[k])) for k, n in oracle["checked"].items()
                       if n)
    say("oracle: %s re-verified, %d mismatches (%.1fs)" % (subset, oracle["mismatches"],
                                                            oracle["seconds"]))
    say("setup boots (s): %s" % " ".join("%.4f" % s for s in raw["setup_s"]))
    for failure in raw["failures"]:
        say("FAIL: %s" % failure)

    missing = [name for name, value in e2e.items() if value is None]
    for name in missing:
        say("FAIL: %s has fewer than %d samples beyond it" % (name, pbstats.MIN_BEYOND))
    correct = raw["failed"] == 0 and oracle["mismatches"] == 0 and not missing

    if trace:
        unit = 1
        delta = pbstats.metrics_delta(raw["metrics_before"], raw["metrics_after"])
        if delta.get("jinjing_svc_batch_size_count", 0):
            unit = max(1, round(delta["jinjing_svc_batch_size_sum"] /
                                delta["jinjing_svc_batch_size_count"]))
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, "trace-%s-%d.json" % (workload, seed))
        replay = run_load([load, "replay", "--workload", workload, "--seed", str(seed),
                           "--unit", str(unit), "--trace-out", trace_path],
                          OUT_DIR, REPLAY_TIMEOUT_S)
        metrics = layer_metrics(raw, replay, {k: v or 0 for k, v in e2e.items()})
        say("replay: %d ops in %.2fs at unit %d, chrome trace %s" % (
            replay["ops"], replay["wall_s"], unit, os.path.relpath(trace_path, ROOT)))
        say("layer                                         value unit   share of check_p50_ms")
        for name, unit_name in PER_LAYER:
            share = ""
            if name in CHECK_PATH or name in ("core.batch.scan_ms", "core.incremental.check_ms",
                                              "svc.queue_wait_ms_mean"):
                share = "%6.1f%%" % (100 * pbstats.ratio(metrics[name], e2e["check_p50_ms"] or 0))
            say("  %-40s %10.4f %-6s %s" % (name, metrics[name], unit_name, share))
        chosen = PER_LAYER
    else:
        metrics = e2e
        chosen = END_TO_END
    return {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name] if metrics[name] is not None else 0,
                           "unit": unit_name} for name, unit_name in chosen},
    }


# ---- steadiness mode ----------------------------------------------------------


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def steady(workloads, first_seed, runs, seconds, tools):
    limits = bounds()
    worst = {}
    for workload in workloads:
        values = {name: [] for name, _ in END_TO_END}
        for i in range(runs):
            seed = first_seed + i
            started = time.time()
            result = measure(workload, seed, seconds, False, tools, quiet=True)
            log("%s seed %d: correct=%s %.0fs %s" % (
                workload, seed, result["correct"], time.time() - started,
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())))
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
        log("%s over %d seeds: metric  median  q1  q3  (q3-q1)/median  [third of bound]" % (
            workload, runs))
        for name, _ in END_TO_END:
            median, q1, q3, spread = pbstats.spread(values[name])
            limit = limits.get(name)
            flag = ""
            if limit is not None and name != "setup_s":
                flag = "ok" if spread < limit / 3 else "TOO NOISY"
            log("  %-20s %12.4f %12.4f %12.4f %8.4f  [%s] %s" % (
                name, median, q1, q3, spread, "-" if limit is None else "%.4f" % (limit / 3),
                flag))
            worst[name] = max(worst.get(name, 0.0), spread)
    log("worst spread: %s" % json.dumps({k: round(v, 4) for k, v in worst.items()}))


# ---- entry point ----------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="one of %s; with --steady a comma list or 'all'" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run each workload N times (seeds seed..seed+N-1) and print "
                             "each metric's median, quartiles and spread")
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else tuple(args.workload.split(","))
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or (len(names) > 1 and not args.steady):
        parser.error("unknown or multiple workloads: %s" % args.workload)
    if not 0 <= args.seed < 2 ** 32:
        parser.error("--seed must fit in 32 bits")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        tools = build()
        log(host_line())
        if args.steady:
            if args.steady < 2:
                parser.error("--steady needs at least 2 runs")
            steady(names, args.seed, args.steady, args.seconds, tools)
            return 0
        log("perfbench: workload=%s seed=%d seconds=%g trace=%d" % (
            names[0], args.seed, args.seconds, args.trace))
        result = measure(names[0], args.seed, args.seconds, args.trace, tools)
    except BenchError as e:
        print("perfbench: error: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
