#!/usr/bin/env python3
"""End-to-end benchmark of nkrylov: fp16 F3R against fp64/fp32 F3R and the
flat Krylov solvers, in and out of the last-level cache, plus the nkrylovd
daemon under a closed-loop load.

    python3 e2ebench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 e2ebench/test_stats.py      # self-tests of the statistics

Run from the root of a checkout.  The first run builds the library and the
e2ebench measurement program from the checkout's sources (into $CARGO_TARGET_DIR, default
.bench_build).  Each run starts an nkrylovd on its shipped defaults, runs the
program against it (library phase, then service phase, each for T seconds),
stops it, and prints the regime, every metric by name, and last a JSON line
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics; --trace 1 the per-layer metrics of a separate traced
run, whose Chrome trace-event file is written under the build directory
next to a result-*.json with the raw samples.

Workloads (see BENCHMARK.json for why each exists):
  f3r-membound  hpcg_6_6_5 --scale=2, SPD, n = 1,048,576: beyond the LLC
  f3r-incache   atmosmodd --scale=2, nonsymmetric, n = 262,144: inside it
Both run the same daemon load: 4 clients, hpcg_5_5_5 and atmosmodd at
scale 1, every (matrix, spec) key of f3r@fp16, krylov@fp16;wave=8 and auto
opened cold, then krylov@fp16;wave=8 reads with matrix churn.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("f3r-membound", "f3r-incache")
SOLVERS = ("f3r_fp64", "f3r_fp32", "f3r_fp16", "krylov_fp64", "krylov_fp16")
THREADS = "4"
RUN_DEADLINE_S = 170  # the whole run, build excluded


def log(msg):
    print("e2ebench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("error: " + msg)
    sys.exit(code)


# ---------------------------------------------------------------- build


def build(bench_dir, build_dir):
    repo = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(repo, "src", "CMakeLists.txt")):
        fail("no library sources next to %s; run from a full checkout" % bench_dir, 2)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", build_dir, "-j", THREADS, "--target", "e2ebench"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


# ---------------------------------------------------------------- processes


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith(("NKRYLOV_", "OMP_"))}
    env["OMP_NUM_THREADS"] = THREADS
    return env


def reap(proc, timeout):
    """Wait for `proc` (killing it after `timeout` s); return its peak RSS
    in KiB."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ru.ru_maxrss


def start_daemon(build_dir, socket_path):
    if os.path.exists(socket_path):
        os.unlink(socket_path)
    with open(socket_path + ".log", "w") as daemon_log:
        daemon = subprocess.Popen(
            [os.path.join(build_dir, "nkrylov", "examples", "nkrylovd"), "--socket", socket_path],
            stdout=subprocess.DEVNULL, stderr=daemon_log, env=child_env())
    deadline = time.monotonic() + 30
    while not os.path.exists(socket_path):
        if daemon.poll() is not None:
            fail("nkrylovd exited at start-up (see %s.log)" % socket_path)
        if time.monotonic() > deadline:
            daemon.kill()
            reap(daemon, 10)
            fail("nkrylovd did not come up (see %s.log)" % socket_path)
        time.sleep(0.02)
    return daemon


def run_bench(build_dir, args, socket_path, trace_out):
    """Run the measurement program against a fresh daemon; return its raw
    JSON and the peak RSS (MiB) of the program plus the daemon."""
    daemon = start_daemon(build_dir, socket_path)
    bench = None
    try:
        bench = subprocess.Popen(
            [os.path.join(build_dir, "e2ebench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--socket", socket_path, "--trace-out", trace_out],
            stdout=subprocess.PIPE, env=child_env(), text=True)
        killer = threading.Timer(RUN_DEADLINE_S, bench.kill)
        killer.start()
        try:
            out = bench.stdout.read()
            bench_kib = reap(bench, 10)
        finally:
            killer.cancel()
    finally:
        if bench is not None and bench.returncode is None:
            bench.kill()
            reap(bench, 10)
        daemon.send_signal(signal.SIGTERM)
        daemon_kib = reap(daemon, 30)
    if bench.returncode != 0:
        fail("e2ebench exited with %d" % bench.returncode)
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        fail("e2ebench printed no result")
    return json.loads(lines[-1]), (bench_kib + daemon_kib) / 1024.0


# ---------------------------------------------------------------- metrics


def solves_of(raw, solver, traced=False):
    return [s for s in raw["library"]["solves"]
            if s["solver"] == solver and s["traced"] == traced]


def pairs(raw, ratio):
    """(numerator, denominator) times of the back-to-back pairs behind
    `ratio`; each round times every pair in both orders."""
    return [(p["num"], p["den"]) for p in raw["library"]["pairs"] if p["ratio"] == ratio]


def end_to_end(raw, rss_mib):
    lib, svc = raw["library"], raw["service"]
    # Library set-up, plus the daemon's one-time costs: uploads and the
    # first request of every (matrix, spec) key, tuning included.
    setup = stats.median([s["total_s"] for s in lib["setups"]]) + stats.median(svc["cold_s"])
    m = {"setup_s": (setup, "s")}
    for s in SOLVERS:
        m[s + "_s"] = (stats.median([x["seconds"] for x in solves_of(raw, s)]), "s")
    for ratio in ("f3r_fp16_speedup", "f3r_fp16_vs_fp32"):
        m[ratio] = (stats.pair_ratio(pairs(raw, ratio)), "x")
    m["peak_rss_mib"] = (rss_mib, "MiB")
    m["ok_frac"] = (1.0 - raw["failed"] / raw["attempted"], "frac")
    m.update(service_metrics(svc["requests"]))
    return m


SVC_BLOCK = 50  # completed requests per block for throughput and median latency


def service_metrics(requests):
    """Throughput and latency of the closed loop, each the median over
    consecutive blocks of completed requests: SVC_BLOCK requests for the
    throughput and the median latency, twice that for the p90, so each
    block's p90 has ten samples beyond it.  The median over blocks keeps a
    burst of CPU taken by other guests, which stalls a block or two, out of
    the result."""
    done = sorted(requests, key=lambda r: r["done_s"])
    if len(done) < 2 * SVC_BLOCK:
        fail("only %d requests: too few for a p90 with ten samples beyond" % len(done))
    rates, p50s = [], []
    t0 = 0.0
    for b in stats.blocks(done, SVC_BLOCK):
        rates.append(sum(r["cols"] for r in b) / (b[-1]["done_s"] - t0))
        t0 = b[-1]["done_s"]
        p50s.append(stats.median([r["ms"] for r in b]))
    p90s = [stats.tail_percentile([r["ms"] for r in b], 90)
            for b in stats.blocks(done, 2 * SVC_BLOCK)]
    return {"svc_cols_per_s": (stats.median(rates), "1/s"),
            "svc_req_p50_ms": (stats.median(p50s), "ms"),
            "svc_req_p90_ms": (stats.median(p90s), "ms")}


def per_layer(raw):
    lib, svc = raw["library"], raw["service"]
    setups = lib["setups"]
    med = lambda key: stats.median([s[key] for s in setups])  # noqa: E731
    m = {
        "sparse.prepare_s": (med("prepare_s"), "s"),
        "sparse.copy_s": (med("mat_copy_s"), "s"),
        "sparse.value_bytes": (lib["value_bytes"], "B"),
        "precond.factor_s": (med("factor_s"), "s"),
        "precond.copy_s": (med("m_copy_s"), "s"),
        "core.session_build_s": (med("session_s"), "s"),
    }
    for k, ms in sorted(lib["spmv_ms"].items()):
        m["sparse.spmv_%s_ms" % k] = (ms, "ms")
        m["sparse.spmv_%s_gbps" % k] = (lib["spmv_bytes"][k] / (ms * 1e-3) / 1e9, "GB/s")
    for k, ms in sorted(lib["convert_ms"].items()):
        m["core.convert_ms.%s" % k] = (ms, "ms")
    for s in SOLVERS:
        traced = solves_of(raw, s, traced=True)
        plain = solves_of(raw, s)
        m["precond.apply_s." + s] = (stats.median([x["m_seconds"] for x in traced]), "s")
        m["precond.applies." + s] = (stats.median([x["applies"] for x in traced]), "count")
        m["krylov.iters." + s] = (stats.median([x["iterations"] for x in traced]), "count")
        m["krylov.rest_s." + s] = (
            stats.median([x["seconds"] - x["m_seconds"] for x in traced]), "s")
        m["trace.overhead." + s] = (
            stats.median([x["seconds"] for x in traced]) /
            stats.median([x["seconds"] for x in plain]), "x")
    # Service counters over the closed loop (cold phases excluded); tuner
    # counters over the whole service phase.
    before, warm, after = svc["stats_before"], svc["stats_warm"], svc["stats_after"]
    d = lambda key: after.get(key, 0) - warm.get(key, 0)  # noqa: E731
    hits, misses = d("session_hits"), d("session_misses")
    batches = d("batches")
    m["service.put_ms"] = (stats.median(svc["put_ms"] + [r["put_ms"] for r in svc["requests"]
                                                          if r["churn"]]), "ms")
    m["service.session_hit_ratio"] = (hits / max(1, hits + misses), "frac")
    m["service.cols_per_batch"] = (d("columns") / max(1, batches), "count")
    m["service.merged_batch_frac"] = (d("merged_batches") / max(1, batches), "frac")
    m["service.requests"] = (len(svc["requests"]), "count")
    m["service.cold_s"] = (stats.median(svc["cold_s"]), "s")
    m["tune.cold_ms"] = (stats.median(svc["tune_cold_ms"]), "ms")
    for k in ("probes", "hits", "misses"):
        key = "tuner_" + k
        m["tune." + k] = (after.get(key, 0) - before.get(key, 0), "count")
    m["fail_frac"] = (raw["failed"] / raw["attempted"], "frac")
    return m


def count_mismatches(raw):
    """Traced solves must reproduce the untraced iteration and M-apply
    counts; returns the solvers where they do not."""
    bad = []
    for s in SOLVERS:
        counts = {(x["iterations"], x["applies"]) for x in solves_of(raw, s)}
        traced = {(x["iterations"], x["applies"]) for x in solves_of(raw, s, traced=True)}
        if traced and counts != traced:
            bad.append(s)
    return bad


def regime_lines(raw, llc):
    lib = raw["library"]
    yield ("regime: workload=%s seed=%d matrix=%s scale=%d symmetric=%s n=%d nnz=%d "
           "value_bytes=%d working_set_bytes=%d (computed) llc=%s threads=%d" % (
               raw["workload"], raw["seed"], lib["matrix"], lib["scale"], lib["symmetric"],
               lib["n"], lib["nnz"], lib["value_bytes"], lib["working_set_bytes"], llc,
               raw["threads"]))
    yield "env: %s steal_s=%.2f" % (raw["env"], raw["steal_s"])
    yield "specs: " + " ".join("%s=%s" % kv for kv in raw["specs"].items())
    svc = raw["service"]
    yield ("service: clients=%d k=%d churn_every=%d specs=%s requests=%d" % (
        svc["clients"], svc["k"], svc["churn_every"], ",".join(svc["specs"]),
        len(svc["requests"])))


def declared_metrics(section):
    """Metric names BENCHMARK.json (at the checkout root) declares in
    `section`, or None when there is no such file."""
    try:
        with open("BENCHMARK.json") as f:
            return {m["name"] for m in json.load(f)[section]}
    except OSError:
        return None


def cpu_steal_s():
    """Seconds of CPU time the hypervisor gave to other guests so far (all
    CPUs), or 0 where /proc/stat has no steal column."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def llc_size():
    try:
        base = "/sys/devices/system/cpu/cpu0/cache"
        best = None
        for idx in sorted(d for d in os.listdir(base) if d.startswith("index")):
            with open(os.path.join(base, idx, "level")) as f:
                level = int(f.read())
            with open(os.path.join(base, idx, "size")) as f:
                size = f.read().strip()
            if best is None or level >= best[0]:
                best = (level, size)
        return best[1] if best else "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")
    build(bench_dir, build_dir)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    # Relative to the checkout root: Unix socket paths are short.
    socket_path = os.path.join(build_dir, "d%d.sock" % os.getpid())
    trace_out = os.path.abspath(os.path.join(build_dir, "trace-%s.json" % tag))
    steal0 = cpu_steal_s()
    raw, rss_mib = run_bench(build_dir, args, socket_path, trace_out)
    raw["steal_s"] = cpu_steal_s() - steal0

    metrics = per_layer(raw) if args.trace else end_to_end(raw, rss_mib)
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if declared is not None and declared != set(metrics):
        fail("metrics differ from BENCHMARK.json: %s" % sorted(declared ^ set(metrics)))
    mismatched = count_mismatches(raw) if args.trace else []
    correct = raw["failed"] == 0 and not mismatched
    for line in regime_lines(raw, llc_size()):
        print(line)
    if not args.trace:
        for ratio, base in (("f3r_fp16_speedup", "f3r@fp64"), ("f3r_fp16_vs_fp32", "f3r@fp32")):
            print("ratio: %s = median over %d back-to-back pairs of %s time / f3r@fp16 time"
                  % (ratio, len(pairs(raw, ratio)), base))
        n = len(raw["service"]["requests"])
        print("service: svc_cols_per_s and svc_req_p50_ms are medians over %d blocks of %d "
              "requests, svc_req_p90_ms over %d blocks of %d (%d requests in all)"
              % (n // SVC_BLOCK, SVC_BLOCK, n // (2 * SVC_BLOCK), 2 * SVC_BLOCK, n))
    for name, (value, unit) in metrics.items():
        print("metric %-34s %14.6g %s" % (name, value, unit))
    if mismatched:
        print("traced counts differ from untraced for: " + ", ".join(mismatched))
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(build_dir, "result-%s.json" % tag), "w") as f:
        json.dump({"raw": raw, "llc": llc_size(), "result": result}, f)
    print(json.dumps(result), flush=True)
    if raw["wrong_converged"]:
        fail("%d answers reported converged have a true residual above rtol"
             % raw["wrong_converged"])


if __name__ == "__main__":
    main()
