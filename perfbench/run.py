#!/usr/bin/env python3
"""The repository benchmark: builds the runner, runs one workload, checks it.

    python3 perfbench/run.py --workload fig2_bpf --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the simulator library from src/) into
.bench_build/perfbench, runs one workload for --seconds, checks every
episode's conservation ledger and delivery digest, and prints a summary
followed, as the last line, by one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (see perfbench/README.md). The full result, with the host
fingerprint, is also written to .bench_build/results/ for compare.py.

    python3 perfbench/run.py --pin 0-99     # rewrite perfbench/digests.json
"""
import argparse
import fcntl
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
RUNNER = BUILD_DIR / "perfbench_run"
DIGESTS = BENCH_DIR / "digests.json"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = ("fig2_bpf", "fib_ecmp_churn", "ring_pdes")

# Per-layer metrics and the workloads on which their layer runs. A metric
# with zero samples on one of these workloads is an error; elsewhere it is
# reported as 0 with zero samples.
LAYER_RUNS_ON = {
    "net.pool.allocs_per_pkt": WORKLOADS,
    "net.pool.high_water": WORKLOADS,
    "ebpf.run_ns": ("fig2_bpf",),
    "ebpf.insns_per_run": ("fig2_bpf",),
    "ebpf.helper_calls_per_run": ("fig2_bpf",),
    "seg6.seg6local.self_ns": ("fig2_bpf",),
    "seg6.fib.lookup_ns": WORKLOADS,
    "seg6.fib.cache_hit_ratio": WORKLOADS,
    "seg6.fib.update_ns": ("fib_ecmp_churn",),
    "seg6.fib.route_records": WORKLOADS,
    "seg6.ecmp.hash_ns": WORKLOADS,
    "sim.datapath.self_ns": WORKLOADS,
    "sim.node.rx_ns": WORKLOADS,
    "sim.node.burst_occupancy": WORKLOADS,
    "sim.node.rx_drop_share": WORKLOADS,
    "sim.link.tx_ns": WORKLOADS,
    "sim.event.events_per_pkt": WORKLOADS,
    "sim.event.ns_per_event": WORKLOADS,
    "sim.event.pending_max": WORKLOADS,
    "sim.pdes.parallel_efficiency": ("ring_pdes",),
    "sim.pdes.mailbox_overflow_spins": ("ring_pdes",),
    "trace.coverage": WORKLOADS,
    "trace.overhead": WORKLOADS,
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds the runner; returns False when that fails."""
    if not (ROOT / "src" / "sim" / "network.h").is_file():
        log("perfbench: no library sources under src/ - nothing to build")
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # The compiler's scratch files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(BUILD_DIR.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode:
                log("perfbench: build step failed: " + " ".join(cmd))
                return False
    return RUNNER.is_file()


def cmake_cache(key):
    try:
        for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def fingerprint():
    """The host and build a result comes from. Results are comparable only
    when every field of "host" matches (compare.py refuses otherwise)."""
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            out = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout
            version = out.splitlines()[0] if out else ""
        except (OSError, subprocess.SubprocessError):
            pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
            commit = commit or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    tree = hashlib.sha256()
    for base in ("src", "perfbench"):
        for p in sorted((ROOT / base).rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".h", ".txt", ".py",
                                            ".json"):
                tree.update(str(p.relative_to(ROOT)).encode())
                tree.update(p.read_bytes())
    return {
        "host": {
            "cpu_model": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "compiler": version or compiler,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        },
        "git_commit": commit,
        "source_sha256": tree.hexdigest(),
    }


def run_runner(workload, seed, seconds, trace, spans=None):
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(60, 3 * float(seconds) + 60))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_run exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pinned_digest(workload, seed):
    try:
        with open(DIGESTS) as f:
            return json.load(f).get(workload, {}).get(str(seed))
    except (OSError, ValueError):
        return None


def layer_errors(workload, metrics):
    """Per-layer metrics missing, or without samples where their layer runs."""
    errors = []
    for name, runs_on in LAYER_RUNS_ON.items():
        m = metrics.get(name)
        if m is None:
            errors.append(f"{name}: not reported")
        elif workload in runs_on and m.get("samples", 0) == 0:
            errors.append(f"{name}: zero samples on {workload}, where the "
                          "layer runs")
    return errors


def describe(name, m):
    text = f"  {name:34s} {m['value']:.6g} {m['unit']}"
    if m.get("stat") == "p10":
        text += (f"  (p10 of {m['samples']} episodes; median "
                 f"{m['median']:.6g}")
        if m.get("pct"):
            text += f"; p{m['pct']:g} {m['pct_value']:.6g}"
        text += ")"
    elif m.get("stat") == "median":
        text += f"  (median of {m['samples']}"
        if m.get("pct"):
            text += f"; p{m['pct']:g} {m['pct_value']:.6g}"
        text += ")"
    elif m.get("samples", 1) == 0:
        text += "  (layer not run)"
    return text


def pin(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    table = {}
    for w in WORKLOADS:
        table[w] = {}
        for s in seeds:
            raw = run_runner(w, s, 0, 0)
            if raw["failed"]:
                raise RuntimeError(f"{w} seed {s} failed: {raw['failures']}")
            table[w][str(s)] = raw["digest"]
            log(f"{w} seed {s}: {raw['digest']}")
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", metavar="LO-HI",
                    help="rewrite digests.json for this seed range")
    args = ap.parse_args(argv)

    try:
        bench = load_benchmark()
    except (OSError, ValueError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return 2
    if not build():
        return 1
    if args.pin:
        pin(args.pin)
        return 0
    if not args.workload:
        ap.error("--workload is required")

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = RESULTS_DIR / f"{stem}.spans.tsv" if args.trace else None
    try:
        raw = run_runner(args.workload, args.seed, args.seconds, args.trace,
                         spans)
    except (RuntimeError, ValueError, IndexError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1

    failures = list(raw["failures"])
    failed = raw["failed"]
    pinned = pinned_digest(args.workload, args.seed)
    if pinned is not None and raw["digest"] != pinned:
        failures.append(f"digest {raw['digest']} != pinned {pinned}")
        failed = raw["attempted"]  # every episode reproduced the wrong one
    if args.trace:
        errors = layer_errors(args.workload, raw["metrics"])
        failures += errors
        if errors:
            failed = max(failed, 1)

    if failures:
        failed = max(failed, 1)

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        m = raw["metrics"].get(spec["name"])
        if m is None:
            log(f"perfbench: runner did not report {spec['name']}")
            return 1
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "pinned_digest": pinned,
        "raw": raw,
        "failures": failures,
    }
    with open(RESULTS_DIR / f"{stem}.json", "w") as f:
        json.dump(result, f, indent=1)

    fp = result["fingerprint"]
    workers = (f", parallel pass on {raw['pdes_threads']} PDES workers"
               if raw["pdes_threads"] and args.trace else "")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{raw['attempted']} episodes{workers}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in fp["host"].items()) +
          f"; commit {fp['git_commit'] or 'n/a'}; "
          f"sources {fp['source_sha256'][:16]}")
    print(f"digest {raw['digest']} "
          f"(pinned: {pinned or 'no pin for this seed'})")
    print("simulated outputs: " +
          ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in raw["sim"].items()))
    for name, m in raw["metrics"].items():
        print(describe(name, m))
    for msg in failures:
        print("FAILED: " + msg)
    print(json.dumps({"correct": failed == 0 and not failures,
                      "attempted": raw["attempted"],
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
