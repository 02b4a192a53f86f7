#!/usr/bin/env python3
"""Run one tpdbt benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --self-check

Run it from the root of a tpdbt checkout.  It builds the benchmark
program (perfbench/_ocaml) with dune in .perfbench/build, runs the
workload, and prints as its last line {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.

Exact counts (guest instructions, engine runs, model cycles, snapshot
bytes, warm-cache hits, result digests) are kept per build and seed
under .perfbench/counts/; a later run of the same build and seed whose
counts differ is reported incorrect.  The full record of every run,
with a host stanza (load average and steal ticks before and after, core
count, file system of the store directory), goes to .perfbench/results/.

--self-check runs every workload at a tiny size, traced and untraced,
and validates each result against the metric names in BENCHMARK.json.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("sweep", "serve", "resume")
ROOT = os.getcwd()
STATE = os.path.join(ROOT, ".perfbench")
SRC = os.path.join(ROOT, "perfbench", "_ocaml")
WORKSPACE = os.path.join(STATE, "build")
EXE = os.path.join(WORKSPACE, "_build", "default", "main.exe")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 160


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        die("no BENCHMARK.json here; run from the root of the checkout")
    with open(path) as f:
        return json.load(f)


def build():
    """Build main.exe in a dune workspace of its own under .perfbench/build.

    The workspace holds the benchmark's own dune project (perfbench/_ocaml,
    which the repository's dune build skips because of the leading "_")
    and a fresh copy of lib/, so the benchmark always builds against the
    checkout's library sources."""
    if not os.path.isdir(SRC) or not os.path.isdir(os.path.join(ROOT, "lib")):
        die("no tpdbt sources here (perfbench/_ocaml, lib/); nothing to build")
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    os.makedirs(WORKSPACE, exist_ok=True)
    for name in os.listdir(WORKSPACE):
        if name != "_build":
            path = os.path.join(WORKSPACE, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    for name in os.listdir(SRC):
        shutil.copy2(os.path.join(SRC, name), WORKSPACE)
    shutil.copytree(os.path.join(ROOT, "lib"), os.path.join(WORKSPACE, "lib"))
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ".", "./main.exe"],
            cwd=WORKSPACE,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def host_sample():
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    with open("/proc/stat") as f:
        cpu = f.readline().split()
    return {
        "time": time.time(),
        "loadavg": load,
        "steal_ticks": int(cpu[8]) if len(cpu) > 8 else None,
    }


def fs_type(path):
    """File system type of the mount holding [path], from mountinfo."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                prefix = mount.rstrip("/") + "/"
                if (path == mount or path.startswith(prefix)) and len(mount) > len(best):
                    best, kind = mount, right.split()[0]
    except OSError:
        pass
    return kind


def run_exe(argv):
    """Run main.exe in its own process group; return its report."""
    proc = subprocess.Popen(
        [EXE] + argv,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("workload did not finish within %d s" % RUN_TIMEOUT, 3)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("main.exe exited with code %d" % proc.returncode, 3)
    return json.loads(lines[-1])


def exe_digest():
    h = hashlib.sha256()
    with open(EXE, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_exact_counts(report, tag):
    """Counts are exact: the same build and seed must reproduce them."""
    exact = {"counts": report["counts"], "digests": report["digests"]}
    d = os.path.join(STATE, "counts")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-%s.json" % (exe_digest(), tag))
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(exact, f, indent=1, sort_keys=True)
        return []
    with open(path) as f:
        ref = json.load(f)
    problems = []
    for section in ("counts", "digests"):
        for name in sorted(set(ref[section]) | set(exact[section])):
            a, b = ref[section].get(name), exact[section].get(name)
            if a != b:
                problems.append(
                    "%s %s = %s, an earlier run of this build and seed gave %s"
                    % (section[:-1], name, b, a)
                )
    return problems


# Per-layer metrics of the layers a workload does not exercise.  They
# read 0; any other per-layer metric a run does not give is an error.
SERVER = {
    "server.offer_ms", "server.translate_ms", "server.run_miss_ms",
    "server.run_hit_ms", "server.probe_ms", "warm_cache.hit_ratio",
    "warm_cache.evictions", "server.overloaded", "req_per_s", "run_p50_ms",
    "run_p90_ms", "translate_p50_ms", "translate_p90_ms",
}
STORES = {
    "engine.capture_ms", "snapshot.count", "snapshot.bytes",
    "exec_snapshot.encode_ms", "exec_snapshot.decode_ms",
    "checkpoint.save_suspended_ms", "checkpoint.save_ms",
    "checkpoint.load_suspended_ms", "journal.append_ms", "journal.open_ms",
    "resume.remainder_s",
}
POOL = {"pool.speedup", "pool.busy_s", "pool.idle_s", "pool.max_task_s",
        "pool.steals"}
STAGES = {
    "spec.build_ms", "engine.avep_s", "engine.train_s", "engine.threshold_s",
    "engine.ips", "engine.alloc_words_per_instr", "engine.truncated_runs",
    "accuracy.assemble_ms",
}
NOT_EXERCISED = {
    "sweep": SERVER | STORES,
    "serve": STORES | POOL | STAGES | {"figures.render_ms"},
    "resume": SERVER | POOL | {"figures.render_ms"},
}


def render(report, bench, workload, trace):
    """The final result line; None and a reason if a metric is missing."""
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        v = report["metrics"].get(m["name"])
        if v is None and trace and m["name"] in NOT_EXERCISED[workload]:
            v = 0
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            return None, "metric %s missing or not a number" % m["name"]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }, None


def run_workload(workload, seed, seconds, trace, quick=False):
    bench = load_benchmark()
    build()
    os.makedirs(STATE, exist_ok=True)
    work = os.path.join(STATE, "work-%d" % os.getpid())
    before = host_sample()
    argv = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--dir", work,
    ] + (["--quick"] if quick else [])
    store_fs = fs_type(STATE)
    report = run_exe(argv)
    after = host_sample()
    tag = "%s-seed%d%s" % (workload, seed, "-quick" if quick else "")
    problems = check_exact_counts(report, tag)
    if problems:
        report["correct"] = False
        report["problems"] = report["problems"] + problems
    report["host"] = {
        "info": report["host"],
        "nproc": os.cpu_count(),
        "before": before,
        "after": after,
        "store_fs": store_fs,
    }
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-trace%d-%d.json" % (tag, trace, int(after["time"] * 1000))
    with open(os.path.join(results, name), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    for p in report["problems"]:
        print("perfbench: check failed: " + p, file=sys.stderr)
    result, why = render(report, bench, workload, trace)
    if result is None:
        die(why, 4)
    return result


def self_check():
    bench = load_benchmark()
    required = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    ok = set(bench) == required
    if not ok:
        print("BENCHMARK.json keys differ from %s" % sorted(required))
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        print("BENCHMARK.json workloads differ from %s" % (WORKLOADS,))
        ok = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.time()
            result = run_workload(workload, 1, 1, trace, quick=True)
            names = sorted(result["metrics"])
            want = sorted(m["name"] for m in bench["per_layer" if trace else "end_to_end"])
            good = result["correct"] and names == want and result["attempted"] >= 1
            ok = ok and good
            print(
                "%-9s trace=%d %s  %d metrics, %d/%d ok, %.1f s"
                % (workload, trace, "ok  " if good else "FAIL", len(names),
                   result["attempted"] - result["failed"], result["attempted"],
                   time.time() - t0)
            )
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        sys.exit(self_check())
    if args.workload is None:
        die("--workload is required")
    if not 1 <= args.seconds <= 600:
        die("--seconds must be between 1 and 600")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
