#!/usr/bin/env python3
"""Repository benchmark: build decbench from source, run one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--smoke]

Run from the root of a checkout. The library and decbench, the benchmark
program, are built with CMake from perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR (default .bench_build). decbench's notes are printed as
"# " lines, then this host's stamp and the comparison with the last result
of the same workload on the same host, and last the result JSON:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every result is appended, stamped with the source revision, nproc, CPU
model, hostname and load average, to .bench_results/results.jsonl. Results
from another host are never compared: the run says "no baseline for this
host" instead. The exit code is 0 only when a result was printed.
"""
import argparse
import hashlib
import json
import os
import socket
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170  # one run must end within 180 s, build excluded
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure once, then an incremental build; returns the decbench path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed")
    return os.path.join(out, "decbench")


def source_revision():
    """The git commit when the checkout is a repository, else a content
    hash of the library and benchmark sources."""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        lines = git.stdout.split()
        # Only this checkout's own repository, not one that encloses it.
        if (git.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_stamp():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "hostname": socket.gethostname(),
    }


def compare(base, new):
    """Metric deltas of `new` against `base`; refuses other hosts."""
    if base is None or base["host"] != new["host"]:
        return ["no baseline for this host"]
    lines = ["baseline %s (%s):" % (base["revision"], base["time"])]
    old = base["result"]["metrics"]
    for name, m in new["result"]["metrics"].items():
        if name not in old:
            lines.append("  %s: new metric" % name)
            continue
        a, b = old[name]["value"], m["value"]
        delta = "" if a == 0 else " (%+.1f%%)" % (100.0 * (b - a) / abs(a))
        lines.append("  %s: %.6g -> %.6g %s%s" % (name, a, b, m["unit"], delta))
    return lines


def last_result(history, new):
    """Most recent result of the same workload and settings on this host;
    None when this host has none."""
    try:
        with open(history) as f:
            records = [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError):
        return None
    for rec in reversed(records):
        if rec["host"] == new["host"] and rec["config"] == new["config"]:
            return rec
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    load_before = os.getloadavg()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish in %d s" % (args.workload,
                                                      RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("decbench exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("decbench printed no result line")

    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "revision": source_revision(),
        "host": host_stamp(),
        "loadavg": {"before": load_before, "after": os.getloadavg()},
        "config": {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "smoke": args.smoke},
        "result": result,
    }
    history = os.path.join(out_dir, "results.jsonl")
    report = compare(last_result(history, record), record)
    with open(history, "a") as f:
        f.write(json.dumps(record) + "\n")

    for line in lines[:-1]:
        print(line)
    host = record["host"]
    print("# stamp: revision %s, nproc %d, cpu %s, host %s, loadavg %s"
          % (record["revision"], host["nproc"], host["cpu_model"],
             host["hostname"],
             " ".join("%.2f" % x for x in record["loadavg"]["before"])))
    for line in report:
        print("# " + line)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
