#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One workload run, one process; the last stdout line is the JSON result:

  python3 perfbench/run.py --workload sweep_h3_vct --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, with one command:

  python3 perfbench/run.py all --seed 1 --seconds 20

Compare two result logs (refused unless both come from one host class):

  python3 perfbench/run.py compare BASE.jsonl HEAD.jsonl

Everything the benchmark builds or writes lives under .bench_build/ at the
repository root: the CMake build, per-run temp dirs (removed after each
run) and results.jsonl, one host-stamped record per run.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RESULTS = os.path.join(OUT, "results.jsonl")
WORKLOADS = ["scale_h8_un", "sweep_h3_vct", "manifest_h4_wh"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure and bring the Release build up to date."""
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def run_one(workload, seed, seconds, trace):
    """Run the binary once in a fresh temp dir; return (host, result)."""
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        proc = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--tmp", tmp],
            cwd=tmp, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    host = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("# host "):
            host = json.loads(line[len("# host "):])
    result = json.loads(lines[-1])
    want = {m["name"] for m in spec()["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != want:
        raise RuntimeError(f"metrics {sorted(got ^ want)} do not match "
                           "BENCHMARK.json")
    with open(RESULTS, "a") as f:
        f.write(json.dumps({"time": time.time(), "host": host,
                            "workload": workload, "seed": seed,
                            "seconds": seconds, "trace": trace,
                            "result": result}) + "\n")
    return host, result


def cmd_run(args):
    build()
    _, result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


def cmd_all(args):
    build()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            log(f"== {workload} trace={trace}")
            _, result = run_one(workload, args.seed, args.seconds, trace)
            print(json.dumps(result))
            ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def cmd_compare(args):
    base, head = load_records(args.base), load_records(args.head)
    classes = {json.dumps(r.get("host"), sort_keys=True) for r in base + head}
    if len(classes) != 1 or None in (r.get("host") for r in base + head):
        log("refusing to compare results from different host classes:")
        for c in sorted(classes):
            log(f"  {c}")
        return 2
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    worse = 0
    print("workload,trace,metric,unit,base_median,head_median,ratio,verdict")
    keys = sorted({(r["workload"], r["trace"]) for r in base + head})
    for workload, trace in keys:
        def values(recs, name):
            return [r["result"]["metrics"][name]["value"] for r in recs
                    if r["workload"] == workload and r["trace"] == trace
                    and name in r["result"]["metrics"]]
        names = sorted({n for r in base + head
                        if (r["workload"], r["trace"]) == (workload, trace)
                        for n in r["result"]["metrics"]})
        for name in names:
            b, h = values(base, name), values(head, name)
            if not b or not h:
                continue
            bm, hm = statistics.median(b), statistics.median(h)
            ratio = hm / bm if bm else float("nan")
            verdict = ""
            if name in bounds and bm:
                lower = bounds[name]["better"] == "lower"
                change = (hm - bm) / bm if lower else (bm - hm) / bm
                verdict = "worse" if change > bounds[name]["bound"] else "ok"
                worse += verdict == "worse"
            unit = next(r["result"]["metrics"][name]["unit"] for r in head
                        if name in r["result"]["metrics"])
            print(f"{workload},{trace},{name},{unit},{bm:.6g},{hm:.6g},"
                  f"{ratio:.4f},{verdict}")
    return 1 if worse else 0


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("head")
        return cmd_compare(p.parse_args(argv[1:]))
    if argv[:1] == ["all"]:
        p = argparse.ArgumentParser(prog="run.py all")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=int, default=spec()["run_seconds"])
        return cmd_all(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    try:
        sys.exit(main() or 0)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
