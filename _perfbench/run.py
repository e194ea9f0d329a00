#!/usr/bin/env python3
"""Build and run Falcon's wall-clock benchmark.

Run from the repository root:

    python3 _perfbench/run.py --workload train-products --seed 1 --seconds 20 --trace 0

builds the benchmark (a Go module in this directory that uses the
repository through a replace directive) into .bench_build/, runs one
workload and passes its output through; the last output line is the JSON
result. Build caches stay under .bench_build/ in the repository root.

    python3 _perfbench/run.py --steady 5 --workload serve-products --seconds 20

runs the workload five times with seeds 1..5 and prints each metric's
median and quartiles, flagging any whose spread (interquartile range over
median) exceeds its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                          stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(args, seed, capture=False):
    workload = args.workload
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", os.path.join(BUILD, "perfbench")]
    # The traced run reduces its CPU profile with `go tool pprof`, so the
    # benchmark gets the same local, offline Go environment as the build.
    with subprocess.Popen(cmd, cwd=ROOT, env=go_env(), stdout=subprocess.PIPE if capture else None) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT}s")
        except BaseException:
            # Interrupted or terminated: stop the benchmark before exiting.
            proc.kill()
            proc.wait()
            raise
    return proc.returncode, out.decode() if capture else ""


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}


def steady(args):
    limit = bounds()
    values = {}
    units = {}
    for seed in range(1, args.steady + 1):
        t0 = time.time()
        code, out = run_once(args, seed, capture=True)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            sys.exit(f"perfbench: seed {seed} failed (exit {code})")
        res = json.loads(lines[-1])
        print(f"seed {seed}: {time.time() - t0:.1f}s correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    flagged = []
    print(f"\n{args.workload}: {args.steady} runs, seeds 1..{args.steady}")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in sorted(values):
        vs = values[name]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        b = limit.get(name)
        mark = ""
        if b is not None and spread > b:
            mark = "  EXCEEDS BOUND"
            flagged.append(name)
        elif b is not None and spread > b / 3:
            mark = "  above bound/3"
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {b if b is not None else '-':>6}{mark} {units[name]}")
    if flagged:
        sys.exit(f"perfbench: spread exceeds bound: {', '.join(flagged)}")


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0, help="run N seeds and report each metric's spread")
    args = p.parse_args()
    build()
    if args.steady:
        steady(args)
        return
    code, _ = run_once(args, args.seed)
    sys.exit(code)


if __name__ == "__main__":
    main()
