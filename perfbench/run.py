#!/usr/bin/env python3
"""Build and run the DIO pipeline benchmark.

One run of one workload (what BENCHMARK.json's command runs):

    python3 perfbench/run.py --workload <ycsb_a|storm|live_diag> --seed <n> \
        --seconds <s> --trace <0|1>

builds the benchmark package from source (into $CARGO_TARGET_DIR, default
.bench_build) and runs it. The last line of standard output is the run's
JSON result. With --trace 1 the benchmark's spans are written to
<target>/perfbench-spans/<workload>-<seed>.json.

The steadiness check:

    python3 perfbench/run.py steady [--runs 10] [--seconds 10] [--workloads a,b]

runs two interleaved sets of --runs runs of every workload, each run with
its own seed (set A: 1, 2, ...; set B: 1001, 1002, ...; each run's output
is kept in <target>/perfbench-steady/). For every end-to-end metric it
prints both sets' medians and quartiles, the spread (quartile distance over
median) and the metric's bound, and flags a spread or a median shift wider
than the bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")
    return os.path.join(target_dir(), "release", "dio-perfbench")


def run_once(binary, workload, seed, seconds, trace, capture=False):
    target = target_dir()
    work = os.path.join(target, "perfbench-work", f"{workload}-{seed}")
    env = dict(os.environ, DIO_RESULTS_DIR=os.path.join(target, "perfbench-results"))
    os.makedirs(env["DIO_RESULTS_DIR"], exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work,
           "--spans", os.path.join(target, "perfbench-spans", f"{workload}-{seed}.json")]
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE if capture else None,
                          text=True)
    return done


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(argv):
    runs, seconds, names = 10, None, None
    it = iter(argv)
    for flag in it:
        value = next(it)
        if flag == "--runs":
            runs = int(value)
        elif flag == "--seconds":
            seconds = int(value)
        elif flag == "--workloads":
            names = value.split(",")
        else:
            sys.exit(f"perfbench steady: unknown flag {flag}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = seconds or spec["run_seconds"]
    names = names or [w["name"] for w in spec["workloads"]]
    binary = build()
    ok = True
    for workload in names:
        sets = {"A": [], "B": []}
        for i in range(runs):
            for label, seed in (("A", 1 + i), ("B", 1001 + i)):
                done = run_once(binary, workload, seed, seconds, 0, capture=True)
                logs = os.path.join(target_dir(), "perfbench-steady")
                os.makedirs(logs, exist_ok=True)
                with open(os.path.join(logs, f"{workload}-{label}-{seed}.log"), "w") as f:
                    f.write(done.stdout)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                sets[label].append(result)
                print(f"{workload} set {label} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        print(f"\n{workload}: {runs} runs per set, {seconds}s each")
        print(f"  {'metric':<18}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>8}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for label in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[label]]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians[label] = q2
                flag = "" if name == "setup_s" or spread <= bound else "SPREAD > BOUND"
                ok &= not flag
                print(f"  {name:<18}{label:>4}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.4f}{bound:>8.3f}  {flag}")
            worse = (medians["B"] - medians["A"]) / medians["A"]
            if metric["better"] == "higher":
                worse = -worse
            flag = "SHIFT > BOUND" if worse > bound else ""
            ok &= not flag
            print(f"  {name:<18}{'B/A':>4}{'':>42}{worse:>+9.4f}{bound:>8.3f}  {flag}")
        shares = {l: sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for l, s in sets.items()}
        same = shares["A"] == shares["B"]
        ok &= same and all(r["correct"] for s in sets.values() for r in s)
        print(f"  failed share: A {shares['A']} B {shares['B']} {'' if same else 'DIFFERS'}\n")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


def main(argv):
    if argv[:1] == ["steady"]:
        return steady(argv[1:])
    binary = build()
    args = dict(zip(argv[0::2], argv[1::2]))
    if sorted(args) != ["--seconds", "--seed", "--trace", "--workload"]:
        sys.exit("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    done = run_once(binary, args["--workload"], int(args["--seed"]), args["--seconds"],
                    int(args["--trace"]))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
