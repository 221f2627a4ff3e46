#!/usr/bin/env python3
"""Run the IVAN benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/main.exe with dune, trains the zoo models
into perfbench/out/zoo if they are not there yet (a separate process, so
no timed run trains), runs one workload and checks that its result line
carries exactly the metrics BENCHMARK.json declares for that trace mode,
with their units.  The last line of standard output is that result.

--smoke runs a few instances of every workload in both trace modes and
makes the same check: a self-test that finishes in about a minute.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def call(cmd, timeout, env, capture=False):
    """Run [cmd] in the checkout; on timeout kill it and wait for it."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{' '.join(cmd)} timed out after {timeout} s")
    return proc.returncode, out


def prepare():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("not a source checkout: dune-project or lib/ missing beside perfbench/")
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    # Keep every write inside the checkout: no shared dune cache.
    env["DUNE_CACHE"] = "disabled"
    env["IVAN_ZOO_CACHE"] = os.path.join(OUT, "zoo")
    code, _ = call(["dune", "build", "--root", ROOT, "./perfbench/main.exe"], 800, env)
    if code != 0:
        fail("build failed")
    code, _ = call([EXE, "warm"], 600, env)
    if code != 0:
        fail("training the zoo models failed")
    return env


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(env, workload, seed, seconds, trace, smoke=False, echo=True):
    cmd = [EXE, "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", os.path.relpath(OUT, ROOT)]
    if smoke:
        cmd.append("--smoke")
    code, out = call(cmd, 175, env, capture=True)
    lines = out.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload}: no result line (exit code {code})")
    _, want = declared(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"{workload}: result does not match BENCHMARK.json (missing {missing}, extra {extra}, wrong unit {wrong})")
    return code, lines[-1], result


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    env = prepare()
    if a.smoke:
        spec, _ = declared(0)
        for w in spec["workloads"]:
            for trace in (0, 1):
                code, _, result = run(env, w["name"], a.seed, a.seconds, trace, smoke=True, echo=False)
                print(f"smoke {w['name']} trace {trace}: exit {code}, correct {result['correct']}, "
                      f"{result['failed']}/{result['attempted']} failed, {len(result['metrics'])} metrics", flush=True)
                if code != 0:
                    sys.exit(code)
        return
    if not a.workload:
        fail("--workload is required")
    code, line, _ = run(env, a.workload, a.seed, a.seconds, a.trace)
    print(line, flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
