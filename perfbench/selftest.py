#!/usr/bin/env python3
"""Smoke-sized self-test of the benchmark.

    python3 perfbench/selftest.py

Run it from the repository root. It checks that `BENCHMARK.json` keeps
its required format and names exactly the metrics `run.py` prints, runs
the measuring program's unit tests, runs every workload untraced and
traced at smoke size, checks each result's schema, metric names and
units, makes sure an injected fault fails the run, and makes sure the
command fails, without a result, in a directory that holds only
`BENCHMARK.json` and `perfbench/`. Builds and scratch files go under
`$CARGO_TARGET_DIR` (default `.bench_build`).
"""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark command, imported to run it small)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        failures.append(what)


def check_manifest(bench):
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, "BENCHMARK.json has exactly the required keys")
    expect(bench["command"] == ["python3", "perfbench/run.py"], "command runs perfbench/run.py")
    expect(bench["paths"] == ["perfbench"], "paths is the benchmark directory")
    expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
           "run_seconds is a whole number from 1 to 60")
    names = [w["name"] for w in bench["workloads"]]
    expect(2 <= len(names) <= 8 and set(names) <= set(run.WORKLOADS),
           "two to eight workloads, each one run.py runs")
    expect(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"]), "each workload has a one-line why")
    e2e = bench["end_to_end"]
    expect([m["name"] for m in e2e] == list(run.END_TO_END),
           "end_to_end names are the ones run.py prints untraced")
    expect(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in e2e), "every end-to-end metric has a bound of at most 0.25")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in e2e),
           "setup_s is in seconds, lower is better, with the largest bound")
    layer = bench["per_layer"]
    expect([m["name"] for m in layer] == list(run.PER_LAYER),
           "per_layer names are the ones run.py prints traced")
    expect(all(set(m) == {"name", "unit", "better"} for m in layer), "per-layer keys")
    every = e2e + layer
    expect(all(NAME.match(m["name"]) and UNIT.match(m["unit"])
               and m["better"] in ("higher", "lower") for m in every),
           "names, units and directions are well formed")
    expect(len({m["name"] for m in every}) == len(every), "every metric name is used once")


def run_small(argv):
    """Run the benchmark command at smoke size; return (exit code, stdout)."""
    run.CAMPAIGN_SIZE, run.CAMPAIGN_DAYS, run.ROUND = 120, 3, 100
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = run.main(argv)
        except run.BenchError as e:
            run.log(f"error: {e}")
            code = 2
    return code, out.getvalue()


def check_result(stdout, units, what):
    last = json.loads(stdout.strip().splitlines()[-1])
    expect(set(last) == RESULT_KEYS, f"{what}: result has exactly {sorted(RESULT_KEYS)}")
    expect(isinstance(last["attempted"], int) and last["attempted"] >= 1
           and isinstance(last["failed"], int), f"{what}: attempted and failed are counts")
    expect(list(last["metrics"]) == list(units), f"{what}: metric names")
    expect(all(last["metrics"][n]["unit"] == u
               and isinstance(last["metrics"][n]["value"], (int, float))
               for n, u in units.items()), f"{what}: metric values and units")
    return last


def main():
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    check_manifest(bench)
    target = Path(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))

    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/benches/Cargo.toml"])
    expect(tests.returncode == 0, "measuring program's unit tests pass")

    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in run.WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            what = f"{workload} --trace {trace}"
            code, stdout = run_small(["--workload", workload, "--seed", "7",
                                      "--seconds", "1", "--trace", str(trace)])
            last = check_result(stdout, units, what)
            expect(code == 0 and last["correct"] and last["failed"] == 0,
                   f"{what}: correct, exit 0")

    for workload, fault in (("campaign", "columns"), ("bulk", "echo")):
        what = f"{workload} with an injected {fault} fault"
        code, stdout = run_small(["--workload", workload, "--seed", "7", "--seconds", "1",
                                  "--trace", "0", "--fault", fault])
        last = json.loads(stdout.strip().splitlines()[-1])
        expect(code != 0 and not last["correct"] and last["failed"] >= 1,
               f"{what}: not correct, failures counted, exit nonzero")

    bare = target / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(root / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "resume", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the repository the command fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
