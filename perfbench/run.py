#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload campaign|resume|bulk \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the measuring program
(`perfbench/benches`, a package outside the root workspace) and, for the
`campaign` workload, the `repro` binary, into `$CARGO_TARGET_DIR`
(default `.bench_build`). It then runs the workload in a process of its
own, so that the process-global telemetry registry and the peak RSS belong
to that workload alone, and checks the outputs:

* campaign: the `campaign/v1` columns of every untraced and traced pass
  equal each other and what `repro campaign` prints for the same
  arguments;
* resume, bulk: every client round counts its share of what
  `ts_loadgen::run` counts for the same profile, every scheduled
  resumption resumes and every echo comes back byte-equal.

`BENCHMARK.json` lists `resume` and `bulk`. `campaign`, the paper's own
workload, runs the same way but is left out of it: on a shared two-core
host its tail latency and throughput vary between runs by more than any
bound a regression check could use, and one of its checks can fail
because `repro campaign` itself is not deterministic for every seed.

A failed check counts as a failed operation. The report of the run (host,
checks, sample counts, the metrics under the names the workloads use) is
printed first; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
an untraced run with `--trace 0`, the per-layer metrics of a traced run
with `--trace 1`. The traced run also writes its spans to
`$CARGO_TARGET_DIR/perfbench-trace-<workload>.tsv`. The exit code is 0
only when every check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# What each workload runs: the campaign's population size and study days
# (past the 21-day eviction horizon, so eviction is measured), and the
# requests per client in one round of the closed loop.
CAMPAIGN_SIZE = 800
CAMPAIGN_DAYS = 24
ROUND = 500

WORKLOADS = ("campaign", "resume", "bulk")

END_TO_END = (
    "setup_s",
    "ops_per_s",
    "op_p50_us",
    "op_p99_us",
    "cpu_us_per_op",
    "peak_rss_kb",
)

PER_LAYER = (
    "ts_population.build_s",
    "ts_population.builds",
    "ts_crypto.modexp_us",
    "ts_crypto.modexps",
    "ts_crypto.mont_cache_hit_ratio",
    "ts_crypto.x25519_us",
    "ts_crypto.rsa_sign_us",
    "ts_crypto.rsa_verify_us",
    "ts_crypto.aes128gcm_mb_per_s",
    "ts_crypto.sha256_mb_per_s",
    "ts_tls.client_half_us.full",
    "ts_tls.server_half_us.full",
    "ts_tls.client_half_us.resumed",
    "ts_tls.server_half_us.resumed",
    "ts_tls.handshakes.full",
    "ts_tls.handshakes.resumed_sid",
    "ts_tls.handshakes.resumed_ticket",
    "ts_tls.resume_hit_ratio",
    "ts_tls.tickets_issued",
    "ts_tls.stek_rotations",
    "ts_tls.wire_bytes_per_app_byte",
    "ts_simnet.dns_resolve_ns",
    "ts_simnet.connect_us",
    "ts_simnet.connect_failed_pct",
    "ts_scanner.grab_us.p50",
    "ts_scanner.grab_us.p99",
    "ts_scanner.attempts",
    "ts_scanner.retries",
    "ts_scanner.sighting_ratio",
    "ts_scanner.shard_day_ms.p50",
    "ts_scanner.shard_day_ms.max",
    "ts_core.par.day_idle_pct",
    "ts_core.stream.ingest_ns",
    "ts_core.stream.ingest_calls",
    "ts_core.stream.advance_ms",
    "ts_core.stream.merge_ms",
    "ts_core.stream.peak_live_entries",
    "ts_core.stream.evicted_group_ids",
    "ts_telemetry.counter_inc_ns",
    "ts_telemetry.counter_inc_ns.contended",
    "ts_loadgen.worker_busy_pct",
    "unattributed_pct",
    "trace_overhead_pct",
)

# A run must end within 180 s; the first one, which builds, within 900 s.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run(cmd, env, timeout, capture=False):
    """Run `cmd`, its output on stderr unless captured; raise on failure."""
    try:
        proc = subprocess.run(
            cmd,
            env=env,
            timeout=max(timeout, 1),
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=None if capture else sys.stderr,
            text=True,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{cmd[0]} timed out after {e.timeout:.0f} s") from e
    except OSError as e:
        raise BenchError(f"cannot run {cmd[0]}: {e}") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return proc.stdout


def build(env, target, need_repro):
    """Build the measuring program (and `repro`) in release mode."""
    run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/benches/Cargo.toml"],
        env, BUILD_LIMIT_S,
    )
    if need_repro:
        run(["cargo", "build", "--release", "--offline", "--quiet", "--bin", "repro"],
            env, BUILD_LIMIT_S)
    return target / "release" / "perfbench", target / "release" / "repro"


def workload_args(workload):
    if workload == "campaign":
        return ["--size", str(CAMPAIGN_SIZE), "--days", str(CAMPAIGN_DAYS)]
    return ["--round", str(ROUND)]


def last_json_line(text, what):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise BenchError(f"{what} printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"{what} did not end with a JSON line: {e}") from e


def check_against_repro(report, repro, env, seed, deadline):
    """`repro campaign` with the same arguments must print the same columns."""
    out = run(
        [str(repro), "campaign", "--size", str(CAMPAIGN_SIZE), "--seed", str(seed),
         "--days", str(CAMPAIGN_DAYS), "--workers", str(report["host"]["nproc"])],
        env, deadline - time.monotonic(), capture=True,
    )
    want = json.loads(out)
    got = report.get("campaign_v1")
    diff = sorted(k for k in set(want) | set(got or {}) if (got or {}).get(k) != want.get(k))
    return {
        "name": "campaign.columns_equal_repro_campaign",
        "ok": not diff,
        "detail": "identical campaign/v1 document" if not diff else f"differs in {diff}",
    }


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--fault", choices=("columns", "echo"),
                   help="inject a fault that a check must catch (self-test only)")
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        raise BenchError("run from the repository root: no Cargo.toml and crates/ here")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    harness, repro = build(env, target, args.workload == "campaign")

    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += workload_args(args.workload)
    if args.trace:
        cmd += ["--trace-out", str(target / f"perfbench-trace-{args.workload}.tsv")]
    if args.fault:
        cmd += ["--fault", args.fault]
    report = last_json_line(
        run(cmd, env, deadline - time.monotonic(), capture=True), "perfbench")
    if args.workload == "campaign":
        check = check_against_repro(report, repro, env, args.seed, deadline)
        report["checks"].append(check)
        report["failed"] += 0 if check["ok"] else 1

    names = PER_LAYER if args.trace else END_TO_END
    measured = report["per_layer" if args.trace else "end_to_end"]
    missing = [n for n in names if n not in measured]
    if missing:
        raise BenchError(f"perfbench did not report {missing}")
    correct = report["failed"] == 0 and all(c["ok"] for c in report["checks"])
    print(json.dumps(report, indent=1))
    for c in report["checks"]:
        log(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: measured[n] for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"error: {e}")
        sys.exit(2)
