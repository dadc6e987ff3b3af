#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload and seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs one workload, and prints the result
record (host and run fingerprint, digest, failures, reconciliation)
followed, as the last line, by the contract result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Metric and workload definitions are in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Sources whose content identifies the build when git is unavailable.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def source_sha():
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "target" and not d.startswith("."))
            files.extend(os.path.join(base, n) for n in sorted(names))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def fingerprint(args):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha": source_sha(),
        "rustc": command_output(["rustc", "--version"]),
        "seed": args.seed,
        "workload": args.workload,
        "mode": "traced" if args.trace == 1 else "untraced",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--expect-digest", help="stats_digest every checked operation must give")
    args = parser.parse_args()

    os.chdir(ROOT)
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    try:
        built = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"build did not finish: {error}")
    if built.returncode != 0:
        fail("build failed")

    # Relative to the checkout root, so the daemon's socket path stays
    # short of the Unix-socket length limit wherever the checkout lives.
    work = os.path.relpath(os.path.join(target, f"perfbench-run-{os.getpid()}"))
    command = [os.path.join(target, "release", "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
    if args.expect_digest:
        command += ["--expect-digest", args.expect_digest]
    try:
        ran = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if ran.returncode != 0:
        fail(f"run exited with status {ran.returncode}")
    result = json.loads(ran.stdout.strip().splitlines()[-1])

    # The record keeps every metric the run measured; the result line
    # carries the declared ones.
    metrics = result["metrics"]
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} missing or not in {metric['unit']}")

    record = dict(fingerprint(args), **result)
    print(f"stats_digest={result['stats_digest']} error_rate={result['error_rate']}")
    for note in result["failures"]:
        print(f"failure: {note}")
    if "reconciliation" in result:
        r = result["reconciliation"]
        print(f"reconciliation: end-to-end {r['end_to_end_ms']:.3f} ms = "
              f"layers {r['layer_sum_ms']:.3f} ms + glue {r['glue_ms']:.3f} ms "
              f"({r['sim.glue_share']:.1%}); traced {r['traced_ms']:.3f} ms "
              f"(overhead {r['trace_overhead_share']:.1%})")
        for layer in r["layers"]:
            print(f"  {layer['layer']:<16} {layer['self_ms']:12.3f} ms  {layer['share']:7.2%}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in declared},
    }))


if __name__ == "__main__":
    main()
