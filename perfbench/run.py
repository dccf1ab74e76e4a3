#!/usr/bin/env python3
"""Closed-loop round benchmark of the Ingest-to-answer path.

Builds perfbench/driver.cc against the robust_sampling library of this
source tree (CMake, Release), runs one workload for a seeded input, and
prints the metrics BENCHMARK.json names. Run from the repository root:

    python3 perfbench/run.py --workload quantile-rr --seed 2 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and writes a chrome-trace JSON of the run's spans. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 0 only when every answer checked out. Build files and run records
go under $CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

import summary

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hh-zipf", "quantile-rr", "fanin-3")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no robust_sampling source tree at {ROOT}")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    # git (run by the library's CMakeLists for its sha) must not search
    # above the source tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_driver", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed: {' '.join(step)}")
    return build_dir / "perfbench_driver"


def host_meta(raw):
    """The run's metadata: what it ran on and the host-noise record."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "git_sha": sha,
        "build_type": raw["build_type"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "alu_loop_iterations": raw["alu_iterations"],
        "alu_loop_start_s": raw["alu_start_s"],
        "alu_loop_end_s": raw["alu_end_s"],
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    section = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = Path.cwd() / build_root
    driver = build(build_root / "perfbench")
    out_dir = build_root / "perfbench-out"
    for sub in ("runs", "traces", "work"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    run_name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                f"{stamp}-{os.getpid()}")
    trace_out = out_dir / "traces" / f"{run_name}.json"

    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(out_dir / "work")]
    if args.trace:
        command += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"driver exited with {done.returncode} and no record")
    raw = json.loads(lines[-1])

    try:
        if args.trace:
            metrics, notes = summary.per_layer(raw)
        else:
            metrics, notes = summary.end_to_end(raw)
    except summary.TailRefused as refused:
        fail(str(refused))
    units = {name: m["unit"] for name, m in metrics.items()}
    if units != declared_metrics(args.trace):
        fail("metrics differ from the ones BENCHMARK.json declares")

    meta = host_meta(raw)
    correct = raw["failed"] == 0 and done.returncode == 0
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "meta": meta,
              "notes": notes, "failures": raw["failures"], "result": result}
    if args.trace:
        record["trace_file"] = str(trace_out)
        record["spans"] = raw["spans"]
        record["spans_dropped"] = raw["spans_dropped"]
    with open(out_dir / "runs" / f"{run_name}.json", "w") as f:
        json.dump(record, f, indent=1)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"closed loop, 1 client, {raw['nodes']} ingest node(s), "
          f"{raw['elements_per_round']} elements/round, "
          f"{len(raw['round_ms'])} rounds")
    print(f"# host: {meta['cpu_model']}, nproc={meta['nproc']}, "
          f"build={meta['build_type']}, git={meta['git_sha']}, "
          f"alu loop {meta['alu_loop_start_s']:.4f} s at start, "
          f"{meta['alu_loop_end_s']:.4f} s at end")
    for note in notes:
        print(f"# {note}")
    for failure in raw["failures"]:
        print(f"# FAILED: {failure}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
