"""The hlsforge benchmark: one command, three batch workloads, independent checks.

    python3 benchmarks/run.py --workload {xilinx_sample,external_skew,intel_ab}
        --seed N --seconds S --trace {0,1}
    python3 benchmarks/run.py --tiny [--workload NAME] [--seed N]

Run from the root of a checkout holding ``src/hlsforge``. The inputs are
generated from ``--seed`` under ``.bench_runs/``; the program sees only them.
With ``--trace 0`` it times set-up in fresh interpreters, runs the workload in a
child process (closed loop: one run at a time, ``n_workers`` = nproc) rep after
rep for ``--seconds``, checks every rep's outputs and prints the end-to-end
metrics (medians over reps). With ``--trace 1`` it runs one traced rep in its
own process between two plain ones, checks all three, and prints the per-layer
metrics and the tracing overhead (traced wall time over the plain median).
``--tiny`` runs every workload (or the one named) at a tiny scale, traced and
untraced, with all checks. Each invocation deletes its run directory on exit.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170


def _env(root: Path) -> dict:
    paths = [str(root / "src"), str(HERE)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def _child(root: Path, script: str, args: list[str]) -> str:
    proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=root, env=_env(root),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{script} exited with {proc.returncode}")
    return proc.stdout


def setup_seconds(root: Path, workload: str, inputs: Path, probes: int) -> float:
    """Median set-up time over fresh interpreters, after one untimed warm-up
    (the first import in a fresh checkout also compiles the package)."""
    args = ["--workload", workload, "--inputs", str(inputs)]
    _child(root, "setup_probe.py", args)
    return statistics.median(float(_child(root, "setup_probe.py", args)) for _ in range(probes))


def run_reps(root: Path, workload: str, inputs: Path, out: Path, seed: int, seconds: float,
             tiny: bool, trace: bool, max_reps: int = 1000) -> dict:
    out.mkdir(parents=True)
    args = ["--workload", workload, "--inputs", str(inputs), "--out", str(out),
            "--seed", str(seed), "--seconds", str(seconds), "--max-reps", str(max_reps)]
    if tiny:
        args.append("--tiny")
    if trace:
        args.append("--trace")
    _child(root, "workload.py", args)
    return json.loads((out / "workload.json").read_text())


def check_reps(workload: str, spec: dict, out: Path, record: dict, tiny: bool) -> list[str]:
    samples = gen.workload_config(workload, tiny)["samples"]
    errors = []
    for rep in record["reps"]:
        errors += checks.check_rep(workload, spec, out / rep["dir"], samples, record["n_workers"])
        errors += [f"{rep['dir']}: {rep['failed']} of {rep['attempted']} operations failed"] \
            if rep["failed"] else []
    return errors


def end_to_end(record: dict, setup_s: float) -> dict:
    def median(f) -> float:
        return statistics.median(f(rep) for rep in record["reps"])

    return {
        "designs_per_s": (median(lambda r: r["designs"] / r["wall_s"]), "designs/s"),
        "setup_s": (setup_s, "s"),
        "cpu_ms_per_design": (median(lambda r: r["cpu_s"] * 1e3 / r["designs"]), "ms/design"),
        "peak_rss_mb": (record["reps"][0]["peak_rss_mb"], "MB"),
        "disk_bytes_per_design": (median(lambda r: r["work_bytes"] / r["designs"]), "bytes/design"),
        "files_per_design": (median(lambda r: r["work_files"] / r["designs"]), "files/design"),
        "archive_bytes_per_design": (median(lambda r: r["archive_bytes"] / r["designs"]),
                                     "bytes/design"),
    }


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms_per_base", "ms/base"), ("_ms_per_design", "ms/design"),
                         ("_ms_per_template", "ms/template"), ("_us_per_point", "us/point"),
                         ("_us_per_design", "us/design"), ("opens_per_job", "opens/job"),
                         ("opens_per_design", "opens/design"), ("_ms_per_job", "ms/job"),
                         ("_ms_p50", "ms"), ("_ms_p99", "ms"), ("_over_lb", "ratio"),
                         ("_over_sim", "ratio"), ("overhead_ratio", "ratio"),
                         ("_designs", "count"), ("_repeated", "count"), ("_ms", "ms"),
                         ("_us", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> dict:
    run_dir = root / ".bench_runs" / f"{workload}-s{seed}-t{int(trace)}{'-tiny' if tiny else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        inputs = run_dir / "inputs"
        spec = gen.generate(workload, seed, inputs, tiny)
        if not trace:
            setup_s = setup_seconds(root, workload, inputs, 1 if tiny else SETUP_PROBES)
            record = run_reps(root, workload, inputs, run_dir / "timed", seed, seconds, tiny, False)
            errors = check_reps(workload, spec, run_dir / "timed", record, tiny)
            metrics = end_to_end(record, setup_s)
            records = [record]
        else:
            # plain reps before and after the traced one, so host drift cancels
            plain = [run_reps(root, workload, inputs, run_dir / "plain0", seed, seconds, tiny, False, 1)]
            traced = run_reps(root, workload, inputs, run_dir / "traced", seed, seconds, tiny, True, 1)
            plain.append(run_reps(root, workload, inputs, run_dir / "plain1", seed, seconds, tiny, False, 1))
            errors = [e for i, record in enumerate(plain)
                      for e in check_reps(workload, spec, run_dir / f"plain{i}", record, tiny)]
            errors += check_reps(workload, spec, run_dir / "traced", traced, tiny)
            rep_dir = run_dir / "traced" / traced["reps"][0]["dir"]
            outputs = [json.loads((rep_dir / "outputs.json").read_text())]
            spans = root / ".bench_runs" / f"spans-{workload}-s{seed}.jsonl"
            shutil.move(run_dir / "traced" / "spans.jsonl", spans)
            values = tracer.layer_metrics(spans, outputs, tracer.sleep_table(inputs))
            values["trace.overhead_ratio"] = traced["reps"][0]["wall_s"] / statistics.median(
                record["reps"][0]["wall_s"] for record in plain)
            metrics = {name: (value, layer_unit(name)) for name, value in values.items()}
            records = [*plain, traced]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for error in errors:
        print(f"CHECK FAILED [{workload}] {error}", file=sys.stderr)
    reps = [rep for record in records for rep in record["reps"]]
    return {"correct": not errors,
            "attempted": sum(rep["attempted"] for rep in reps),
            "failed": sum(rep["failed"] for rep in reps),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run every workload (or the one named) at a tiny scale, "
                             "untraced and traced, with all output checks")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hlsforge" / "__init__.py").is_file():
        print(f"no src/hlsforge package under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the tracer's schedule model is the program's own
    if args.tiny:
        results = []
        for name in [args.workload] if args.workload else list(gen.WORKLOADS):
            for trace in (False, True):
                started = time.perf_counter()
                result = run_workload(root, name, args.seed, 0.0, trace, tiny=True)
                print(f"{name} trace={int(trace)}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"({time.perf_counter() - started:.1f}s)")
                results.append(result)
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results), "metrics": {}}))
        return 0 if all(r["correct"] for r in results) else 1
    if args.workload is None:
        parser.error("--workload is required unless --tiny is given")
    print(json.dumps(run_workload(root, args.workload, args.seed, args.seconds,
                                  bool(args.trace), tiny=False)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
