"""Runs one workload against the hlsforge package, rep after rep, in its own process.

    python3 benchmarks/workload.py --workload NAME --inputs DIR --out DIR
        --seed N --seconds S [--trace] [--max-reps K]

Each rep is the whole workload in a fresh work tree under ``<out>/rep<k>/``.
Only calls into hlsforge are inside the timed window; loading the source
datasets and building the flow specs (the set-up ``setup_s`` measures) happen
before it, and the footprint walk and the dump of in-memory outputs the checks
need happen after it. Reps repeat until another one would overrun ``--seconds``.
The process's own record goes to ``<out>/workload.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402

N_WORKERS = len(os.sched_getaffinity(0))


def _cpu_s() -> float:
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def footprint(root: Path) -> tuple[int, int]:
    """(regular files, bytes) under root."""
    n_files = n_bytes = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            st = os.lstat(os.path.join(dirpath, name))
            n_files += 1
            n_bytes += st.st_size
    return n_files, n_bytes


def mock_flows(constants: dict | None = None) -> list[dict]:
    extra = {"constants": constants} if constants else {}
    return [{"type": "mock_synth", **extra}, {"type": "mock_impl", **extra}]


def perturbed_overrides() -> dict:
    """Tool version B as constant overrides, taken from the program's own definition."""
    from hlsforge.toolflows import MockCostConstants, perturbed_constants
    base, b = MockCostConstants(), perturbed_constants()
    return {f: getattr(b, f) for f in base.__dataclass_fields__ if getattr(b, f) != getattr(base, f)}


def raw_flow_sets(workload: str) -> list[list[dict]]:
    if workload == "external_skew":
        return [gen.external_flows()]
    if workload == "intel_ab":
        return [mock_flows(), mock_flows(perturbed_overrides())]
    return [mock_flows()]


class Rep:
    """One run of a workload in work tree ``rep_dir/work``."""

    def __init__(self, workload: str, config: dict, inputs: Path, rep_dir: Path, seed: int):
        from hlsforge.cli import build_flow_specs
        from hlsforge.core import WorkspaceLayout, load_dataset
        self.workload, self.config, self.seed = workload, config, seed
        self.work = rep_dir / "work"
        self.archive = rep_dir / "dataset.zip"
        self.layout = WorkspaceLayout(self.work)
        self.sources = {name: load_dataset(inputs / name, name) for name, _ in config["datasets"]}
        self.specs = [build_flow_specs(raw) for raw in raw_flow_sets(workload)]
        self.attempted = self.failed = 0
        self.dump: dict = {"timelines": []}

    def expand(self, n_samples: int) -> None:
        from hlsforge.frontends import FrontendConfig, execute_frontend
        config = FrontendConfig(vendor=self.config["vendor"], random_sample=True,
                                n_samples=n_samples, seed=self.seed)
        result = execute_frontend(self.sources, config, self.layout)
        self.attempted += sum(lowered for _space, lowered in result.sizes.values())
        self.attempted += len(result.failures)
        self.failed += len(result.failures)

    def build(self, specs) -> None:
        from hlsforge.cli import extract_reports, run_flows
        from hlsforge.core import load_post_frontend
        from hlsforge.executor import write_timeline
        collection = load_post_frontend(self.work)
        results, timeline = run_flows(collection, specs, "fine_grained", N_WORKERS, False)
        extract_reports(collection, specs, results)
        write_timeline(self.work / "timeline.json", timeline)
        for by_design in results.values():
            self.attempted += len(by_design)
            self.failed += sum(o.status != "ok" for o in by_design.values())
        self.dump["timelines"].append(timeline)

    def export(self, stem: str):
        from hlsforge.aggregate import aggregate_collection, export_tabular
        table = aggregate_collection(self.work)
        export_tabular(table, self.work / f"{stem}.csv", format="csv")
        export_tabular(table, self.work / f"{stem}.jsonl", format="jsonl")
        return table

    def run(self):
        """The timed part; returns the final table."""
        from hlsforge.aggregate import archive_dataset, load_table
        from hlsforge.analysis import compare_tool_versions, coverage_summary
        samples = self.config["samples"]
        if self.workload == "external_skew":
            self.expand(samples)
            self.build(self.specs[0])
            self.export("aggregated_round1")
            self.expand(2 * samples)
            self.build(self.specs[0])
            table = self.export("aggregated")
        elif self.workload == "intel_ab":
            self.expand(samples)
            self.build(self.specs[0])
            self.export("aggregated_A")
            self.build(self.specs[1])
            table = self.export("aggregated_B")
            table_a = load_table(self.work / "aggregated_A.csv")
            table_b = load_table(self.work / "aggregated_B.csv")
            self.dump["regression"] = compare_tool_versions(table_a, table_b)
            self.dump["coverage"] = coverage_summary(table_b)
        else:
            self.expand(samples)
            self.build(self.specs[0])
            table = self.export("aggregated")
        archive_dataset(self.work, self.archive)
        return table

    def write_outputs(self, path: Path) -> None:
        """In-memory outputs of the program the checks read (written after timing)."""
        out = {"timelines": [{"n_workers": tl.n_workers, "makespan_s": tl.makespan(),
                              "records": [[r.job.design_id, r.job.dataset_name, r.job.flow_name,
                                           r.worker_index, r.start_s, r.end_s, r.status]
                                          for r in tl.records]}
                             for tl in self.dump["timelines"]]}
        if "regression" in self.dump:
            out["regression"] = self.dump["regression"].to_json_dict()
            out["coverage"] = self.dump["coverage"].to_json_dict()
        path.write_text(json.dumps(out) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--max-reps", type=int, default=1000)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(tracing.sleep_table(args.inputs))
        tracer.install()
    import hlsforge  # noqa: F401  (imported before the first rep, outside any timing)

    config = gen.workload_config(args.workload, args.tiny)
    reps = []
    started = time.perf_counter()
    while len(reps) < args.max_reps:
        rep_dir = args.out / f"rep{len(reps)}"
        rep = Rep(args.workload, config, args.inputs, rep_dir, args.seed)
        t0, c0 = time.perf_counter(), _cpu_s()
        table = rep.run()
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
        n_files, n_bytes = footprint(rep.work)
        rep.write_outputs(rep_dir / "outputs.json")
        reps.append({"dir": rep_dir.name, "wall_s": wall, "cpu_s": cpu,
                     "designs": len({row.design_id for row in table.rows}),
                     "work_files": n_files, "work_bytes": n_bytes,
                     "archive_bytes": rep.archive.stat().st_size,
                     "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                     "attempted": rep.attempted, "failed": rep.failed})
        elapsed = time.perf_counter() - started
        if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
    record = {"reps": reps, "n_workers": N_WORKERS}
    if tracer is not None:
        tracer.write(args.out / "spans.jsonl")
    (args.out / "workload.json").write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
