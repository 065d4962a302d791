"""Per-module tracing of hlsforge from outside the package.

``Tracer.install`` wraps every public module-level function of each
``hlsforge`` module and rebinds the wrapper under every name that refers to the
function in any hlsforge module, so calls from one module into another are
timed too. Each call becomes a span ``[id, name, start, end, parent, thread,
opens, attrs]`` kept in memory; ``write`` dumps them once, at the end. File
opens come from a ``sys.addaudithook`` hook and are counted on every span open
on the calling thread. Generator functions are left unwrapped: their span
would end before any work is done.

``layer_metrics`` turns a span file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

MOCK_KINDS = ("mock_synth", "mock_impl")


def sleep_table(inputs: Path) -> dict:
    """(base design, flow name) -> scripted sleep in seconds, read from the inputs."""
    table = {}
    for path in inputs.glob("*/*/sleep_*.txt"):
        table[(path.parent.name, path.stem[len("sleep_"):])] = float(path.read_text())
    return table


class Tracer:
    def __init__(self, sleeps: dict):
        self.sleeps = sleeps
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._built: set = set()
        self._ok_jobs: set = set()
        self._before = {"frontends.execute_frontend": self._before_expand}
        self._after = {
            "frontends.lower_xilinx": self._after_lower,
            "frontends.lower_intel": self._after_lower,
            "toolflows.run_flow": self._after_run_flow,
            "cli.extract_reports": lambda args, kwargs, result: {
                "designs": sum(len(ds.designs) for ds in args[0].values())},
            "aggregate.aggregate_collection": lambda args, kwargs, result: {
                "rows": len(result.rows)},
        }

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    # -- hooks: run outside the span they annotate -------------------------------

    def _before_expand(self, args, kwargs) -> None:
        layout = args[2] if len(args) > 2 else kwargs["layout"]
        self._built = {str(p.parent) for p in
                       layout.work_dir.glob("*__post_frontend/*/data_execution.json")}

    def _after_lower(self, args, kwargs, result) -> dict:
        return {"relowered": str(result.dir) in self._built}

    def _after_run_flow(self, args, kwargs, result) -> dict:
        spec, design = args[0], args[1]
        version = spec.constants.version if spec.kind in MOCK_KINDS else spec.command_template
        key = (result.design_id, spec.name, version)
        repeated = key in self._ok_jobs
        if result.status == "ok":
            self._ok_jobs.add(key)
        return {"kind": spec.kind, "status": result.status, "repeated": repeated,
                "sleep": self.sleeps.get((getattr(design, "base_name", ""), spec.name))}

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        before, after = self._before.get(name), self._after.get(name)
        spans, ids, stack_of, main_stack = self.spans, self._ids, self._stack, self._main_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = stack_of()
            if stack:
                parent = stack[-1][0]
            else:
                parent = main_stack[-1][0] if main_stack and stack is not main_stack else None
            span = [next(ids), name, 0.0, 0.0, parent, threading.get_ident(), 0, None]
            stack.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                spans.append(span)
            if after is not None:
                span[7] = after(args, kwargs, result)
            return result

        return wrapper

    def _audit(self, event: str, args) -> None:
        if event != "open":
            return
        for span in getattr(self._local, "stack", ()):
            span[6] += 1

    def install(self) -> None:
        import hlsforge
        modules = [importlib.import_module(f"hlsforge.{info.name}")
                   for info in pkgutil.iter_modules(hlsforge.__path__)]
        wrapped = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and not inspect.isgeneratorfunction(obj)):
                    wrapped[obj] = self._wrap(f"{short}.{name}", obj)
        for module in modules + [hlsforge]:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])
        sys.addaudithook(self._audit)

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# -- per-layer metrics ---------------------------------------------------------------

def _read_spans(path: Path) -> dict:
    by_name = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            span = json.loads(line)
            by_name[span[1]].append(span)
    return by_name


def _duration(span) -> float:
    return span[3] - span[2]


def _pct(values: list, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _executor_ratios(outputs: list[dict], sleeps: dict) -> dict:
    """Idle worker time, and (for scripted external flows) the build makespan
    against its lower bound and against simulate_schedule's prediction."""
    from hlsforge.executor import simulate_schedule
    idle = makespan = lower = simulated = 0.0
    for timeline in (tl for out in outputs for tl in out["timelines"]):
        span = timeline["makespan_s"]
        busy = defaultdict(float)
        chain = defaultdict(float)
        datasets: dict = defaultdict(list)
        for design_id, dataset, flow, worker, start, end, _status in timeline["records"]:
            busy[worker] += end - start
            if (design_id, dataset) not in chain:
                datasets[dataset].append((design_id, dataset))
            chain[(design_id, dataset)] += end - start
        idle += sum(span - busy[w] for w in range(timeline["n_workers"]))
        if not sleeps:
            continue
        scripted = defaultdict(float)
        for design_id, _dataset, flow, *_rest in timeline["records"]:
            scripted[design_id] += sleeps[(design_id.split("__")[0], flow)]
        makespan += span
        lower += max(sum(scripted.values()) / timeline["n_workers"], max(scripted.values()))
        simulated += simulate_schedule([[chain[key] for key in keys] for keys in datasets.values()],
                                       timeline["n_workers"], "fine_grained")
    return {"executor.idle_worker_s": idle,
            "executor.makespan_over_lb": makespan / lower if lower else 0.0,
            "executor.makespan_over_sim": makespan / simulated if simulated else 0.0}


def layer_metrics(spans_path: Path, outputs: list[dict], sleeps: dict) -> dict:
    by = _read_spans(spans_path)

    def total(*names) -> float:
        return sum(_duration(s) for n in names for s in by.get(n, ()))

    def count(*names) -> int:
        return sum(len(by.get(n, ())) for n in names)

    def mean(scale: float, *names) -> float:
        return total(*names) / count(*names) * scale if count(*names) else 0.0

    def attr_sum(name: str, key: str) -> float:
        return sum((s[7] or {}).get(key, 0) for s in by.get(name, ()))

    def ms(name: str) -> list:
        return [_duration(s) * 1e3 for s in by.get(name, ())]

    run_flow = by.get("toolflows.run_flow", [])
    external = [s for s in run_flow if s[7]["kind"] == "external"]
    extract_designs = attr_sum("cli.extract_reports", "designs")
    rows = attr_sum("aggregate.aggregate_collection", "rows")
    metrics = {
        "frontends.expand_s": total("frontends.execute_frontend"),
        "frontends.sample_ms_per_base": mean(1e3, "frontends.sample_assignments"),
        "frontends.lower_ms_per_design": mean(1e3, "frontends.lower_xilinx", "frontends.lower_intel"),
        "frontends.relowered_designs": (attr_sum("frontends.lower_xilinx", "relowered")
                                        + attr_sum("frontends.lower_intel", "relowered")),
        "optdsl.parse_ms_per_template": mean(1e3, "optdsl.parse_opt_template"),
        "optdsl.decode_us_per_point": mean(1e6, "optdsl.assignment_at"),
        "core.id_us_per_design": mean(1e6, "core.concrete_design_id"),
        "core.load_post_frontend_s": total("core.load_post_frontend"),
        "toolflows.mock_synth_ms_p50": _pct(ms("toolflows.mock_hls_synth"), 50),
        "toolflows.mock_synth_ms_p99": _pct(ms("toolflows.mock_hls_synth"), 99),
        "toolflows.mock_impl_ms_p50": _pct(ms("toolflows.mock_impl"), 50),
        "toolflows.mock_impl_ms_p99": _pct(ms("toolflows.mock_impl"), 99),
        "toolflows.cost_model_us": mean(1e6, "toolflows.compute_mock_synth_metrics"),
        "toolflows.opens_per_job": sum(s[6] for s in run_flow) / len(run_flow) if run_flow else 0.0,
        "toolflows.spawn_ms_per_job": (statistics.fmean(_duration(s) - s[7]["sleep"]
                                                        for s in external) * 1e3
                                       if external else 0.0),
        "executor.build_s": total("executor.execute_parallel_fine_grained"),
        "executor.jobs_repeated": attr_sum("toolflows.run_flow", "repeated"),
        "cli.extract_s": total("cli.extract_reports"),
        "cli.extract_ms_per_design": (total("cli.extract_reports") / extract_designs * 1e3
                                      if extract_designs else 0.0),
        "aggregate.aggregate_s": total("aggregate.aggregate_collection"),
        "aggregate.opens_per_design": (sum(s[6] for s in by.get("aggregate.aggregate_collection", ()))
                                       / rows if rows else 0.0),
        "aggregate.csynth_parse_us": mean(1e6, "aggregate.parse_vitis_csynth_report"),
        "aggregate.export_s": total("aggregate.export_tabular"),
        "aggregate.archive_s": total("aggregate.archive_dataset"),
        "aggregate.load_table_s": total("aggregate.load_table"),
        "analysis.regress_ms": total("analysis.compare_tool_versions") * 1e3,
        "analysis.coverage_ms": total("analysis.coverage_summary") * 1e3,
    }
    metrics.update(_executor_ratios(outputs, sleeps))
    return metrics
