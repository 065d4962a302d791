"""Parallel execution of tool-flow chains over design collections.

The job unit is one design's chain: the configured flows, in order, then the
design's data_*.json from the reports they left (toolflows.extract_design). Two
strategies: fine_grained keeps one shared FIFO queue of chains for every design
of every dataset, so a worker that finishes early takes the next chain of any
dataset; naive runs the datasets one after another, draining the workers
between them (the barrier real batch scripts tend to have). Every chain runs on
the one pool of forked processes that lowering uses (pool.fork_imap), and a build
is one stream of their results (run_chains): a chain sends back its worker's
index and its spans, (start, end, status, error class name) on time.monotonic,
one per flow and one for the extraction. Mock chains go out in chunks; a chain
with an external flow can run for hours, so such chains go out one at a time and
a worker takes the next only when it is free. A chain whose worker dies fails
alone, at the time of the loss on worker -1, with WorkerLost in each flow's log
and span, and the build goes on. simulate_schedule replays either policy on
given durations without running anything, to plan and to size the gap.
"""

from __future__ import annotations

import heapq
import subprocess  # noqa: F401
import sys
import time
from contextlib import closing, suppress
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

# A chain runs toolflows code that imports aggregate (and with it ElementTree) and
# subprocess only where it is used; both are loaded here, before the pool forks, so
# no worker loads a module. pool brings signal and traceback.
from . import aggregate
from .core import STRATEGIES, DatasetCollection, replace_on_success, write_json
from .errors import WorkerLost
from .pool import current_worker, fork_imap
from .toolflows import (
    KIND_EXTERNAL,
    STATUS_FAILED,
    STATUS_OK,
    FlowOutcome,
    ToolFlowSpec,
    extract_design,
    failed_outcome,
    flow_log,
    run_flow,
    tool_version,
    write_log,
)


@dataclass(frozen=True, slots=True)
class Job:
    design_id: str
    dataset_name: str
    flow_name: str


@dataclass(frozen=True, slots=True)
class ExecutionRecord:
    job: Job
    worker_index: int
    start_s: float
    end_s: float
    status: str


@dataclass
class Timeline:
    n_workers: int
    records: list[ExecutionRecord] = field(default_factory=list)

    def makespan(self) -> float:
        return max((r.end_s for r in self.records), default=0.0)


def _check(n_workers: int, strategy: str) -> None:
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")


def flow_outcomes(design, flows: list[ToolFlowSpec], spans: list) -> list[FlowOutcome]:
    """Each flow's outcome on design from its span in a chain's spans, and its log."""
    return [FlowOutcome(design.id, flow.name, sys.intern(status), end - start,
                        flow_log(design.dir, flow.name), error)
            for flow, (start, end, status, error) in zip(flows, spans)]


def _finish(design, flows: tuple, version: str, stamps: list, outcomes: list) -> list:
    """Write the design's data_*.json, and return the chain's spans: flow i's from
    stamps[i] to stamps[i + 1], then the extraction's. An extraction that fails fails the
    first flow and removes the design's data_*.json: no earlier build's values outlive it."""
    spans = [(start, end, outcome.status, outcome.error)
             for start, end, outcome in zip(stamps, stamps[1:], outcomes)]
    if flows:
        try:
            extract_design(design, flows[0], version, outcomes[0])
            spans.append((stamps[-1], time.monotonic(), STATUS_OK, None))
        except Exception as exc:  # one bad design fails its own chain, as in run_flow
            error = type(exc).__name__
            write_log(outcomes[0].log_path, f"extraction failed: {error}: {exc}\n", "a")
            for name in aggregate.SIDECAR_FILENAMES:
                with suppress(OSError):  # best effort: the failed flow already says why
                    (design.dir / name).unlink(missing_ok=True)
            spans[0] = (*spans[0][:2], STATUS_FAILED, error)
            spans.append((stamps[-1], time.monotonic(), STATUS_FAILED, error))
    return spans


def _run_chain(flows: tuple, version: str, design) -> tuple:
    """Run the flows, then write the data_*.json: (current_worker(), _finish's spans),
    each starting where the one before it ends."""
    outcomes, stamps = [], [time.monotonic()]
    for flow in flows:
        outcomes.append(run_flow(flow, design))
        stamps.append(time.monotonic())
    return current_worker(), _finish(design, flows, version, stamps, outcomes)


def _lose_chain(flows: tuple, version: str, design) -> tuple:
    """_run_chain's result for a chain whose worker died: every flow failed with
    WorkerLost at the time of the loss, on worker -1."""
    lost = WorkerLost("the pool worker running this chain exited before it finished")
    outcomes = [failed_outcome(flow, design, lost) for flow in flows]
    return -1, _finish(design, flows, version, [time.monotonic()] * (len(flows) + 1), outcomes)


def run_chains(collection: DatasetCollection, flows: list[ToolFlowSpec], timeline: Timeline,
               strategy: str = "fine_grained", pin_cores: bool = False):
    """Run every design's chain of flows on timeline.n_workers workers; yield each chain's
    (dataset name, design, worker index, spans) in job order (datasets in collection
    order, then designs in dataset order); the extraction runs under the first flow's
    tool version, asked once here. Each flow's record goes into timeline as its chain's
    result arrives, on a clock that starts once the workers have forked; once the
    stream ends, the records are in order of start, then of worker."""
    _check(timeline.n_workers, strategy)
    flows = tuple(flows)
    jobs = [(name, design) for name, dataset in collection.items() for design in dataset.designs]
    batches = [jobs] if strategy == "fine_grained" else \
        [[job for job in jobs if job[0] == name] for name in collection]
    chunksize = 1 if any(flow.kind == KIND_EXTERNAL for flow in flows) else None
    version = tool_version(flows[0]) if flows else ""
    chain, lost = partial(_run_chain, flows, version), partial(_lose_chain, flows, version)
    ready: list[float] = []  # when each map's workers had forked: the first is the clock's 0
    for batch in batches:  # naive: one batch per dataset, each drained before the next
        with closing(fork_imap(chain, [design for _, design in batch], timeline.n_workers,
                               pin_cores, chunksize, lost,
                               lambda: ready.append(time.monotonic()))) as results:
            for (dataset_name, design), (index, spans) in zip(batch, results):
                for flow, (start, end, status, _) in zip(flows, spans):
                    timeline.records.append(ExecutionRecord(
                        Job(design.id, dataset_name, flow.name), index, start - ready[0],
                        end - ready[0], sys.intern(status)))
                yield dataset_name, design, index, spans
    timeline.records.sort(key=lambda r: (r.start_s, r.worker_index))


def execute(collection: DatasetCollection, flows: list[ToolFlowSpec], n_workers: int,
            strategy: str = "fine_grained", pin_cores: bool = False
            ) -> tuple[list[list[FlowOutcome]], Timeline]:
    """Run every design's chain of flows on n_workers workers (run_chains): each design's
    outcomes, one per flow, in job order (flow_outcomes), and the timeline."""
    timeline = Timeline(n_workers)
    return [flow_outcomes(design, flows, spans) for _, design, _, spans
            in run_chains(collection, flows, timeline, strategy, pin_cores)], timeline


def simulate_schedule(durations: list[list[float]], n_workers: int,
                      strategy: str = "fine_grained") -> float:
    """Makespan of greedy FIFO list scheduling; durations are per-dataset lists
    of job (design chain) durations. Each job goes to the worker that frees up
    first, the lowest index among ties."""
    _check(n_workers, strategy)

    def greedy(jobs: list[float], start: float) -> float:
        avail = [(start, index) for index in range(n_workers)]  # a heap already
        for duration in jobs:
            free_at, index = avail[0]
            heapq.heapreplace(avail, (free_at + duration, index))
        return max(free_at for free_at, _ in avail)

    if strategy == "naive":
        t = 0.0
        for dataset_jobs in durations:
            t = greedy(dataset_jobs, t)
        return t
    return greedy([d for dataset_jobs in durations for d in dataset_jobs], 0.0)


def write_timeline(path: Path, timeline: Timeline) -> Path:
    """Serialize as a flat list of records (stable field order); path changes
    only once the whole list is written."""
    payload = [{
        "design_id": r.job.design_id,
        "dataset": r.job.dataset_name,
        "flow": r.job.flow_name,
        "worker": r.worker_index,
        "start_s": r.start_s,
        "end_s": r.end_s,
        "status": r.status,
    } for r in timeline.records]
    with replace_on_success(path) as tmp:
        write_json(tmp, payload)
    return Path(path)


def utilization_rows(timeline: Timeline) -> list[dict]:
    """Per-worker job counts and busy seconds, flow spans only (for the CLI's utilization CSV)."""
    rows = []
    for index in range(timeline.n_workers):
        mine = [r for r in timeline.records if r.worker_index == index]
        rows.append({
            "worker": index,
            "n_jobs": len(mine),
            "busy_s": round(sum(r.end_s - r.start_s for r in mine), 6),
            "span_s": round(max((r.end_s for r in mine), default=0.0), 6),
        })
    return rows
