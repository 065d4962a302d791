"""Parallel execution of tool-flow chains over design collections.

The job unit is one design's chain: the configured flows, in order, then the
design's data_*.json from the reports they left (toolflows.extract_design). Two
strategies: fine_grained keeps one shared FIFO queue of chains for every design
of every dataset, so a worker that finishes early takes the next chain of any
dataset; naive runs the datasets one after another, draining the workers
between them (the barrier real batch scripts tend to have). Every chain runs on
the one pool of forked processes that lowering uses (pool.fork_imap). A chain
sends back only each flow's status, runtime and start and end times; the
parent builds the outcomes and records as each result arrives. Mock chains go
out in chunks; a chain with an external flow can run for hours, so such chains
go out one at a time and a worker takes the next only when it is free. A chain whose worker
dies fails alone, with WorkerLost in each flow's log, and the build goes on.
simulate_schedule replays either policy on given durations without running
anything, for planning and for quantifying the gap.
"""

from __future__ import annotations

import heapq
import subprocess  # noqa: F401
import sys
import time
from contextlib import closing, suppress
from dataclasses import dataclass, field, replace
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


def _finish(design, flows: tuple, version: str, steps: list) -> list:
    """Write the design's data_*.json, then the chain's result: (status, runtime_s,
    start, end) per flow. An extraction that fails, a data_*.json that cannot be
    written included, fails the first flow and leaves none of the design's data_*.json,
    so no earlier build's values outlive it."""
    if flows:
        try:
            extract_design(design, flows[0], version, steps[0][0])
        except Exception as exc:  # one bad design fails its own chain, as in run_flow
            outcome, start, end = steps[0]
            write_log(outcome.log_path, f"extraction failed: {type(exc).__name__}: {exc}\n", "a")
            steps[0] = (replace(outcome, status=STATUS_FAILED), start, end)
            for name in aggregate.SIDECAR_FILENAMES:
                with suppress(OSError):  # best effort: the failed flow already says why
                    (design.dir / name).unlink(missing_ok=True)
    return [(outcome.status, outcome.runtime_s, start, end) for outcome, start, end in steps]


def _run_chain(flows: tuple, version: str, design) -> tuple:
    """Run the flows, then write the data_*.json: (current_worker(), _finish's result),
    stamped with time.monotonic()."""
    steps = []
    for flow in flows:
        start = time.monotonic()
        outcome = run_flow(flow, design)
        steps.append((outcome, start, time.monotonic()))
    return current_worker(), _finish(design, flows, version, steps)


def _lose_chain(flows: tuple, version: str, design) -> tuple:
    """_run_chain's result for a chain whose worker died: every flow failed with
    WorkerLost, stamped with the time of the loss, on worker -1."""
    lost = WorkerLost("the pool worker running this chain exited before it finished")
    now = time.monotonic()
    steps = [(failed_outcome(flow, design, lost), now, now) for flow in flows]
    return -1, _finish(design, flows, version, steps)


def execute(collection: DatasetCollection, flows: list[ToolFlowSpec], n_workers: int,
            strategy: str = "fine_grained", pin_cores: bool = False
            ) -> tuple[list[list[FlowOutcome]], Timeline]:
    """Run every design's chain of flows on n_workers workers; a chain ends by writing
    its design's data_*.json, under the first flow's tool version, asked once here.

    Returns each design's outcomes, one per flow, in job order (datasets in
    collection order, then designs in dataset order), each with the log its
    flow wrote (toolflows.flow_log), and the timeline: one
    record per (design, flow), on a clock that starts with the first chain,
    after the workers have forked. A chain whose worker died reads failed for
    every flow, recorded at the time of the loss on worker -1.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    timeline = Timeline(n_workers)
    flows = tuple(flows)
    jobs = [(name, design) for name, dataset in collection.items() for design in dataset.designs]
    batches = [jobs] if strategy == "fine_grained" else \
        [[job for job in jobs if job[0] == name] for name in collection]
    chunksize = 1 if any(flow.kind == KIND_EXTERNAL for flow in flows) else None
    version = tool_version(flows[0]) if flows else ""
    chain, lost = partial(_run_chain, flows, version), partial(_lose_chain, flows, version)
    chains = []
    records = timeline.records
    for batch in batches:  # naive: one batch per dataset, each drained before the next
        with closing(fork_imap(chain, [design for _, design in batch], n_workers, pin_cores,
                               chunksize, lost)) as results:
            for (dataset_name, design), (index, steps) in zip(batch, results):
                ident, root, outcomes = design.id, design.dir, []
                for flow, (status, runtime_s, start, end) in zip(flows, steps):
                    status = sys.intern(status)
                    records.append(ExecutionRecord(Job(ident, dataset_name, flow.name), index,
                                                   start, end, status))
                    outcomes.append(FlowOutcome(ident, flow.name, status, runtime_s,
                                                flow_log(root, flow.name)))
                chains.append(outcomes)
    # the clock starts with the first chain: the pool's start-up stays out of the timeline
    origin = min((r.start_s for r in records), default=0.0)
    for i, r in enumerate(records):
        records[i] = ExecutionRecord(r.job, r.worker_index, r.start_s - origin,
                                     r.end_s - origin, r.status)
    records.sort(key=lambda r: (r.start_s, r.worker_index))
    return chains, timeline


def simulate_schedule(durations: list[list[float]], n_workers: int,
                      strategy: str = "fine_grained") -> float:
    """Makespan of greedy FIFO list scheduling; durations are per-dataset lists
    of job (design chain) durations. Each job goes to the worker that frees up
    first, the lowest index among ties."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")

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
    """Per-worker busy seconds and job counts (for the CLI's utilization CSV)."""
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
