"""Parallel flow execution and schedule simulation."""

from __future__ import annotations

import hashlib
import json
import os
import random
import time

import pytest

import hlsforge.executor as executor
from hlsforge import pool
from hlsforge.core import WorkspaceLayout, load_dataset
from hlsforge.executor import (
    ExecutionRecord,
    Job,
    Timeline,
    execute,
    simulate_schedule,
    utilization_rows,
    write_timeline,
)
from hlsforge.frontends import FrontendConfig, execute_frontend
from hlsforge.toolflows import (
    STATUS_FAILED,
    STATUS_OK,
    custom_flow,
    mock_impl_flow,
    mock_synth_flow,
    run_flow,
)
from conftest import make_design


def lowered_collection(tmp_path, names=("a", "b"), per_dataset=1):
    """One dataset per name, each expanded exhaustively (6 designs apiece)."""
    collection = {}
    layout = WorkspaceLayout(tmp_path / "work")
    for name in names:
        root = tmp_path / f"src_{name}"
        for i in range(per_dataset):
            make_design(root, f"{name}{i}")
        result = execute_frontend({name: load_dataset(root)},
                                  FrontendConfig(random_sample=False), layout)
        collection.update(result.collection)
    return collection


def test_fine_grained_runs_every_job(tmp_path):
    collection = lowered_collection(tmp_path)
    chains, timeline = execute(collection, [mock_synth_flow()], 3)
    outcomes = [outcome for (outcome,) in chains]
    assert len(outcomes) == 12
    assert all(o.status == STATUS_OK for o in outcomes)
    assert len(timeline.records) == 12
    assert timeline.n_workers == 3
    assert timeline.makespan() > 0
    # outcomes come back in job order: dataset a's designs then dataset b's
    datasets = [r.job.dataset_name for r in sorted(timeline.records, key=lambda r: r.start_s)]
    assert set(datasets) == {"a__post_frontend", "b__post_frontend"}


def test_outcomes_follow_job_order(tmp_path):
    collection = lowered_collection(tmp_path)
    expected = [d.id for ds in collection.values() for d in ds.designs]
    for strategy in ("fine_grained", "naive"):
        chains, _ = execute(collection, [mock_synth_flow()], 4, strategy)
        assert [o.design_id for (o,) in chains] == expected


def test_workers_never_overlap(tmp_path):
    collection = lowered_collection(tmp_path)
    _, timeline = execute(collection, [mock_synth_flow()], 2)
    by_worker: dict[int, list] = {}
    for record in timeline.records:
        assert record.end_s >= record.start_s
        by_worker.setdefault(record.worker_index, []).append(record)
    for records in by_worker.values():
        records.sort(key=lambda r: r.start_s)
        for earlier, later in zip(records, records[1:]):
            assert later.start_s >= earlier.end_s


def test_mock_chains_run_in_child_processes_without_overlap(tmp_path, monkeypatch):
    def run_and_note_pid(flow, design):
        with open(design.dir / "pids.txt", "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return run_flow(flow, design)

    monkeypatch.setattr(executor, "run_flow", run_and_note_pid)
    collection = lowered_collection(tmp_path, names=("a", "b", "c"))
    flows = [mock_synth_flow(), mock_impl_flow()]
    chains, timeline = execute(collection, flows, 2)
    assert [[o.flow_name for o in chain] for chain in chains] == [[f.name for f in flows]] * 18
    assert all(o.status == STATUS_OK for chain in chains for o in chain)
    pids = {line for ds in collection.values() for d in ds.designs
            for line in (d.dir / "pids.txt").read_text().split()}
    assert str(os.getpid()) not in pids and pids
    write_timeline(tmp_path / "timeline.json", timeline)
    by_worker: dict[int, list] = {}
    for entry in json.loads((tmp_path / "timeline.json").read_text()):
        by_worker.setdefault(entry["worker"], []).append(entry)
    assert set(by_worker) <= {0, 1} and sum(map(len, by_worker.values())) == 36
    for entries in by_worker.values():
        entries.sort(key=lambda e: e["start_s"])
        for earlier, later in zip(entries, entries[1:]):
            assert later["start_s"] >= earlier["end_s"]
    for entries in by_worker.values():  # a chain stays on its worker: synth, then impl
        ends = {e["design_id"]: e["end_s"] for e in entries if e["flow"] == "mock_hls_synth"}
        for e in entries:
            if e["flow"] == "mock_impl":
                assert e["start_s"] >= ends[e["design_id"]]


def test_naive_barrier_between_datasets(tmp_path):
    collection = lowered_collection(tmp_path)
    _, timeline = execute(collection, [mock_synth_flow()], 2, "naive")
    first, second = list(collection)
    ends_first = [r.end_s for r in timeline.records if r.job.dataset_name == first]
    starts_second = [r.start_s for r in timeline.records if r.job.dataset_name == second]
    assert max(ends_first) <= min(starts_second)


def test_single_worker_serializes(tmp_path):
    collection = lowered_collection(tmp_path, names=("a",))
    _, timeline = execute(collection, [mock_synth_flow()], 1)
    records = sorted(timeline.records, key=lambda r: r.start_s)
    assert all(r.worker_index == 0 for r in records)
    for earlier, later in zip(records, records[1:]):
        assert later.start_s >= earlier.end_s


def test_worker_count_validation(tmp_path):
    collection = lowered_collection(tmp_path, names=("a",))
    with pytest.raises(ValueError):
        execute(collection, [mock_synth_flow()], 0)
    with pytest.raises(ValueError):
        execute(collection, [mock_synth_flow()], -1, "naive")


def run_and_note_affinity(flow, design):
    """run_flow, after noting the pid and the cores of the process that runs it."""
    (design.dir / "affinity.json").write_text(
        json.dumps([os.getpid(), sorted(os.sched_getaffinity(0))]))
    return run_flow(flow, design)


def noted_affinities(designs) -> set:
    """(pid, cores) of each process that ran a chain of designs."""
    return {(pid, frozenset(cores)) for pid, cores in
            (json.loads((design.dir / "affinity.json").read_text()) for design in designs)}


def test_each_chain_of_a_pinned_build_runs_on_one_allowed_core(tmp_path, monkeypatch):
    monkeypatch.setattr(executor, "run_flow", run_and_note_affinity)
    collection = lowered_collection(tmp_path, names=("a",))
    allowed = os.sched_getaffinity(0)
    chains, _ = execute(collection, [mock_synth_flow()], 2, pin_cores=True)
    assert all(outcome.status == STATUS_OK for (outcome,) in chains)
    noted = noted_affinities(collection["a__post_frontend"].designs)
    assert noted and os.getpid() not in {pid for pid, _ in noted}
    for _, cores in noted:
        assert len(cores) == 1 and cores <= allowed


def test_pinning_chooses_among_the_allowed_cores(monkeypatch):
    requested = []
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {3, 2})
    monkeypatch.setattr(pool.os, "sched_setaffinity", lambda pid, cores: requested.append(cores))
    assert [pool.pin_to_core(index) for index in range(3)] == [2, 3, 2]
    assert requested == [{2}, {3}, {2}]


def test_pinning_one_worker_leaves_the_caller_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(executor, "run_flow", run_and_note_affinity)
    collection = lowered_collection(tmp_path, names=("a",))
    allowed = os.sched_getaffinity(0)
    _, timeline = execute(collection, [mock_synth_flow()], 1, pin_cores=True)
    assert {r.worker_index for r in timeline.records} == {0}
    assert os.sched_getaffinity(0) == allowed
    [(pid, cores)] = noted_affinities(collection["a__post_frontend"].designs)
    assert pid != os.getpid()  # one pinned child ran every chain
    assert len(cores) == 1 and cores <= allowed


def test_simulate_crafted_instance():
    durations = [[8.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]
    assert simulate_schedule(durations, 2, "fine_grained") == 8.0
    assert simulate_schedule(durations, 2, "naive") == 10.0


def test_simulate_single_dataset_strategies_agree():
    durations = [[3.0, 1.0, 4.0, 1.0, 5.0]]
    fine = simulate_schedule(durations, 2, "fine_grained")
    naive = simulate_schedule(durations, 2, "naive")
    assert fine == naive


def test_simulate_one_worker_sums_everything():
    durations = [[1.0, 2.0], [3.0, 4.5]]
    assert simulate_schedule(durations, 1, "fine_grained") == 10.5
    assert simulate_schedule(durations, 1, "naive") == 10.5


def test_simulate_fine_never_beats_naive_randomly():
    rng = random.Random(2024)
    for _ in range(60):
        n_datasets = rng.randint(1, 5)
        durations = [[rng.uniform(0.1, 10.0) for _ in range(rng.randint(1, 12))]
                     for _ in range(n_datasets)]
        workers = rng.randint(1, 6)
        fine = simulate_schedule(durations, workers, "fine_grained")
        naive = simulate_schedule(durations, workers, "naive")
        assert fine <= naive + 1e-9


def test_simulate_matches_the_linear_scan_reference():
    def reference(durations, n_workers, strategy):
        def greedy(jobs, start):
            avail = [start] * n_workers
            for duration in jobs:
                index = min(range(n_workers), key=avail.__getitem__)
                avail[index] += duration
            return max(avail)
        if strategy == "naive":
            t = 0.0
            for jobs in durations:
                t = greedy(jobs, t)
            return t
        return greedy([d for jobs in durations for d in jobs], 0.0)

    rng = random.Random(11)
    for _ in range(200):
        durations = [[rng.choice((0.5, 1.0, 1.5, rng.uniform(0.1, 4.0)))
                      for _ in range(rng.randint(1, 10))] for _ in range(rng.randint(1, 4))]
        workers = rng.randint(1, 5)
        for strategy in ("fine_grained", "naive"):
            assert simulate_schedule(durations, workers, strategy) \
                == reference(durations, workers, strategy)


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate_schedule([[1.0]], 0)
    with pytest.raises(ValueError):
        simulate_schedule([[1.0]], 2, "clever")


def test_write_timeline_schema(tmp_path):
    collection = lowered_collection(tmp_path, names=("a",))
    _, timeline = execute(collection, [mock_synth_flow()], 2)
    path = write_timeline(tmp_path / "timeline.json", timeline)
    payload = json.loads(path.read_text())
    assert isinstance(payload, list)
    assert len(payload) == 6
    assert set(payload[0]) == {"design_id", "dataset", "flow", "worker", "start_s", "end_s",
                               "status"}
    starts = [entry["start_s"] for entry in payload]
    assert starts == sorted(starts)


def test_write_timeline_bytes_are_pinned(tmp_path):
    # recorded before the timeline was encoded straight into its file
    timeline = Timeline(2, [
        ExecutionRecord(Job("a__0000beef", "ds__post_frontend", "mock_hls_synth"), 0,
                        0.0, 0.125, "ok"),
        ExecutionRecord(Job("a__0000beef", "ds__post_frontend", "mock_impl"), 0,
                        0.125, 0.250015, "timeout"),
        ExecutionRecord(Job("b__cafe0001", "ds__post_frontend", "mock_hls_synth"), 1,
                        0.0625, 3.0000000000000004, "failed"),
    ])
    path = write_timeline(tmp_path / "timeline.json", timeline)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "0a078d4405a4d1e58470f35ef3b759b8d24049f0b52cb0bd3596c87c80231c00")
    assert write_timeline(path, Timeline(1)).read_text() == "[]\n"


def test_a_failed_timeline_write_leaves_the_old_file(tmp_path):
    path = write_timeline(tmp_path / "timeline.json", Timeline(1))
    job = Job("a", "ds", "flow")
    timeline = Timeline(1, [ExecutionRecord(job, 0, 0.0, 1.0, "ok"),
                            ExecutionRecord(job, 0, 1.0, object(), "ok")])
    with pytest.raises(TypeError):
        write_timeline(path, timeline)
    assert path.read_text() == "[]\n"
    assert [p.name for p in tmp_path.iterdir()] == ["timeline.json"]


def test_utilization_rows_cover_all_workers(tmp_path):
    collection = lowered_collection(tmp_path, names=("a",))
    _, timeline = execute(collection, [mock_synth_flow()], 3)
    rows = utilization_rows(timeline)
    assert [r["worker"] for r in rows] == [0, 1, 2]
    assert sum(r["n_jobs"] for r in rows) == 6
    for row in rows:
        assert row["busy_s"] >= 0.0


def test_the_timeline_clock_starts_after_the_workers_have_forked(tmp_path, monkeypatch):
    collection = lowered_collection(tmp_path, names=("a",))
    fork = os.fork

    def slow_fork():
        pid = fork()
        if pid:  # the parent: a slow pool start-up
            time.sleep(0.2)
        return pid

    monkeypatch.setattr(os, "fork", slow_fork)
    _, timeline = execute(collection, [mock_synth_flow()], 2)
    assert min(r.start_s for r in timeline.records) < 0.1


def test_outcomes_name_each_flows_log_and_match_the_timeline(tmp_path):
    collection = lowered_collection(tmp_path)
    flows = [mock_synth_flow(), custom_flow("odd", ("sh", "-c", "case $(pwd) in *b0__*) exit 3;; "
                                                                "esac; echo ran"))]
    chains, timeline = execute(collection, flows, 2)
    status = {(r.job.dataset_name, r.job.design_id, r.job.flow_name): r.status
              for r in timeline.records}
    jobs = [(name, design) for name, dataset in collection.items() for design in dataset.designs]
    assert len(chains) == len(jobs) == 12 and len(status) == 24
    for (name, design), chain in zip(jobs, chains):
        for flow, outcome in zip(flows, chain):
            assert (outcome.design_id, outcome.flow_name) == (design.id, flow.name)
            assert outcome.log_path == design.dir / f"{flow.name}.log"
            assert outcome.log_path.is_file()
            assert outcome.status is status[(name, design.id, flow.name)]
        assert chain[1].status == (STATUS_FAILED if design.base_name == "b0" else STATUS_OK)


def test_a_lost_chain_reads_failed_with_worker_lost_in_each_log(tmp_path):
    collection = lowered_collection(tmp_path)
    flows = [mock_synth_flow(), custom_flow("die", ("sh", "-c", "case $(pwd) in *b0__*) "
                                                                "kill -9 $PPID; sleep 1;; esac"))]
    chains, timeline = execute(collection, flows, 2)
    designs = [design for dataset in collection.values() for design in dataset.designs]
    for design, chain in zip(designs, chains):
        lost = design.base_name == "b0"
        for flow, outcome in zip(flows, chain):
            assert outcome.log_path == design.dir / f"{flow.name}.log"
            assert outcome.status == (STATUS_FAILED if lost else STATUS_OK)
            assert outcome.log_path.read_text().startswith(
                f"flow {flow.name} failed: WorkerLost: ") == lost
    assert sorted({r.worker_index for r in timeline.records if r.status == STATUS_FAILED}) == [-1]


def test_a_lost_chains_logs_are_pinned(tmp_path):
    collection = lowered_collection(tmp_path, names=("b",))
    flows = [mock_synth_flow(), custom_flow("die", ("sh", "-c", "kill -9 $PPID; sleep 1"))]
    chains, _ = execute(collection, flows, 2)
    for chain in chains:
        for flow, outcome in zip(flows, chain):
            assert outcome.status == STATUS_FAILED
            assert outcome.log_path.read_text() == (
                f"flow {flow.name} failed: WorkerLost: the pool worker running this chain "
                f"exited before it finished\n")
