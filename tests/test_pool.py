"""The fork pool: results in order as they arrive, a lost worker costs only the items it held,
and no worker outlives a map."""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hlsforge.frontends as frontends
from hlsforge.core import WorkspaceLayout, load_dataset
from hlsforge.errors import WorkerLost
from hlsforge.frontends import FrontendConfig, execute_frontend
from hlsforge.pool import current_worker, fork_imap
from conftest import make_design

SRC = Path(__file__).resolve().parent.parent / "src"


def assert_reaped(pids) -> None:
    """Every pid has exited and been waited for: not even a zombie is left."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def kill_own_worker_at_5(x: int):
    if x == 5:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


@pytest.mark.parametrize("chunksize", [None, 1, 4])
def test_a_killed_worker_costs_only_the_item_it_was_running(chunksize):
    results = list(fork_imap(kill_own_worker_at_5, list(range(40)), 2, chunksize=chunksize,
                             on_lost=lambda x: ("lost", x)))
    assert results == [("lost", 5) if x == 5 else x * x for x in range(40)]


def test_a_killed_worker_without_on_lost_raises_worker_lost():
    with pytest.raises(WorkerLost, match="exited with status -9 running item 5"):
        list(fork_imap(kill_own_worker_at_5, list(range(40)), 2, chunksize=4))


def shuffled_square(x: int) -> int:
    time.sleep((x * 7919 % 13) / 4000)  # uneven items, so chunks finish out of order
    return x * x


@pytest.mark.parametrize("chunksize", [None, 1, 3, 50])
def test_results_come_back_in_item_order(chunksize):
    assert list(fork_imap(shuffled_square, list(range(120)), 3, chunksize=chunksize)) \
        == [x * x for x in range(120)]


def raise_at_7(x: int) -> int:
    if x == 7:
        raise ValueError("item 7")
    return os.getpid()


def test_an_exception_propagates_and_every_worker_is_reaped():
    pids = set()
    with pytest.raises(ValueError, match="item 7"):
        for pid in fork_imap(raise_at_7, list(range(40)), 2, chunksize=1):
            pids.add(pid)
    assert pids
    assert_reaped(pids)



def slow_at_0_raise_at_7(x: int) -> int:
    if x == 0:
        time.sleep(0.5)
    return raise_at_7(x)


def test_an_exception_arrives_after_the_results_of_every_earlier_item():
    results = []
    with pytest.raises(ValueError, match="item 7"):
        for pid in fork_imap(slow_at_0_raise_at_7, list(range(40)), 2, chunksize=1):
            results.append(pid)
    assert len(results) == 7
    assert_reaped(set(results))

def worker_of(x: int) -> int:
    time.sleep(0.5 if x == 0 else 0.01)
    return current_worker()


def test_single_items_go_to_the_next_free_worker():
    workers = list(fork_imap(worker_of, list(range(20)), 2, chunksize=1))
    assert workers[0] != workers[1]
    assert workers[1:] == [workers[1]] * 19  # the other worker ran everything else


def nap_and_pid(x: int) -> int:
    time.sleep(0.05)
    return os.getpid()


def test_an_abandoned_map_leaves_no_live_child():
    results = fork_imap(nap_and_pid, list(range(20)), 2, chunksize=1)
    pid = next(results)
    results.close()
    assert_reaped([pid])
    with pytest.raises(ChildProcessError):  # no other worker either
        os.waitpid(-1, os.WNOHANG)


def test_a_lowering_whose_worker_dies_fails_that_point_and_leaves_no_directory(
        tmp_path, monkeypatch):
    monkeypatch.setattr(frontends, "local_workers", lambda: 2)
    lower = frontends._lower

    def lower_or_die(design, assignment, layout, vendor):
        if design.name == "m" and not (tmp_path / "killed").exists():
            (tmp_path / "killed").touch()  # one point only: the fresh worker lowers on
            out = frontends._out_dir(layout, design, frontends.concrete_design_id(
                design.name, assignment))
            shutil.copytree(design.source_dir, out)  # half-lowered, then lost
            os.kill(os.getpid(), signal.SIGKILL)
        return lower(design, assignment, layout, vendor)

    monkeypatch.setattr(frontends, "_lower", lower_or_die)
    root = tmp_path / "ds"
    for name in ("a", "m", "z"):
        make_design(root, name)
    work = tmp_path / "w"
    result = execute_frontend({"ds": load_dataset(root)}, FrontendConfig(random_sample=False),
                              WorkspaceLayout(work))
    [(dataset, design, message)] = result.failures
    assert (dataset, design) == ("ds", "m")
    assert message.startswith("WorkerLost: ")
    assert result.sizes[("ds", "a")] == result.sizes[("ds", "z")] == (6, 6)
    assert sorted(p.name.split("__")[0] for p in (work / "ds__post_frontend").iterdir()) \
        == ["a"] * 6 + ["z"] * 6


def test_a_build_loads_neither_multiprocessing_nor_concurrent_futures(tmp_path):
    script = f"""
import sys
from pathlib import Path
from hlsforge.cli import bundled_designs_dir
from hlsforge.core import WorkspaceLayout, load_dataset, load_post_frontend
from hlsforge.executor import execute
from hlsforge.frontends import FrontendConfig, execute_frontend
from hlsforge.toolflows import mock_impl_flow, mock_synth_flow
work = Path({str(tmp_path / "work")!r})
result = execute_frontend({{"ds": load_dataset(bundled_designs_dir(), "ds")}},
                          FrontendConfig(n_samples=1, seed=3), WorkspaceLayout(work))
assert not result.failures, result.failures
chains, _ = execute(load_post_frontend(work), [mock_synth_flow(), mock_impl_flow()], 2)
assert len(chains) == 12 and all(o.status == "ok" for chain in chains for o in chain)
print(sorted(m for m in sys.modules if m.partition(".")[0] in ("multiprocessing", "concurrent")))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_a_whole_run_never_loads_openssl(tmp_path):
    """Ids are hashed by the SHA-256 module itself: hashlib would load OpenSSL."""
    script = f"""
import sys
from pathlib import Path
from hlsforge.aggregate import aggregate_collection, archive_dataset, export_tabular
from hlsforge.cli import bundled_designs_dir
from hlsforge.core import WorkspaceLayout, load_dataset, load_post_frontend
from hlsforge.executor import execute
from hlsforge.frontends import FrontendConfig, execute_frontend
from hlsforge.toolflows import mock_impl_flow, mock_synth_flow
work = Path({str(tmp_path / "work")!r})
result = execute_frontend({{"ds": load_dataset(bundled_designs_dir(), "ds")}},
                          FrontendConfig(vendor="intel", n_samples=2, seed=5),
                          WorkspaceLayout(work))
assert not result.failures, result.failures
chains, _ = execute(load_post_frontend(work), [mock_synth_flow(), mock_impl_flow()], 2)
assert len(chains) == 24 and all(o.status == "ok" for chain in chains for o in chain)
table = aggregate_collection(work)
assert len(table.rows) == 24
export_tabular(table, work / "aggregated.csv")
archive_dataset(work, work / "dataset.zip")
print(sorted(m for m in sys.modules if m in ("_hashlib", "_ssl", "hashlib")))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def unpicklable_at_3(x: int):
    return (lambda: x) if x == 3 else x


def test_a_result_that_does_not_pickle_propagates():
    with pytest.raises(Exception, match="pickle"):
        list(fork_imap(unpicklable_at_3, list(range(8)), 2, chunksize=4))
