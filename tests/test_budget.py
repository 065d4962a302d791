"""A per-design cost budget: what each pipeline stage costs per design, in Python
calls and in file calls, pinned as upper bounds.

The counts guard against regressions, but they do not measure speed. A call can
cost a few nanoseconds or a whole encode, so calls and time need not move
together. Writing ``data_design.json`` through ``JSONEncoder(default=vars)`` took
134 µs a file against ``asdict``'s 165 µs (2 cores, Python 3.11.7), yet on 300
``xilinx_sample``-shaped designs it left expand at 3,322 calls per design: each
``default`` call adds an encoder generator layer that every token of the record
passes through. The other way round, ``core.write_json`` laying the file out
itself, each flat object one call to json's C encoder, took expand on those
designs from 2,417 to 1,138 calls per design, yet a record's encode went from
56 to 59 µs, and the open makes most of the about 150 µs a file takes. A change
that claims a speed-up shows time beside the counts it lowers, and then tightens
the bounds here to its own counts; no change loosens one without saying why.

The stages run in a fresh interpreter pinned to one allowed core, so every map
runs inline and the audit hook goes with the process. Every module is imported
first, so no stage compiles or reads package code. The tree is the bundled
kernels, 4 samples each, lowered for both vendors. Python calls (cProfile's
``total_calls``) differ between Python versions and are checked on 3.11 only;
file calls, counted by kind with an audit hook in a second pass over a fresh
tree, are checked on every version.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

STAGES = ("expand", "load_post_frontend", "build", "aggregate", "export", "archive")
# the audit events counted as file calls
FILE_KINDS = ("open_read", "open_write", "os.mkdir", "os.rename", "os.remove", "os.scandir",
              "shutil.copyfile", "os.utime", "os.chmod")

SCRIPT = r"""
import cProfile, json, os, shutil, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # one worker: every map runs inline
import csv, io, mmap, pickle, signal, subprocess, tempfile, traceback, zipfile, zlib  # noqa
from pathlib import Path
from xml.etree import ElementTree  # noqa
from hlsforge import aggregate, analysis, cli, core, errors, executor, frontends  # noqa
from hlsforge import optdsl, pool, rng, toolflows  # noqa

os.chdir(sys.argv[1])  # relative paths: pathlib's calls grow with a path's depth
root = Path(".")
shutil.copytree(cli.bundled_designs_dir(), "kernels")
source = core.load_dataset(Path("kernels"), "kernels")
flows = [toolflows.mock_synth_flow(), toolflows.mock_impl_flow()]
OPEN_WRITE = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_APPEND | os.O_TRUNC
counting = None  # the audit events of the stage being counted, opens split by mode


def hook(event, args):
    if counting is None:
        return
    if event == "open":
        mode, flags = args[1], args[2]
        write = any(c in mode for c in "wax+") if mode is not None else flags & OPEN_WRITE
        event = "open_write" if write else "open_read"
    counting[event] = counting.get(event, 0) + 1


def stages(work):
    layout = core.WorkspaceLayout(work)
    out = work.parent / (work.name + "_out")
    out.mkdir()
    state = {}

    def expand():
        for vendor in ("xilinx", "intel"):
            config = core.FrontendConfig(vendor=vendor, n_samples=4, seed=11)
            assert not frontends.execute_frontend({vendor: source}, config, layout).failures

    def load_post_frontend():
        state["collection"] = core.load_post_frontend(work)

    def build():
        chains, _ = executor.execute(state["collection"], flows, 1)
        assert all(o.status == "ok" for chain in chains for o in chain)

    def aggregate_():
        state["table"] = aggregate.aggregate_collection(work)

    def export():
        for fmt in ("csv", "jsonl"):
            aggregate.export_tabular(state["table"], out / f"table.{fmt}", format=fmt)

    def archive():
        aggregate.archive_dataset(work, out / "tree.zip")

    return (expand, load_post_frontend, build, aggregate_, export, archive), state


modules = set(sys.modules)
calls = {}
steps, state = stages(root / "profiled")
for step in steps:
    profiler = cProfile.Profile()
    profiler.enable()
    step()
    profiler.disable()
    # per code object: pstats keys by (file, line, name), which every dataclass
    # __init__ shares, so its total_calls keeps one of them in an order set by memory
    calls[step.__name__.rstrip("_")] = sum(entry.callcount for entry in profiler.getstats())
n_designs = sum(len(dataset.designs) for dataset in state["collection"].values())
sys.addaudithook(hook)
files = {}
steps, state = stages(root / "counted")
for step in steps:
    counting = files[step.__name__.rstrip("_")] = {}
    step()
    counting = None
print(json.dumps({"designs": n_designs, "calls": calls, "files": files,
                  "loaded": sorted(set(sys.modules) - modules)}))
"""

# per design, at most; each bound is the count at the change that last set it,
# rounded up to two decimals (88 designs: 4 samples of each bundled kernel, or its
# whole space when smaller, for both vendors)
CALLS_311 = {
    "expand": 943.78,
    "load_post_frontend": 95.5,
    "build": 1078.16,
    "aggregate": 312.41,
    "export": 72.85,
    "archive": 439.35,
}
FILES = {
    "expand": {"open_read": 5.91, "open_write": 6.5, "os.mkdir": 2.03, "os.scandir": 1.5,
               "shutil.copyfile": 4.0, "os.utime": 1.0, "os.chmod": 5.0},
    "load_post_frontend": {"open_read": 1.0, "os.scandir": 0.04},
    "build": {"open_read": 6.0, "open_write": 7.0, "os.mkdir": 4.0, "os.scandir": 0.5},
    "aggregate": {"open_read": 4.0, "os.scandir": 0.04},
    "export": {"open_write": 0.03, "os.rename": 0.03},
    "archive": {"open_read": 8.0, "open_write": 0.04, "os.mkdir": 0.02, "os.rename": 0.02,
                "os.scandir": 1.04},
}


@pytest.fixture(scope="module")
def counts(tmp_path_factory) -> dict:
    """What each stage cost per design: {"calls": {stage: n}, "files": {stage: {kind: n}}}."""
    root = tmp_path_factory.mktemp("budget")
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(root)], capture_output=True,
                          text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"})
    assert done.returncode == 0, done.stderr
    raw = json.loads(done.stdout)
    assert raw["loaded"] == []  # every module was imported before the first stage
    n = raw["designs"]
    assert n == 88  # some kernels have fewer than 4 points
    return {"calls": {stage: raw["calls"][stage] / n for stage in STAGES},
            "files": {stage: {kind: raw["files"][stage].get(kind, 0) / n for kind in FILE_KINDS}
                      for stage in STAGES}}


def over_budget(actual: dict, bounds: dict) -> dict:
    return {key: (value, bounds.get(key, 0)) for key, value in actual.items()
            if value > bounds.get(key, 0)}


def test_file_calls_per_design_stay_within_budget(counts):
    over = {stage: over_budget(counts["files"][stage], FILES[stage]) for stage in STAGES}
    assert not any(over.values()), {stage: found for stage, found in over.items() if found}


def test_a_mock_chain_makes_one_mkdir_per_directory_it_creates(counts):
    # hls_prj/solution1/syn/report: Path.mkdir(parents=True) made 7 calls for these 4
    assert counts["files"]["build"]["os.mkdir"] == 4


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="call counts differ by version")
def test_python_calls_per_design_stay_within_budget(counts):
    over = over_budget(counts["calls"], CALLS_311)
    assert not over, over
