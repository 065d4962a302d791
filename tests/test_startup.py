"""Start-up: ``import hlsforge`` loads no submodule, the set-up path loads only
what it runs, no pool worker compiles package code, and the demo runs the same
under every other CPython on PATH."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hlsforge
from conftest import make_design

SRC = Path(__file__).resolve().parent.parent / "src"
BUNDLED = SRC / "hlsforge" / "fixtures" / "designs"

# every name the package exports
EXPORTED = """
AbstractDesign AggregatedRow AggregatedTable ConcreteDesign CoverageSummary
DatasetCollection DesignDataset DesignSpace DirectiveAssignment ExecutionMeta
ExecutionRecord FlowOutcome FrontendConfig HlsForgeError HlsSynthMetrics ImplMetrics Job
MetricsBundle MockCostConstants MockManifest OptTemplate RegressionReport Timeline
ToolFlowSpec WilcoxonResult WorkspaceLayout aggregate_collection archive_dataset
compare_tool_versions compute_r2 compute_rae concrete_design_id coverage_summary
enumerate_design_space execute execute_frontend export_tabular histogram
import_external_dataset iter_assignments load_dataset load_post_frontend load_table
lower_intel lower_xilinx map_directive_to_intel mock_hls_synth mock_impl mock_impl_flow
mock_synth_flow parse_opt_template parse_vitis_csynth_report
render_assignment run_flow sample_assignments simulate_schedule validate_design_files
wilcoxon_signed_rank write_standard_json
""".split()

# sha256 of the demo's exports (4 samples, seed 42), as test_acceptance pins them
DEMO_EXPORTS = {
    "aggregated.csv": "68373eab426f69060b41f3a97e61dd673933ce84bcd15d626299e3ef9381b62f",
    "aggregated.jsonl": "479511e27d480309a76bbb9ec4a3565fcaa7610c65fdbae3533b31f553c1dbfb",
}


def run_script(script: str, python: str = sys.executable) -> str:
    """What script prints, run by python in a fresh interpreter on the package sources."""
    done = subprocess.run([python, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(setup: str, run: str) -> list[str]:
    """The modules, any module, that running run loads after setup has run."""
    return eval(run_script(f"import sys\n{setup}\nbefore = set(sys.modules)\n{run}\n"
                           f"print(sorted(set(sys.modules) - before))"))


def test_import_hlsforge_loads_no_submodule():
    assert run_script("import sys, hlsforge\n"
                      "print(sorted(m for m in sys.modules if m.startswith('hlsforge')))"
                      ) == "['hlsforge']\n"


def test_the_set_up_path_loads_only_the_modules_it_runs(tmp_path):
    make_design(tmp_path / "designs", "alpha")
    script = f"""
import sys
from pathlib import Path
from hlsforge.cli import build_flow_specs
from hlsforge.core import OPT_TEMPLATE_FILENAME, load_dataset
from hlsforge.optdsl import enumerate_design_space, parse_opt_template
dataset = load_dataset(Path({str(tmp_path / "designs")!r}), "ds")
for design in dataset.designs:
    text = (design.source_dir / OPT_TEMPLATE_FILENAME).read_text()
    assert enumerate_design_space(parse_opt_template(text)).size == 6
specs = build_flow_specs([{{"type": "mock_synth", "constants": {{"lut_per_op": 31}}}},
                          {{"type": "mock_impl"}},
                          {{"type": "custom", "command": ["sh", "-c", "true"]}}])
assert len(specs) == 3
print(sorted(m for m in sys.modules if m.startswith("hlsforge")))
"""
    assert eval(run_script(script)) == ["hlsforge", "hlsforge.cli", "hlsforge.core",
                                        "hlsforge.errors", "hlsforge.optdsl",
                                        "hlsforge.toolflows"]


# every module, of the standard library included, that importing the CLI loads
CLI_MODULES_311 = """
__future__ _ast _csv _json _opcode _sha256 argparse ast copy csv dataclasses dis gettext
hlsforge hlsforge.cli hlsforge.core hlsforge.errors hlsforge.optdsl hlsforge.toolflows
importlib.machinery inspect json json.decoder json.encoder json.scanner linecache opcode token
tokenize
""".split()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the standard library's own "
                                                             "imports differ by version")
def test_importing_the_cli_loads_only_its_pinned_modules():
    """What every command pays before it runs: a module added here is start-up time
    spent by each command, the benchmark's set-up included."""
    script = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\nbefore = set(sys.modules)\n"
              f"import hlsforge.cli\nprint(sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert eval(done.stdout) == sorted(CLI_MODULES_311)


def test_reading_a_run_config_loads_only_the_set_up_path(tmp_path):
    """Reading a config loads nothing only a command's run needs: aggregate calls
    load_run_config, and the benchmark's set-up calls build_flow_specs."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "work_dir": str(tmp_path / "work"), "datasets": {"ds": str(tmp_path)},
        "frontend": {"vendor": "intel", "n_samples": 2},
        "flows": [{"type": "mock_synth", "constants": {"lut_per_op": 31}},
                  {"type": "custom", "name": "lint", "command": ["sh", "-c", "true"]}],
        "executor": {"strategy": "naive", "n_workers": 2}}))
    script = f"""
import sys
from hlsforge.cli import build_flow_specs, load_run_config
config = load_run_config({str(config)!r})
assert config.frontend.vendor == "intel" and len(build_flow_specs(config.flows)) == 2
print(sorted(m for m in sys.modules if m.startswith("hlsforge")))
"""
    assert eval(run_script(script)) == ["hlsforge", "hlsforge.cli", "hlsforge.core",
                                        "hlsforge.errors", "hlsforge.optdsl",
                                        "hlsforge.toolflows"]


def test_every_exported_name_resolves():
    assert len(EXPORTED) == 59 and sorted(hlsforge.__all__) == sorted(["__version__", *EXPORTED])
    names = dir(hlsforge)
    for name in EXPORTED:
        assert name in names
        exec(f"from hlsforge import {name}", {})
        value = getattr(hlsforge, name)
        module = getattr(value, "__module__", None)
        if module is not None and module.startswith("hlsforge."):  # not DatasetCollection's dict
            assert getattr(sys.modules[module], name) is value
    namespace: dict = {}
    exec("from hlsforge import *", namespace)
    assert set(EXPORTED) <= set(namespace)


def test_an_unknown_name_is_an_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        hlsforge.nope  # noqa: B018
    from hlsforge import pool
    assert pool.__name__ == "hlsforge.pool"


def test_a_chain_loads_nothing_the_executor_did_not(tmp_path):
    """A pool worker forks from a parent that imported the executor: a build's chains
    and extraction then import nothing, so no worker compiles package code."""
    from hlsforge.core import WorkspaceLayout, load_dataset
    from hlsforge.frontends import FrontendConfig, execute_frontend
    layout = WorkspaceLayout(tmp_path / "work")
    source = load_dataset(BUNDLED, "ds")
    for vendor in ("xilinx", "intel"):
        result = execute_frontend({vendor: source}, FrontendConfig(vendor=vendor, seed=4),
                                  layout)
        assert not result.failures
    run = f"""
from pathlib import Path
from hlsforge.core import load_post_frontend
from hlsforge.toolflows import extract_design, mock_impl_flow, mock_synth_flow
collection = load_post_frontend(Path({str(layout.work_dir)!r}))
chains, _ = hlsforge.executor.execute(collection, [mock_synth_flow(), mock_impl_flow()], 1)
assert len(chains) == 24 and all(o.status == "ok" for chain in chains for o in chain)
for dataset in collection.values():
    assert extract_design(dataset.designs[0]) == 2
"""
    assert loaded_after("import hlsforge.executor", run) == []


def test_an_external_chain_loads_nothing_the_executor_did_not(tmp_path):
    make_design(tmp_path / "designs", "alpha", template=None)
    run = f"""
from pathlib import Path
from hlsforge.core import load_dataset
from hlsforge.toolflows import custom_flow
collection = {{"ds": load_dataset(Path({str(tmp_path / "designs")!r}), "ds")}}
flows = [custom_flow("ok", ("sh", "-c", "true")), custom_flow("bad", ("sh", "-c", "exit 3"))]
[chain], _ = hlsforge.executor.execute(collection, flows, 1)
assert [o.status for o in chain] == ["ok", "failed"]
"""
    assert loaded_after("import hlsforge.executor", run) == []


def test_lowering_loads_nothing_the_frontends_did_not(tmp_path):
    run = f"""
from pathlib import Path
from hlsforge.core import OPT_TEMPLATE_FILENAME, WorkspaceLayout, load_dataset
from hlsforge.optdsl import assignment_at, enumerate_design_space, parse_opt_template
design = next(d for d in load_dataset(Path({str(BUNDLED)!r}), "ds").designs if d.name == "bicg")
space = enumerate_design_space(parse_opt_template(
    (design.source_dir / OPT_TEMPLATE_FILENAME).read_text()))
point = assignment_at(space, space.size - 1)  # unrolled and partitioned
work = Path({str(tmp_path)!r})
frontends = hlsforge.frontends
assert frontends.lower_xilinx(design, point, WorkspaceLayout(work / "x")).vendor == "xilinx"
assert frontends.lower_intel(design, point, WorkspaceLayout(work / "i")).vendor == "intel"
"""
    assert loaded_after("import hlsforge.frontends", run) == []


def other_pythons() -> list[str]:
    """Each python3.1x on PATH that starts and is not the running version."""
    found = []
    for minor in range(10, 20):
        name = f"python3.{minor}"
        if minor == sys.version_info.minor or shutil.which(name) is None:
            continue
        try:
            started = subprocess.run([name, "-c", "pass"], capture_output=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if started.returncode == 0:
            found.append(name)
    return found


@pytest.mark.parametrize("python", other_pythons() or [
    pytest.param(None, marks=pytest.mark.skip(reason="no other python3.1x on PATH starts"))])
def test_the_demo_gives_the_same_bytes_under_another_cpython(tmp_path, python):
    out = tmp_path / "demo"
    script = f"""
import sys
from hlsforge.cli import main
code = main(["demo", "--out", {str(out)!r}, "--n-samples", "4", "--seed", "42",
             "--n-workers", "4"])
print(code, "_hashlib" in sys.modules)
"""
    assert run_script(script, python).splitlines()[-1] == "0 False"
    for name, digest in DEMO_EXPORTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_ids_hash_with_the_sha256_module_of_the_standard_library():
    """Not hashlib's, which loads OpenSSL; _sha256 was renamed _sha2 in CPython 3.12."""
    from hlsforge.core import sha256
    assert sha256.__module__ == ("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    assert sha256.__module__ in sys.stdlib_module_names

