"""Tool flows: a deterministic mock HLS/implementation pair plus adapters for
real vendor tools.

The mock flows read the design's mock_manifest.json and the directives the
frontend lowered (opt.tcl for xilinx trees, injected pragmas for intel trees)
and emit the same report files a real run would leave behind, so parsing and
aggregation exercise one code path. The cost model, per loop with trip count
T, body_ops B, mult_ops M and unroll factor U:

    cycles      = ceil(T/U) - 1 + B   if pipelined else ceil(T/U) * B
    latency_avg = sum over loops; best = avg; worst = 2 * avg
    lut         = base_lut + sum(lut_per_op * B * U)
    ff          = base_ff  + sum(ff_per_op * B * U)
    dsp         = sum(M * U)
    bram        = sum over arrays: ceil(depth * elem_bytes / bank_bytes) * banks
    clock_est   = clock_base_ns + clock_unroll_ns * log2(max U)

Implementation mock: each resource is round(impl_scale * hls value), wns_ns is
clock_target - clock_est - wns_lut_coeff * log2(1 + lut/1000), and power is
power_base_w + lut * power_lut_w + dsp * power_dsp_w.

Building specs loads none of what only a run needs: aggregate's report schema,
parser and writer are imported where a mock flow or extract_design runs;
subprocess, signal and pool where a tool runs; traceback where a flow fails.
The executor loads them all before its pool forks.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import re
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .core import (
    ABOVE_0,
    ANCHOR_RE,
    AT_LEAST_0,
    AT_LEAST_1,
    COMPILED_SUFFIXES,
    CSYNTH_REPORT_RELPATH,
    FINITE,
    FINITE_ABOVE_0,
    IMPL_REPORT_RELPATH,
    MANIFEST_FILENAME,
    OPT_RENDERED_FILENAME,
    SOURCE_SUFFIXES,
    Range,
    check_ranges,
    plain_name,
    ranged,
    read_record,
    validate_design_files,
    walk_files,
    write_json,
)
from .errors import (
    ExecutableNotFound,
    HlsForgeError,
    InvalidFactor,
    LabelUnknown,
    MalformedReport,
    ManifestMissing,
    SynthReportMissing,
)

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_SKIPPED = "skipped_missing_files"

KIND_MOCK_SYNTH = "mock_synth"
KIND_MOCK_IMPL = "mock_impl"
KIND_EXTERNAL = "external"
_MOCK_REPORTS = {KIND_MOCK_SYNTH: CSYNTH_REPORT_RELPATH, KIND_MOCK_IMPL: IMPL_REPORT_RELPATH}

_PRAGMA_UNROLL_RE = re.compile(r"^\s*#pragma\s+unroll\s+(\S+)\s*$")
_NUMBANKS_RE = re.compile(r"^\s*hls_numbanks\((.*)\)\s*$")
_BANKWIDTH_RE = re.compile(r"^\s*hls_bankwidth\((\d+)\)\s*$")

DEFAULT_TIMEOUT_S = 3600.0  # a flow's time budget when none is given
# the longest wait poll() takes, in whole milliseconds in a C int; Popen.communicate
# waits on it, so a longer timeout fails every external job with OverflowError
MAX_TIMEOUT_S = (2 ** 31 - 1) / 1000


@dataclass(frozen=True)
class MockCostConstants:
    """Knobs of the mock cost model; vary them to emulate a tool version bump. Every
    number is finite (json.load also gives NaN, Infinity and huge ints)."""

    version: str = "mock-2023.1"
    lut_per_op: int = ranged(FINITE, AT_LEAST_0, default=25)
    ff_per_op: int = ranged(FINITE, AT_LEAST_0, default=15)
    bank_bytes: int = ranged(FINITE, AT_LEAST_1, default=2048)
    clock_base_ns: float = ranged(FINITE, ABOVE_0, default=3.0)
    clock_unroll_ns: float = ranged(FINITE, AT_LEAST_0, default=0.2)
    impl_scale: float = ranged(FINITE, AT_LEAST_0, default=0.9)
    wns_lut_coeff: float = ranged(FINITE, AT_LEAST_0, default=0.1)
    whs_ns: float = ranged(FINITE, default=0.1)
    power_base_w: float = ranged(FINITE, AT_LEAST_0, default=0.5)
    power_lut_w: float = ranged(FINITE, AT_LEAST_0, default=1e-5)
    power_dsp_w: float = ranged(FINITE, AT_LEAST_0, default=1e-3)

    __post_init__ = check_ranges


@dataclass(frozen=True)
class LoopSpec:
    label: str
    trip_count: int = ranged(AT_LEAST_0)
    body_ops: int = ranged(AT_LEAST_1)
    mult_ops: int = ranged(AT_LEAST_0, default=0)

    __post_init__ = check_ranges


@dataclass(frozen=True)
class ArraySpec:
    label: str
    depth: int = ranged(AT_LEAST_0)
    elem_bytes: int = ranged(AT_LEAST_0)

    __post_init__ = check_ranges


@dataclass(frozen=True)
class MockManifest:
    """Workload description the mock cost model prices, read by its declaration
    (core.read_record): every value must have its field's JSON type and lie in its
    field's range, and a key no field declares, such as ``top``, is ignored."""

    loops: tuple[LoopSpec, ...]
    base_lut: int = ranged(AT_LEAST_0)
    base_ff: int = ranged(AT_LEAST_0)
    arrays: tuple[ArraySpec, ...] = ()
    clock_target_ns: float = ranged(FINITE_ABOVE_0, default=10.0)

    __post_init__ = check_ranges

    @classmethod
    def load(cls, design_root: Path) -> "MockManifest":
        path = Path(design_root) / MANIFEST_FILENAME
        try:
            if (manifest := read_record(cls, path, ignore_unknown=True)) is not None:
                return manifest
        except MalformedReport as exc:
            raise ManifestMissing(str(exc)) from exc
        raise ManifestMissing(f"{path} does not exist")


@dataclass(frozen=True)
class ToolFlowSpec:
    """What to run per design: required inputs, how to run it, time budget."""

    name: str
    kind: str
    required_files: tuple[str, ...] = ()
    timeout_s: float = DEFAULT_TIMEOUT_S
    environment: tuple[tuple[str, str], ...] = ()
    command_template: tuple[str, ...] = ()
    version_command: tuple[str, ...] = ()
    constants: MockCostConstants = MockCostConstants()


@dataclass(frozen=True, slots=True)
class FlowOutcome:
    design_id: str
    flow_name: str
    status: str
    runtime_s: float
    log_path: Path | None


@dataclass(frozen=True)
class DirectiveProfile:
    """Directives recovered from a lowered design tree."""

    unroll: dict
    pipelined: frozenset
    banks: dict
    mode: str  # "tcl", "intel" or "bare"


def mock_synth_flow(timeout_s: float = DEFAULT_TIMEOUT_S,
                    constants: MockCostConstants = MockCostConstants()) -> ToolFlowSpec:
    return ToolFlowSpec(name="mock_hls_synth", kind=KIND_MOCK_SYNTH,
                        required_files=(MANIFEST_FILENAME,), timeout_s=timeout_s,
                        constants=constants)


def mock_impl_flow(timeout_s: float = DEFAULT_TIMEOUT_S,
                   constants: MockCostConstants = MockCostConstants()) -> ToolFlowSpec:
    return ToolFlowSpec(name="mock_impl", kind=KIND_MOCK_IMPL,
                        required_files=(MANIFEST_FILENAME, CSYNTH_REPORT_RELPATH),
                        timeout_s=timeout_s, constants=constants)


def _require_executable(executable: str) -> None:
    if shutil.which(executable) is None:
        raise ExecutableNotFound(f"{executable!r} not found on PATH")


# the vendor flow types, each as its default executable, its command's first item,
# runs it ({sources} expands to the design's top-level C/C++ files)
EXTERNAL_FLOWS = {spec.name: spec for spec in (
    ToolFlowSpec("vitis_hls_synth", KIND_EXTERNAL, ("dataset_hls.tcl",),
                 command_template=("vitis_hls", "-f", "dataset_hls.tcl"),
                 version_command=("vitis_hls", "-version")),
    ToolFlowSpec("vitis_hls_impl", KIND_EXTERNAL, ("dataset_hls_ip_export.tcl",),
                 command_template=("vitis_hls", "-f", "dataset_hls_ip_export.tcl"),
                 version_command=("vitis_hls", "-version")),
    ToolFlowSpec("intel_hls", KIND_EXTERNAL,
                 command_template=("i++", "-march=FPGA", "--quartus-compile", "{sources}"),
                 version_command=("i++", "--version")),
)}


def custom_flow(name: str, command: tuple[str, ...], required_files: tuple[str, ...] = (),
                timeout_s: float = DEFAULT_TIMEOUT_S,
                environment: tuple[tuple[str, str], ...] = ()) -> ToolFlowSpec:
    """External flow around an arbitrary command; {design_dir} expands in argv."""
    _require_executable(command[0])
    return ToolFlowSpec(name=name, kind=KIND_EXTERNAL, required_files=required_files,
                        timeout_s=timeout_s, environment=environment, command_template=command)


@dataclass
class FlowEntry:
    """An entry of a run config's flows: each flow type declares the keys it reads as
    the fields of a subclass (FLOW_ENTRIES), with their JSON types and defaults."""

    type: str
    timeout_s: float = ranged(Range(f"positive and at most {MAX_TIMEOUT_S}", math.ulp(0.0),
                                    MAX_TIMEOUT_S), default=DEFAULT_TIMEOUT_S)

    __post_init__ = check_ranges


def _environment(variables: dict) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((name, str(value)) for name, value in variables.items()))


@dataclass
class MockFlowEntry(FlowEntry):
    """mock_synth or mock_impl; no mock run reads its timeout."""

    constants: MockCostConstants = MockCostConstants()

    def spec(self, index: int) -> ToolFlowSpec:
        flow = mock_synth_flow if self.type == KIND_MOCK_SYNTH else mock_impl_flow
        return flow(self.timeout_s, self.constants)


@dataclass
class ExternalFlowEntry(FlowEntry):
    """A type of EXTERNAL_FLOWS: a null executable or an empty command is the type's own."""

    environment: dict = field(default_factory=dict)
    executable: str | None = None
    command: list[str] = ()

    def spec(self, index: int) -> ToolFlowSpec:
        flow = EXTERNAL_FLOWS[self.type]
        executable = flow.command_template[0] if self.executable is None else self.executable
        _require_executable(executable)
        command = tuple(self.command) or (executable, *flow.command_template[1:])
        return replace(flow, timeout_s=self.timeout_s, environment=_environment(self.environment),
                       command_template=command,
                       version_command=(executable, *flow.version_command[1:]))


@dataclass
class CustomFlowEntry(FlowEntry):
    """A custom flow, named custom_<index> when its name is null. The name names the
    flow's log file, so it is a plain name (core.plain_name)."""

    name: str | None = None
    command: list[str] = ()
    required_files: list[str] = ()
    environment: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        if not self.command:
            raise ValueError("command must be a non-empty list of strings")
        if self.name is not None:
            plain_name("name", self.name)

    def spec(self, index: int) -> ToolFlowSpec:
        return custom_flow(f"custom_{index}" if self.name is None else self.name,
                           tuple(self.command), tuple(self.required_files), self.timeout_s,
                           _environment(self.environment))


# each flow type a run config's flows may name, and the keys its entries read
FLOW_ENTRIES = {KIND_MOCK_SYNTH: MockFlowEntry, KIND_MOCK_IMPL: MockFlowEntry,
                **dict.fromkeys(EXTERNAL_FLOWS, ExternalFlowEntry), "custom": CustomFlowEntry}


def tool_version(spec: ToolFlowSpec) -> str:
    """Mock flows report their constants' version; external tools are asked once."""
    if spec.kind in (KIND_MOCK_SYNTH, KIND_MOCK_IMPL):
        return spec.constants.version
    if not spec.version_command:
        return "unknown"
    return _ask_version(spec.version_command)


@functools.cache
def _ask_version(argv: tuple[str, ...]) -> str:
    """First non-blank line the tool prints for its version argv."""
    import subprocess
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=30.0)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return next((line.strip() for line in (proc.stdout or proc.stderr).splitlines()
                 if line.strip()), "unknown")


def extract_directives(design_root: Path) -> DirectiveProfile:
    """Recover directives from opt.tcl, or from injected intel annotations.

    Trees with opt.tcl are read as Tcl set_directive commands. Otherwise, if
    any source carries an anchor comment the tree is treated as intel-lowered:
    pragmas following each anchor are read and every anchored loop counts as
    pipelined (the i++ default). A tree with neither yields no directives.
    """
    design_root = Path(design_root)
    opt_path = design_root / OPT_RENDERED_FILENAME
    unroll: dict = {}
    pipelined: set = set()
    banks: dict = {}
    if opt_path.exists():
        factors = {"set_directive_unroll": unroll, "set_directive_array_partition": banks}
        for line in opt_path.read_text().splitlines():
            tokens = line.split() or [""]  # a blank line, a comment or another command: skipped
            label = tokens[-1].split("/")[-1]
            if tokens[0] == "set_directive_pipeline":
                pipelined.add(label)
            elif tokens[0] in factors:
                factors[tokens[0]][label] = (_factor(label, tokens[tokens.index("-factor") + 1])
                                             if "-factor" in tokens else 1)
        return DirectiveProfile(unroll, frozenset(pipelined), banks, "tcl")

    # sources by Path.suffix (a leading dot starts none), read part by part
    # in sorted(Path) order
    sources = sorted((rel for rel in walk_files(design_root)
                      if rel.rpartition("/")[2][1:].endswith(SOURCE_SUFFIXES)),
                     key=lambda rel: rel.split("/"))
    mode = "bare"  # until an anchor is found
    for rel in sources:
        lines = (design_root / rel).read_text().splitlines()
        for i, line in enumerate(lines):
            if match := ANCHOR_RE.search(line):
                mode, label = "intel", match.group(1)
                for annotation in lines[i + 1:]:  # annotations sit directly under the anchor
                    if m := _PRAGMA_UNROLL_RE.match(annotation):
                        unroll[label] = _factor(label, m.group(1))
                    elif m := _NUMBANKS_RE.match(annotation):
                        banks[label] = _factor(label, m.group(1))
                    elif not _BANKWIDTH_RE.match(annotation):
                        break
    # intel trees carry no explicit pipeline marker; the cost model pipelines
    # every manifest loop when mode is "intel" (the i++ default)
    return DirectiveProfile(unroll, frozenset(pipelined), banks, mode)


def _factor(label: str, text: str) -> int:
    """text, the factor of a directive on label, as an int (int's ValueError when it is
    none); InvalidFactor unless it is >= 1."""
    if (factor := int(text)) < 1:
        raise InvalidFactor(f"the directive on {label!r} has factor {factor}, not >= 1")
    return factor


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def compute_mock_synth_metrics(manifest: MockManifest, profile: DirectiveProfile,
                               constants: MockCostConstants) -> HlsSynthMetrics:
    from .aggregate import HlsSynthMetrics
    loop_labels = {loop.label for loop in manifest.loops}
    array_labels = {array.label for array in manifest.arrays}
    for label in sorted(set(profile.unroll) | set(profile.pipelined)):
        if label not in loop_labels:
            raise LabelUnknown(f"directive targets loop {label!r} not in the manifest")
    for label in sorted(profile.banks):
        if label not in array_labels:
            raise LabelUnknown(f"array_partition targets array {label!r} not in the manifest")

    pipelined = set(profile.pipelined)
    if profile.mode == "intel":
        pipelined |= loop_labels

    latency, lut, ff, dsp, max_unroll = 0, manifest.base_lut, manifest.base_ff, 0, 1
    for loop in manifest.loops:
        factor = profile.unroll.get(loop.label, 1)
        max_unroll = max(max_unroll, factor)
        iterations = _ceil_div(loop.trip_count, factor)
        if loop.label in pipelined:
            latency += iterations - 1 + loop.body_ops
        else:
            latency += iterations * loop.body_ops
        lut += constants.lut_per_op * loop.body_ops * factor
        ff += constants.ff_per_op * loop.body_ops * factor
        dsp += loop.mult_ops * factor
    bram = 0
    for array in manifest.arrays:
        bram += _ceil_div(array.depth * array.elem_bytes, constants.bank_bytes) \
            * profile.banks.get(array.label, 1)
    clock = constants.clock_base_ns + constants.clock_unroll_ns * math.log2(max_unroll)
    return HlsSynthMetrics(
        latency_best_cycles=latency, latency_avg_cycles=latency,
        latency_worst_cycles=2 * latency, ii=None, clock_estimate_ns=clock,
        lut=lut, ff=ff, dsp=dsp, bram=bram, uram=0)


def compute_mock_impl_metrics(hls: HlsSynthMetrics, clock_target_ns: float,
                              constants: MockCostConstants) -> ImplMetrics:
    from .aggregate import ImplMetrics
    wns = clock_target_ns - hls.clock_estimate_ns \
        - constants.wns_lut_coeff * math.log2(1 + hls.lut / 1000)
    power = constants.power_base_w + hls.lut * constants.power_lut_w \
        + hls.dsp * constants.power_dsp_w
    return ImplMetrics(
        wns_ns=wns, whs_ns=constants.whs_ns,
        lut=round(constants.impl_scale * hls.lut), ff=round(constants.impl_scale * hls.ff),
        dsp=round(constants.impl_scale * hls.dsp), bram=round(constants.impl_scale * hls.bram),
        total_power_w=power)


def simulated_runtime_s(lut: int, ff: int) -> float:
    """Deterministic stand-in runtime so mock runs reproduce byte-identically."""
    return round((lut + ff) / 50000.0, 6)


def mock_hls_synth(design, constants: MockCostConstants = MockCostConstants()) -> str:
    """Price the design and write hls_prj/solution1/syn/report/csynth.xml; returns the log text."""
    from .aggregate import write_vitis_csynth_report
    root = design.dir
    manifest = MockManifest.load(root)
    profile = extract_directives(root)
    metrics = compute_mock_synth_metrics(manifest, profile, constants)
    write_vitis_csynth_report(root / CSYNTH_REPORT_RELPATH, metrics)
    return (f"mock hls synth ({constants.version}) on {design.id}\n"
            f"directive source: {profile.mode}\n"
            f"unroll={dict(sorted(profile.unroll.items()))} "
            f"pipelined={sorted(profile.pipelined)} banks={dict(sorted(profile.banks.items()))}\n"
            f"latency_avg={metrics.latency_avg_cycles} lut={metrics.lut} ff={metrics.ff} "
            f"dsp={metrics.dsp} bram={metrics.bram} clock_estimate_ns={metrics.clock_estimate_ns}\n")


def mock_impl(design, constants: MockCostConstants = MockCostConstants()) -> str:
    """Derive implementation results from the synthesis report; returns the log text."""
    from .aggregate import parse_vitis_csynth_report
    root = design.dir
    report_path = root / CSYNTH_REPORT_RELPATH
    try:
        hls = parse_vitis_csynth_report(report_path.read_text())
    except FileNotFoundError as exc:
        raise SynthReportMissing(f"{report_path} does not exist; run synthesis first") from exc
    manifest = MockManifest.load(root)
    metrics = compute_mock_impl_metrics(hls, manifest.clock_target_ns, constants)
    write_json(root / IMPL_REPORT_RELPATH, metrics)  # hls_prj/ holds the report just read
    return (f"mock impl ({constants.version}) on {design.id}\n"
            f"clock_target_ns={manifest.clock_target_ns} wns_ns={metrics.wns_ns} "
            f"lut={metrics.lut} ff={metrics.ff} power_w={metrics.total_power_w}\n")


def _expand_argv(spec: ToolFlowSpec, root: Path) -> list[str]:
    argv: list[str] = []
    for token in spec.command_template:
        if token == "{sources}":
            argv.extend(sorted(str(p.name) for p in root.iterdir()
                               if p.suffix in COMPILED_SUFFIXES))
        else:
            argv.append(token.replace("{design_dir}", str(root)))
    return argv


def _run_external(spec: ToolFlowSpec, root: Path) -> tuple[str, str]:
    """Run spec's command in root: its status and its log text."""
    import signal
    import subprocess

    from .pool import tool_fds
    argv = _expand_argv(spec, root)
    env = {**os.environ, **dict(spec.environment)} if spec.environment else None
    try:
        # a session of its own, so a timeout can kill every process the tool spawned;
        # the worker's mark, by which the pool's parent finds it should this worker die
        with subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env, start_new_session=True,
                              pass_fds=tool_fds()) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=spec.timeout_s)
                status = STATUS_OK if proc.returncode == 0 else STATUS_FAILED
                tail = f"exit code {proc.returncode}"
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                stdout, stderr = proc.communicate()
                status = STATUS_TIMEOUT
                tail = f"timed out after {spec.timeout_s}s (process group killed)"
            except BaseException:  # an interrupt: the tool's own session would outlive it
                with contextlib.suppress(ProcessLookupError):  # the whole group has exited
                    os.killpg(proc.pid, signal.SIGKILL)
                raise
    except OSError as exc:
        status = STATUS_FAILED
        stdout, stderr, tail = "", str(exc), "failed to launch"
    return status, (f"command: {' '.join(argv)}\n--- stdout ---\n{stdout}\n"
                    f"--- stderr ---\n{stderr}\n{tail}\n")


def flow_log(root: Path, flow_name: str) -> Path:
    """The log a run of the flow named flow_name leaves in the design directory root."""
    return root / f"{flow_name}.log"


def write_log(path: Path, text: str, mode: str = "w") -> bool:
    """Write text to a flow's log, or with mode "a" append it; False when the log
    cannot be written. A run whose log cannot be written failed, and fails only its
    own design: this is where that write error becomes an outcome."""
    try:
        with open(path, mode) as log:
            log.write(text)
    except OSError:
        return False
    return True


def _outcome(spec: ToolFlowSpec, design, status: str, runtime: float, log: str) -> FlowOutcome:
    """A run of spec on design ended with status: write its log (write_log); a mock run
    that did not end ok leaves no earlier run's report behind. A report that cannot be
    removed fails the run, and its log ends with a line naming the error and the report."""
    root = design.dir
    log_path = flow_log(root, spec.name)
    if not write_log(log_path, log):
        status = STATUS_FAILED
    if status != STATUS_OK and spec.kind in _MOCK_REPORTS:
        try:
            (root / _MOCK_REPORTS[spec.kind]).unlink(missing_ok=True)
        except OSError as exc:
            status = STATUS_FAILED
            write_log(log_path, f"stale report not removed: {type(exc).__name__}: {exc}\n", "a")
    return FlowOutcome(design.id, spec.name, status, runtime, log_path)


def run_flow(spec: ToolFlowSpec, design) -> FlowOutcome:
    """Run one flow on one design; failures become outcomes, never exceptions. The
    runtime spans the call up to the writing of the log."""
    start = time.monotonic()
    try:
        missing = validate_design_files(design, spec.required_files)
        if missing:
            status = STATUS_SKIPPED
            log = f"skipped: required file(s) missing: {', '.join(missing)}\n"
        elif spec.kind == KIND_EXTERNAL:
            status, log = _run_external(spec, design.dir)
        elif spec.kind == KIND_MOCK_SYNTH:
            status, log = STATUS_OK, mock_hls_synth(design, spec.constants)
        elif spec.kind == KIND_MOCK_IMPL:
            status, log = STATUS_OK, mock_impl(design, spec.constants)
        else:
            raise ValueError(f"unknown flow kind {spec.kind!r}")
    except Exception as exc:  # one bad design fails its own job, not its worker
        import traceback
        return failed_outcome(spec, design, exc, time.monotonic() - start,
                              f"\n{traceback.format_exc()}")
    return _outcome(spec, design, status, time.monotonic() - start, log)


def failed_outcome(spec: ToolFlowSpec, design, exc: Exception, runtime: float = 0.0,
                   detail: str = "") -> FlowOutcome:
    """spec failed on design with exc: no earlier run's report stays, and the log names exc."""
    return _outcome(spec, design, STATUS_FAILED, runtime,
                    f"flow {spec.name} failed: {type(exc).__name__}: {exc}\n{detail}")


def extract_design(design, primary: ToolFlowSpec | None = None, version: str = "",
                   outcome: FlowOutcome | None = None) -> int:
    """Write the design's data_*.json from its reports; returns how many. An
    absent or unreadable report leaves its section null. The execution section,
    left out without an outcome, records the primary (first) flow's outcome:
    an external flow's runtime as measured, a mock flow's simulated one."""
    from .aggregate import (ExecutionMeta, ImplMetrics, MetricsBundle,
                            parse_vitis_csynth_report, write_standard_json)
    root = design.dir
    bundle = MetricsBundle()
    with contextlib.suppress(OSError, UnicodeDecodeError, HlsForgeError):
        bundle.hls = parse_vitis_csynth_report((root / CSYNTH_REPORT_RELPATH).read_text())
    with contextlib.suppress(MalformedReport):
        bundle.impl = read_record(ImplMetrics, root / IMPL_REPORT_RELPATH, ignore_unknown=True)
    if outcome is not None:
        if primary.kind == KIND_EXTERNAL:
            runtime = round(outcome.runtime_s, 6)
        else:
            hls = bundle.hls
            runtime = simulated_runtime_s(hls.lut, hls.ff) if hls is not None else 0.0
        bundle.execution = ExecutionMeta(primary.name, version, runtime, outcome.status)
    return len(write_standard_json(root, bundle))


def perturbed_constants(base: MockCostConstants = MockCostConstants(),
                        version: str = "mock-2024.1") -> MockCostConstants:
    """A second mock tool version with shifted area/timing behavior (for A/B runs)."""
    return replace(base, version=version,
                   lut_per_op=base.lut_per_op + 6, ff_per_op=base.ff_per_op + 4,
                   clock_unroll_ns=base.clock_unroll_ns + 0.1,
                   power_base_w=base.power_base_w + 0.2)
