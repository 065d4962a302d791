"""Command-line interface.

Subcommands: expand (lower design spaces), build (run tool flows and extract
reports), aggregate (flatten to csv/jsonl, optionally archive), regress
(compare two exported tables), stats (coverage summaries), demo (end-to-end
run on the bundled designs).

Exit codes: 0 success, 1 partial failure (e.g. designs that failed to lower),
2 configuration error, 3 environment error (missing tool), 4 no data.

A command imports the modules it runs when it runs: analysis, executor,
frontends, aggregate and pool are imported inside the functions that use them,
so building flow specs loads none of them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from collections import Counter
from pathlib import Path

from .core import (
    AT_LEAST_1,
    POST_FRONTEND_SUFFIX,
    STRATEGIES,
    TIMELINE_FILENAME,
    DatasetCollection,
    FrontendConfig,
    WorkspaceLayout,
    check_ranges,
    load_dataset,
    load_post_frontend,
    local_workers,
    plain_name,
    ranged,
    read_declared,
    read_json,
    write_json,
)
from .errors import (
    ConfigError,
    EmptyDataset,
    EmptyValues,
    ExecutableNotFound,
    HlsForgeError,
    MalformedReport,
    MissingDirectory,
    MissingField,
    NoPairs,
)
from .toolflows import (
    FLOW_ENTRIES,
    FlowEntry,
    ToolFlowSpec,
    extract_design,
    mock_impl_flow,
    mock_synth_flow,
)

WORK_DIR_ENV = "HLSFORGE_WORK_DIR"


@dataclasses.dataclass
class RunConfig:
    work_dir: Path
    seed: int
    datasets: dict
    frontend: FrontendConfig
    flows: list
    strategy: str
    n_workers: int
    pin_cores: bool


@dataclasses.dataclass
class _Executor:
    strategy: str = "fine_grained"
    # this module's local_workers, looked up each time a config is read
    n_workers: int = ranged(AT_LEAST_1, default_factory=lambda: local_workers())
    pin_cores: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be {' or '.join(STRATEGIES)}")
        check_ranges(self)


@dataclasses.dataclass
class _RunFile:
    work_dir: str = ""
    seed: int = 0
    datasets: dict[str, str] = dataclasses.field(default_factory=dict)
    frontend: dict = dataclasses.field(default_factory=dict)
    flows: list = dataclasses.field(default_factory=list)
    executor: _Executor = dataclasses.field(default_factory=_Executor)

    def __post_init__(self):
        for name in self.datasets:  # each names a directory of the work tree
            plain_name("datasets name", name)
            if name.endswith(POST_FRONTEND_SUFFIX):  # the directory of the name without it
                raise ValueError(f"datasets name {name!r} must not end in {POST_FRONTEND_SUFFIX}")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _read(cls, raw, where: str, prefix: str = "", **given):
    """raw, the object at key path where, read as the dataclass cls declares
    (core.read_declared), refusing a key no field declares. What it refuses is a
    ConfigError: prefix goes before what the reader finds, while a declaration's own
    check names its key path alone."""
    try:
        return read_declared(cls, raw, where, **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except (MissingField, MalformedReport) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _flow_entry(index: int, raw) -> FlowEntry:
    """flows[index], read as its type declares (toolflows.FLOW_ENTRIES): a key only
    other types read is refused naming the type, one no type reads as unknown."""
    where = f"flows[{index}]"
    _expect(isinstance(raw, dict) and "type" in raw, f"{where} must be an object with a type")
    kind = raw["type"]
    _expect(isinstance(kind, str) and kind in FLOW_ENTRIES, f"{where}: unknown flow type {kind!r}")
    own = {field.name for field in dataclasses.fields(FLOW_ENTRIES[kind])}
    unread = {field.name for entry in FLOW_ENTRIES.values() for field in dataclasses.fields(entry)
              if field.name in raw} - own
    _expect(not unread, f"{where}: a {kind} flow reads no key(s) "
                        f"{', '.join(map(repr, sorted(unread)))}")
    return _read(FLOW_ENTRIES[kind], raw, f"{where}.")


def load_run_config(path: Path) -> RunConfig:
    """Parse and validate the single-JSON run configuration: each section, and each
    flow entry, is read as its dataclass declares (_read)."""
    try:
        payload = read_json(path)
    except MalformedReport as exc:
        raise ConfigError(f"config file {exc}") from exc
    _expect(payload is not None, f"config file {path} does not exist")
    run = _read(_RunFile, payload, "", f"config file {path}: ")
    work_dir = os.environ.get(WORK_DIR_ENV) or run.work_dir
    _expect(bool(work_dir), f"work_dir must be a directory path string (or set {WORK_DIR_ENV})")
    # the run's seed is the frontend's
    frontend = _read(FrontendConfig, run.frontend, "frontend.", seed=run.seed)
    for index, flow in enumerate(run.flows):
        _flow_entry(index, flow)
    return RunConfig(work_dir=Path(work_dir), seed=run.seed, datasets=run.datasets,
                     frontend=frontend, flows=run.flows, strategy=run.executor.strategy,
                     n_workers=run.executor.n_workers, pin_cores=run.executor.pin_cores)


def build_flow_specs(raw_flows: list) -> list[ToolFlowSpec]:
    """Instantiate every configured flow up front (missing tools fail fast); each entry
    is read as its type declares (_flow_entry), and no two flows may share a name."""
    specs = []
    for i, raw in enumerate(raw_flows):
        specs.append(_flow_entry(i, raw).spec(i))
        first = next(j for j, spec in enumerate(specs) if spec.name == specs[-1].name)
        _expect(first == i, f"flows[{first}] and flows[{i}] are both named {specs[-1].name!r}; "
                            f"a flow's name keys its log and its outcomes")
    return specs


def run_flows(collection: DatasetCollection, specs: list[ToolFlowSpec], strategy: str,
              n_workers: int, pin_cores: bool) -> tuple[dict, Timeline]:
    """Run every design's chain of flows over the collection (executor.run_chains):
    ({flow_name: {(dataset, design_id): outcome}}, timeline); two datasets may hold
    designs of the same id."""
    from .executor import Timeline, flow_outcomes, run_chains
    results: dict = {spec.name: {} for spec in specs}
    timeline = Timeline(n_workers)
    for name, design, _, spans in run_chains(collection, specs, timeline, strategy, pin_cores):
        for outcome in flow_outcomes(design, specs, spans):
            results[outcome.flow_name][name, design.id] = outcome
    return results, timeline


def extract_reports(collection: DatasetCollection, specs: list[ToolFlowSpec],
                    results: dict) -> int:
    """Write the data_*.json, without execution section, of each design results holds no
    first-flow outcome for; returns how many. Each chain writes its own (executor.run_chains),
    so this serves a tree built elsewhere, passed with results={}."""
    from .pool import fork_imap
    outcomes = results.get(specs[0].name, {}) if specs else {}
    pending = [design for name, dataset in collection.items() for design in dataset.designs
               if (name, design.id) not in outcomes]
    return sum(fork_imap(extract_design, pending, local_workers()))


def _report_expansion(result) -> bool:
    """Print an expansion's space sizes and failures; True when nothing failed."""
    for (dataset_name, design_name), (space, lowered) in result.sizes.items():
        print(f"{dataset_name}/{design_name}: space={space} sampled={lowered}")
    for dataset_name, design_name, message in result.failures:
        print(f"FAILED {dataset_name}/{design_name}: {message}", file=sys.stderr)
    return not result.failures


def _build(collection: DatasetCollection, specs: list[ToolFlowSpec], strategy: str,
           n_workers: int, pin_cores: bool, work_dir: Path) -> Timeline:
    """Run the flows (executor.run_chains), write timeline.json, print each flow's statuses."""
    from .executor import Timeline, run_chains, write_timeline
    timeline = Timeline(n_workers)
    counts = [Counter() for _ in specs]
    for *_, spans in run_chains(collection, specs, timeline, strategy, pin_cores):
        for count, (_, _, status, _) in zip(counts, spans):  # the flows' spans
            count[status] += 1
    write_timeline(work_dir / TIMELINE_FILENAME, timeline)
    for spec, count in zip(specs, counts):
        summary = ", ".join(f"{status}={n}" for status, n in sorted(count.items()))
        print(f"flow {spec.name}: {summary}")
    return timeline


def cmd_expand(args) -> int:
    from .frontends import execute_frontend
    config = load_run_config(args.config)
    _expect(bool(config.datasets), "expand needs a non-empty datasets map")
    layout = WorkspaceLayout(config.work_dir).ensure()
    collection: DatasetCollection = {}
    for name, directory in config.datasets.items():
        collection[name] = load_dataset(Path(directory), name)
    return 0 if _report_expansion(execute_frontend(collection, config.frontend, layout)) else 1


def cmd_build(args) -> int:
    from .executor import utilization_rows
    config = load_run_config(args.config)
    _expect(bool(config.flows), "build needs a non-empty flows list")
    specs = build_flow_specs(config.flows)
    collection = load_post_frontend(config.work_dir)
    if not collection:
        print(f"no post-frontend designs under {config.work_dir}", file=sys.stderr)
        return 4
    timeline = _build(collection, specs, config.strategy, config.n_workers, config.pin_cores,
                      config.work_dir)
    n_designs = sum(len(ds.designs) for ds in collection.values())
    print(f"{n_designs} designs processed; timeline at {config.work_dir / TIMELINE_FILENAME}")
    if args.utilization_csv:
        with open(args.utilization_csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=("worker", "n_jobs", "busy_s", "span_s"),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(utilization_rows(timeline))
        print(f"worker utilization at {args.utilization_csv}")
    return 0


def cmd_aggregate(args) -> int:
    from . import aggregate as agg
    config = load_run_config(args.config)
    table = agg.aggregate_collection(config.work_dir)
    out = Path(args.out) if args.out else config.work_dir / f"aggregated.{args.format}"
    agg.export_tabular(table, out, format=args.format)
    print(f"{len(table.rows)} rows -> {out}")
    if args.archive:
        archive_path = agg.archive_dataset(config.work_dir, Path(args.archive),
                                           include_artifacts=args.include_artifacts)
        print(f"archive -> {archive_path}")
    return 0


def _column(option: str, name: str, numeric: bool = True) -> str:
    """name, when the table schema has such a column, holding numbers if numeric."""
    from . import aggregate as agg
    kind = agg.COLUMN_TYPES.get(name)
    _expect(kind is not None, f"{option}: unknown column {name!r}")
    _expect(not numeric or kind is not str, f"{option}: column {name!r} is not numeric")
    return name


def _metrics(args, default: tuple) -> tuple:
    """The --metrics columns, or default when none are given."""
    if not args.metrics:
        return default
    return tuple(_column("--metrics", name) for name in args.metrics.split(","))


def cmd_regress(args) -> int:
    from . import aggregate as agg
    from .analysis import DEFAULT_REGRESSION_METRICS, compare_tool_versions, format_regression_table
    metrics = _metrics(args, DEFAULT_REGRESSION_METRICS)
    _expect(0 < args.alpha < 1, f"--alpha must be > 0 and < 1, got {args.alpha}")
    table_a = agg.load_table(Path(args.table_a))
    table_b = agg.load_table(Path(args.table_b))
    report = compare_tool_versions(table_a, table_b, metrics=metrics, alpha=args.alpha)
    print(format_regression_table(report))
    if args.json:
        write_json(args.json, report.to_json_dict())
        print(f"report -> {args.json}")
    return 0


def cmd_stats(args) -> int:
    from . import aggregate as agg
    from .analysis import (DEFAULT_COVERAGE_METRICS, coverage_summary, format_coverage_table,
                           histogram)
    metrics = _metrics(args, DEFAULT_COVERAGE_METRICS)
    _column("--group-by", args.group_by, numeric=False)
    if args.hist:
        _column("--hist", args.hist)
    table = agg.load_table(Path(args.table))
    if not table.rows:
        print("table has no rows", file=sys.stderr)
        return 4
    summary = coverage_summary(table, group_by=args.group_by, metrics=metrics)
    print(format_coverage_table(summary))
    if args.hist:
        try:
            bins = histogram([getattr(row, args.hist) for row in table.rows], args.bins)
        except EmptyValues:
            print(f"\nno values for {args.hist}")
        else:
            print(f"\nhistogram of {args.hist} ({sum(c for *_, c in bins)} values)")
            for lo, hi, count in bins:
                print(f"  [{lo:>14.4f}, {hi:>14.4f}) {count:>6} {'#' * min(count, 60)}")
    if args.json:
        write_json(args.json, summary.to_json_dict())
        print(f"summary -> {args.json}")
    return 0


def bundled_designs_dir() -> Path:
    """Directory of the designs shipped inside the package."""
    from importlib import resources
    return Path(str(resources.files("hlsforge") / "fixtures" / "designs"))


def cmd_demo(args) -> int:
    from . import aggregate as agg
    from .analysis import coverage_summary, format_coverage_table
    from .frontends import empty_assignment, execute_frontend, lower_xilinx
    out_dir = Path(args.out)
    layout = WorkspaceLayout(out_dir).ensure()
    fixtures = bundled_designs_dir()

    sampled_source = load_dataset(fixtures, "demo")
    frontend = FrontendConfig(vendor="xilinx", random_sample=True,
                              n_samples=args.n_samples, seed=args.seed)
    if not _report_expansion(execute_frontend({"demo": sampled_source}, frontend, layout)):
        return 1

    base_source = load_dataset(fixtures, "demo_base")
    base_designs = [lower_xilinx(design, empty_assignment(), layout)
                    for design in base_source.designs]
    print(f"demo_base: {len(base_designs)} all-defaults baselines lowered")

    collection = load_post_frontend(out_dir)
    _build(collection, [mock_synth_flow(), mock_impl_flow()], args.strategy, args.n_workers,
           False, out_dir)

    table = agg.aggregate_collection(out_dir)
    csv_path = agg.export_tabular(table, out_dir / "aggregated.csv", format="csv")
    jsonl_path = agg.export_tabular(table, out_dir / "aggregated.jsonl", format="jsonl")
    summary = coverage_summary(table, group_by="dataset")
    write_json(out_dir / "coverage.json", summary.to_json_dict())
    print(format_coverage_table(summary))
    print(f"{len(table.rows)} rows -> {csv_path} and {jsonl_path}")
    print(f"coverage -> {out_dir / 'coverage.json'}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type of a count flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hlsforge",
                                     description="HLS design-space dataset generation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="lower every dataset's design spaces")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("build", help="run tool flows over the post-frontend tree")
    p.add_argument("--config", required=True)
    p.add_argument("--utilization-csv", default=None,
                   help="also write per-worker utilization to this CSV")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("aggregate", help="flatten results into a table")
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--archive", default=None, help="also write a zip archive here")
    p.add_argument("--include-artifacts", action="store_true",
                   help="include hls_prj trees in the archive")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("regress", help="compare two exported tables (Wilcoxon)")
    p.add_argument("table_a")
    p.add_argument("table_b")
    p.add_argument("--metrics", default=None, help="comma-separated column names")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("stats", help="coverage summary of an exported table")
    p.add_argument("table")
    p.add_argument("--group-by", default="base_name")
    p.add_argument("--metrics", default=None, help="comma-separated column names")
    p.add_argument("--hist", default=None, help="also print a histogram of this column")
    p.add_argument("--bins", type=_positive_int, default=10)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("demo", help="end-to-end run on the bundled designs")
    p.add_argument("--out", default="hlsforge_demo")
    p.add_argument("--n-samples", type=_positive_int, default=4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n-workers", type=_positive_int, default=4)
    p.add_argument("--strategy", choices=STRATEGIES, default="fine_grained")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ExecutableNotFound as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return 3
    except (NoPairs, EmptyDataset, MissingDirectory) as exc:
        print(f"no data: {exc}", file=sys.stderr)
        return 4
    except (HlsForgeError, OSError) as exc:  # an OSError names its file: an unwritable output
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
