"""End-to-end acceptance checks, one numbered criterion per test.

Every test prints a `[acceptance NN] PASS/FAIL - ...` line straight to the
terminal (capture suspended) so a verbose run doubles as a checklist. Time
budgets are measured with perf_counter around exactly the work they cover.

Criterion 09 is split: the literal reading (sampled metric ranges strictly
contain the all-defaults baselines' ranges) is impossible on this corpus
because baselines are cost minima by construction, so that test is a strict
xfail; the adjusted variant checks the provable pointwise dominance plus
strict range extensions on the far ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from conftest import REFERENCE_TEMPLATE, SIMPLE_TEMPLATE, make_design, tree_bytes
from hlsforge.aggregate import (
    ExecutionMeta,
    HlsSynthMetrics,
    ImplMetrics,
    MetricsBundle,
    aggregate_collection,
    archive_dataset,
    export_tabular,
    load_table,
    read_standard_json,
    write_standard_json,
)
from hlsforge.analysis import wilcoxon_signed_rank
from hlsforge.cli import WORK_DIR_ENV, bundled_designs_dir, main
from hlsforge.core import WorkspaceLayout, load_dataset, load_post_frontend
from hlsforge.executor import execute, simulate_schedule
from hlsforge.frontends import FrontendConfig, execute_frontend, sample_assignments
from hlsforge.optdsl import (
    assignment_at,
    enumerate_design_space,
    iter_assignments,
    parse_opt_template,
    render_assignment,
)
from hlsforge.toolflows import STATUS_OK, STATUS_TIMEOUT, custom_flow, run_flow
from oracles import brute_force_wilcoxon_p, oracle_canonical_renderings, random_template_text


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(WORK_DIR_ENV, raising=False)


@contextmanager
def criterion(capsys, number, description):
    info = {}
    try:
        yield info
    except BaseException:
        _report(capsys, number, "FAIL", description, info)
        raise
    _report(capsys, number, "PASS", description, info)


def _report(capsys, number, verdict, description, info):
    suffix = ""
    if "elapsed" in info:
        suffix = f" ({info['elapsed']:.2f}s, budget {info['budget']:g}s)"
    with capsys.disabled():
        print(f"[acceptance {number:02d}] {verdict} - {description}{suffix}")


def oracle_suite():
    """The reference template plus 20 randomized ones (fixed generator seed)."""
    rng = random.Random(0xACCE97)
    return [REFERENCE_TEMPLATE] + [random_template_text(rng) for _ in range(20)]


def test_criterion_01_enumeration_matches_brute_force(capsys):
    with criterion(capsys, 1, "design spaces match independent recursive enumeration "
                              "on the reference template and 20 randomized ones") as info:
        start = time.perf_counter()
        suite = oracle_suite()
        for i, text in enumerate(suite):
            template = parse_opt_template(text)
            space = enumerate_design_space(template)
            rendered = {render_assignment(template, assignment_at(space, j))
                        for j in range(space.size)}
            assert rendered == oracle_canonical_renderings(template), f"suite template {i}"
            assert len(rendered) == space.size, f"suite template {i}"
            if i == 0:
                assert space.size == 32
        info["elapsed"] = time.perf_counter() - start
        info["budget"] = 1.0
        assert info["elapsed"] < info["budget"]


def test_criterion_02_renderings_are_complete_and_distinct(capsys):
    with criterion(capsys, 2, "every rendering has no unfilled placeholders, the "
                              "expected directive count, and is unique in its space") as info:
        start = time.perf_counter()
        for text in oracle_suite():
            template = parse_opt_template(text)
            space = enumerate_design_space(template)
            seen = set()
            for assignment in iter_assignments(space):
                rendered = render_assignment(template, assignment)
                assert "[" not in rendered and "]" not in rendered
                expected = sum(1 + (1 if s.fixed_directive else 0)
                               for s in assignment.selections)
                assert len([line for line in rendered.splitlines() if line]) == expected
                seen.add(rendered)
            assert len(seen) == space.size
        info["elapsed"] = time.perf_counter() - start
        info["budget"] = 1.0
        assert info["elapsed"] < info["budget"]


def test_criterion_03_sampling_determinism_and_uniformity(capsys, tmp_path):
    with criterion(capsys, 3, "same-seed frontend runs are byte-identical, oversampling "
                              "clamps, and 100000 single draws from a 32-point space stay "
                              "within [2700, 3550] per point") as info:
        start = time.perf_counter()
        fixtures = load_dataset(bundled_designs_dir(), "demo")
        config = FrontendConfig(vendor="xilinx", random_sample=True, n_samples=4, seed=42)
        trees = []
        for run in ("one", "two"):
            work = tmp_path / run
            result = execute_frontend({"demo": fixtures},
                                      config, WorkspaceLayout(work).ensure())
            assert not result.failures
            for (_, design_name), (space, lowered) in result.sizes.items():
                assert lowered == min(4, space), design_name
            trees.append(tree_bytes(work))
        assert trees[0] and trees[0] == trees[1]

        space = enumerate_design_space(parse_opt_template(SIMPLE_TEMPLATE))
        clamped = sample_assignments(space, 100, seed=9)
        assert len(clamped) == space.size == len(set(clamped))

        space32 = enumerate_design_space(parse_opt_template(REFERENCE_TEMPLATE))
        counts: dict = {}
        for seed in range(100_000):
            (assignment,) = sample_assignments(space32, 1, seed=seed)
            counts[assignment.selections] = counts.get(assignment.selections, 0) + 1
        assert len(counts) == 32
        assert all(2700 <= count <= 3550 for count in counts.values()), sorted(counts.values())

        info["elapsed"] = time.perf_counter() - start
        info["budget"] = 5.0
        assert info["elapsed"] < info["budget"]


def test_criterion_04_fine_grained_never_loses(capsys):
    with criterion(capsys, 4, "fine-grained scheduling never trails the naive barrier on "
                              "100 random instances and wins the crafted one by exactly "
                              "20 percent") as info:
        start = time.perf_counter()
        rng = random.Random(0xBEEF)
        for _ in range(100):
            durations = [[rng.uniform(0.1, 8.0) for _ in range(rng.randint(1, 6))]
                         for _ in range(rng.randint(1, 4))]
            workers = rng.randint(1, 4)
            fine = simulate_schedule(durations, workers, "fine_grained")
            naive = simulate_schedule(durations, workers, "naive")
            assert fine <= naive + 1e-9
        crafted = [[8.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]
        fine = simulate_schedule(crafted, 2, "fine_grained")
        naive = simulate_schedule(crafted, 2, "naive")
        assert (fine, naive) == (8.0, 10.0)
        assert (naive - fine) / naive == 0.2
        info["elapsed"] = time.perf_counter() - start
        info["budget"] = 1.0
        assert info["elapsed"] < info["budget"]


def test_criterion_05_wall_clock_parallelism_and_timeouts(capsys, tmp_path):
    with criterion(capsys, 5, "8 one-second jobs on 4 workers finish under 3.5s with a "
                              "non-overlapping timeline; a 10s stub under a 1s timeout "
                              "reports timeout with runtime in [1.0, 1.5]s") as info:
        start = time.perf_counter()
        source = tmp_path / "src"
        for i in range(8):
            make_design(source, f"job{i}")
        work = tmp_path / "work"
        execute_frontend({"batch": load_dataset(source, "batch")},
                         FrontendConfig(n_samples=1, seed=5),
                         WorkspaceLayout(work).ensure())
        collection = load_post_frontend(work)
        assert sum(len(ds.designs) for ds in collection.values()) == 8

        stub = custom_flow("sleep_stub", ("sh", "-c", "sleep 1"))
        wall_start = time.perf_counter()
        chains, timeline = execute(collection, [stub], 4)
        wall = time.perf_counter() - wall_start
        outcomes = [outcome for (outcome,) in chains]
        assert wall < 3.5
        assert len(outcomes) == 8
        assert all(o.status == STATUS_OK for o in outcomes)
        assert len(timeline.records) == 8
        assert timeline.makespan() < 3.5
        by_worker: dict = {}
        for record in timeline.records:
            assert record.end_s >= record.start_s
            by_worker.setdefault(record.worker_index, []).append(record)
        for records in by_worker.values():
            records.sort(key=lambda r: r.start_s)
            for previous, following in zip(records, records[1:]):
                assert following.start_s >= previous.end_s - 1e-6

        sleeper = custom_flow("sleeper", ("sh", "-c", "sleep 10"), timeout_s=1.0)
        design = next(iter(collection.values())).designs[0]
        outcome = run_flow(sleeper, design)
        assert outcome.status == STATUS_TIMEOUT
        assert 1.0 <= outcome.runtime_s <= 1.5

        info["elapsed"] = time.perf_counter() - start
        info["budget"] = 15.0
        assert info["elapsed"] < info["budget"]


def test_criterion_06_exact_wilcoxon_against_enumeration(capsys):
    with criterion(capsys, 6, "exact Wilcoxon p equals the 2^n sign enumeration on 50 "
                              "random paired samples plus the frozen edge cases") as info:
        start = time.perf_counter()
        rng = random.Random(0xCAFE)
        for _ in range(50):
            n = rng.randint(1, 12)
            a = [float(rng.randrange(0, 10)) for _ in range(n)]
            b = [float(rng.randrange(0, 10)) for _ in range(n)]
            result = wilcoxon_signed_rank(a, b)
            assert result.method == "exact"
            assert abs(result.p_two_tailed - brute_force_wilcoxon_p(a, b)) <= 1e-12

        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        shifted = wilcoxon_signed_rank(a, [x + 1.0 for x in a])
        assert shifted.p_two_tailed == 0.03125

        identical = wilcoxon_signed_rank(a, list(a))
        assert identical.p_two_tailed == 1.0 and identical.n_effective == 0

        info["elapsed"] = time.perf_counter() - start
        info["budget"] = 10.0
        assert info["elapsed"] < info["budget"]


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "demo"
    start = time.perf_counter()
    code = main(["demo", "--out", str(out), "--n-samples", "4", "--seed", "42",
                 "--n-workers", "4"])
    elapsed = time.perf_counter() - start
    assert code == 0
    table = load_table(out / "aggregated.csv")
    return SimpleNamespace(out=out, elapsed=elapsed, table=table,
                           rows={row.design_id: row for row in table.rows})


# sha256 of the demo's exports (4 samples, seed 42); the dataset bytes must not
# change with how the exports are written
PINNED_DEMO_EXPORTS = {
    "aggregated.csv": "68373eab426f69060b41f3a97e61dd673933ce84bcd15d626299e3ef9381b62f",
    "aggregated.jsonl": "479511e27d480309a76bbb9ec4a3565fcaa7610c65fdbae3533b31f553c1dbfb",
}


@pytest.mark.parametrize("name", sorted(PINNED_DEMO_EXPORTS))
def test_demo_export_bytes_are_pinned(demo, name):
    digest = hashlib.sha256((demo.out / name).read_bytes()).hexdigest()
    assert digest == PINNED_DEMO_EXPORTS[name]


def test_criterion_07_demo_counts_and_spot_checked_metrics(capsys, demo):
    with criterion(capsys, 7, "demo lowers sum(min(4, space)) sampled plus all-defaults "
                              "baseline designs, exports one row each, and three "
                              "spot-checked designs match hand-computed metrics") as info:
        templates = sorted(bundled_designs_dir().glob("*/opt_template.tcl"))
        assert len(templates) >= 10
        expected_sampled = sum(
            min(4, enumerate_design_space(parse_opt_template(path.read_text())).size)
            for path in templates)
        assert expected_sampled == 44

        sampled_dirs = [p for p in (demo.out / "demo__post_frontend").iterdir() if p.is_dir()]
        base_dirs = [p for p in (demo.out / "demo_base__post_frontend").iterdir() if p.is_dir()]
        assert len(sampled_dirs) == expected_sampled
        assert len(base_dirs) == len(templates)
        assert len(demo.table.rows) == len(sampled_dirs) + len(base_dirs) == 56

        # all-defaults dot product: d1 stays unpipelined at factor 1
        # manifest: base 160/120, d1 trip 256 body 3 mult 1, no arrays
        row = demo.rows["dotprod__01ba4719"]
        assert row.n_directives == 0
        assert row.hls_latency_avg_cycles == 256 * 3
        assert row.hls_latency_best_cycles == 768 and row.hls_latency_worst_cycles == 1536
        assert row.hls_clock_estimate_ns == 3.0
        assert row.hls_lut == 160 + 25 * 3 and row.hls_ff == 120 + 15 * 3
        assert row.hls_dsp == 1 and row.hls_bram == 0 and row.hls_uram == 0
        assert row.hls_ii is None
        assert row.impl_wns_ns == 10.0 - 3.0 - 0.1 * math.log2(1 + 235 / 1000)
        assert (row.impl_lut, row.impl_ff, row.impl_dsp) == (212, 148, 1)
        assert row.impl_total_power_w == 0.5 + 235 * 1e-5 + 1 * 1e-3
        assert row.exec_runtime_s == round((235 + 165) / 50000.0, 6)

        # k2mm point: lp2 pipelined at 8, lp3 pipelined at 2, lp1 untouched
        # manifest: base 320/240; lp1 64x6 (2 mult), lp2 64x8 (4), lp3 32x5 (2)
        row = demo.rows["k2mm__2b724857"]
        assert row.assignment_summary == ("loop_opt/lp2#0:pipeline;loop_opt/lp2#0:unroll=8;"
                                          "loop_opt/lp3#1:pipeline;loop_opt/lp3#1:unroll=2")
        assert row.hls_latency_avg_cycles == 64 * 6 + (64 // 8 - 1 + 8) + (32 // 2 - 1 + 5)
        assert row.hls_latency_worst_cycles == 2 * 419
        clock = 3.0 + 0.2 * math.log2(8)
        assert row.hls_clock_estimate_ns == clock
        assert row.hls_lut == 320 + 25 * (6 * 1 + 8 * 8 + 5 * 2)
        assert row.hls_ff == 240 + 15 * (6 * 1 + 8 * 8 + 5 * 2)
        assert row.hls_dsp == 2 * 1 + 4 * 8 + 2 * 2 and row.hls_bram == 0
        assert row.impl_wns_ns == 10.0 - clock - 0.1 * math.log2(1 + 2320 / 1000)
        assert (row.impl_lut, row.impl_ff, row.impl_dsp) == (2088, 1296, 34)
        assert row.impl_total_power_w == 0.5 + 2320 * 1e-5 + 38 * 1e-3
        assert row.exec_runtime_s == round((2320 + 1440) / 50000.0, 6)

        # syrk point: s1 pipelined at 2, cbuf split into 8 banks, s2 untouched
        # manifest: base 310/220; s1 24x5 (2 mult), s2 24x7 (3); cbuf 576x4B
        row = demo.rows["syrk__22bdfa2b"]
        assert row.assignment_summary == ("loop_opt/s1#0:pipeline;loop_opt/s1#0:unroll=2;"
                                          "mem_opt/cbuf#0:array_partition=cyclic-8")
        assert row.hls_latency_avg_cycles == (24 // 2 - 1 + 5) + 24 * 7
        clock = 3.0 + 0.2 * math.log2(2)
        assert row.hls_clock_estimate_ns == clock
        assert row.hls_lut == 310 + 25 * (5 * 2 + 7 * 1)
        assert row.hls_ff == 220 + 15 * (5 * 2 + 7 * 1)
        assert row.hls_dsp == 2 * 2 + 3 * 1
        assert row.hls_bram == math.ceil(576 * 4 / 2048) * 8
        assert row.impl_wns_ns == 10.0 - clock - 0.1 * math.log2(1 + 735 / 1000)
        assert (row.impl_lut, row.impl_ff, row.impl_dsp, row.impl_bram) == (662, 428, 6, 14)
        assert row.impl_total_power_w == 0.5 + 735 * 1e-5 + 7 * 1e-3
        assert row.exec_runtime_s == round((735 + 475) / 50000.0, 6)

        info["elapsed"] = demo.elapsed
        info["budget"] = 60.0
        assert demo.elapsed < info["budget"]


PERTURBED_METRICS = ("hls_lut", "hls_ff", "hls_clock_estimate_ns", "impl_wns_ns",
                     "impl_lut", "impl_total_power_w", "exec_runtime_s")
UNCHANGED_METRICS = ("hls_latency_avg_cycles", "hls_dsp", "hls_bram")


def run_mock_pipeline(root, constants, capsys):
    """expand + build + aggregate over the bundled designs; returns the CSV path."""
    work = root / "work"
    flows = [{"type": "mock_synth", "constants": constants},
             {"type": "mock_impl", "constants": constants}]
    config_path = root / "run.json"
    config_path.parent.mkdir(parents=True, exist_ok=True)
    config_path.write_text(json.dumps({
        "work_dir": str(work), "seed": 42,
        "datasets": {"demo": str(bundled_designs_dir())},
        "frontend": {"vendor": "xilinx", "n_samples": 4},
        "flows": flows,
        "executor": {"strategy": "fine_grained", "n_workers": 4},
    }))
    for command in ("expand", "build", "aggregate"):
        assert main([command, "--config", str(config_path)]) == 0, command
        capsys.readouterr()
    return work / "aggregated.csv"


def test_criterion_08_ab_regression_flags_exactly_the_perturbation(capsys, tmp_path):
    with criterion(capsys, 8, "A/B mock regression pairs 100%, stars every perturbed "
                              "metric at p < 0.05, and an identical rerun reports "
                              "p = 1.0 throughout") as info:
        start = time.perf_counter()
        perturbation = {"lut_per_op": 31, "ff_per_op": 19, "clock_unroll_ns": 0.3,
                        "power_base_w": 0.7, "version": "mock-2024.1"}
        csv_a = run_mock_pipeline(tmp_path / "a", {}, capsys)
        csv_b = run_mock_pipeline(tmp_path / "b", perturbation, capsys)
        csv_a2 = run_mock_pipeline(tmp_path / "a2", {}, capsys)

        report_path = tmp_path / "ab.json"
        assert main(["regress", str(csv_a), str(csv_b), "--json", str(report_path)]) == 0
        stdout = capsys.readouterr().out
        table_lines = {line.split()[0]: line for line in stdout.splitlines()
                       if line.startswith(("hls_", "impl_", "exec_"))}
        report = json.loads(report_path.read_text())
        assert report["n_common"] == 44
        assert report["n_only_a"] == 0 and report["n_only_b"] == 0
        for metric in PERTURBED_METRICS:
            entry = report["metrics"][metric]
            assert entry["p_two_tailed"] < 0.05, metric
            assert entry["significant"], metric
            assert table_lines[metric].endswith(" *"), metric
        for metric in UNCHANGED_METRICS:
            entry = report["metrics"][metric]
            assert entry["p_two_tailed"] == 1.0, metric
            assert not entry["significant"], metric
            assert not table_lines[metric].endswith(" *"), metric

        rerun_path = tmp_path / "aa.json"
        assert main(["regress", str(csv_a), str(csv_a2), "--json", str(rerun_path)]) == 0
        stdout = capsys.readouterr().out
        assert " *" not in stdout
        rerun = json.loads(rerun_path.read_text())
        assert rerun["n_common"] == 44
        for metric in PERTURBED_METRICS + UNCHANGED_METRICS:
            entry = rerun["metrics"][metric]
            assert entry["p_two_tailed"] == 1.0, metric
            assert not entry["significant"], metric

        info["elapsed"] = time.perf_counter() - start
        info["budget"] = 90.0
        assert info["elapsed"] < info["budget"]


def split_demo_rows(demo):
    sampled = [r for r in demo.table.rows if r.dataset == "demo__post_frontend"]
    base = [r for r in demo.table.rows if r.dataset == "demo_base__post_frontend"]
    return sampled, base


@pytest.mark.xfail(strict=True,
                   reason="all-defaults baselines are cost minima of the mock model, so the "
                          "sampled LUT minimum ties the baseline minimum and large spaces "
                          "leave the baseline latency maximum unmatched at this sample size")
def test_criterion_09_range_containment_literal(capsys, demo):
    with criterion(capsys, 9, "sampled [min, max] strictly contains the baseline range "
                              "for LUT and latency (literal reading)"):
        sampled, base = split_demo_rows(demo)
        for metric in ("hls_lut", "hls_latency_avg_cycles"):
            s_values = [getattr(r, metric) for r in sampled]
            b_values = [getattr(r, metric) for r in base]
            assert min(s_values) < min(b_values), metric
            assert max(b_values) < max(s_values), metric


def test_criterion_09_range_extension_adjusted(capsys, demo):
    with criterion(capsys, 9, "sampled designs dominate their baselines pointwise (LUT up, "
                              "latency down) and extend the group range strictly at the far "
                              "ends (adjusted reading)") as info:
        start = time.perf_counter()
        sampled, base_rows = split_demo_rows(demo)
        base = {r.base_name: r for r in base_rows}
        assert len(base) == 12
        for row in sampled:
            baseline = base[row.base_name]
            assert row.hls_lut >= baseline.hls_lut, row.design_id
            assert row.hls_latency_avg_cycles <= baseline.hls_latency_avg_cycles, row.design_id
        assert max(r.hls_lut for r in sampled) > max(r.hls_lut for r in base_rows)
        assert min(r.hls_latency_avg_cycles for r in sampled) \
            < min(r.hls_latency_avg_cycles for r in base_rows)
        info["elapsed"] = time.perf_counter() - start
        info["budget"] = 5.0
        assert info["elapsed"] < info["budget"]


def random_bundle(rng: random.Random) -> MetricsBundle:
    def maybe_int(p_null=0.2, bound=10 ** 7):
        return None if rng.random() < p_null else rng.randrange(bound)

    hls = None if rng.random() < 0.2 else HlsSynthMetrics(
        latency_best_cycles=maybe_int(), latency_avg_cycles=maybe_int(),
        latency_worst_cycles=maybe_int(), ii=maybe_int(0.5, 1000),
        clock_estimate_ns=rng.random() * 12, lut=rng.randrange(10 ** 6),
        ff=rng.randrange(10 ** 6), dsp=rng.randrange(4000), bram=rng.randrange(3000),
        uram=rng.randrange(100))
    impl = None if rng.random() < 0.3 else ImplMetrics(
        wns_ns=rng.uniform(-5.0, 5.0), whs_ns=rng.random(), lut=rng.randrange(10 ** 6),
        ff=rng.randrange(10 ** 6), dsp=rng.randrange(4000), bram=rng.randrange(3000),
        total_power_w=rng.random() * 3)
    execution = None if rng.random() < 0.3 else ExecutionMeta(
        tool_name=rng.choice(("mock_hls_synth", "vitis_hls_synth", "custom_0")),
        tool_version=f"v{rng.randrange(100)}", runtime_s=rng.random() * 1000,
        status=rng.choice(("ok", "failed", "timeout", "skipped_missing_files")))
    return MetricsBundle(hls=hls, impl=impl, execution=execution)


def test_criterion_10_round_trips_and_byte_stability(capsys, demo, tmp_path):
    with criterion(capsys, 10, "standard JSON round-trips 1000 randomized bundles and "
                               "archives plus table exports are byte-identical across "
                               "repeated runs on the same tree") as info:
        start = time.perf_counter()
        rng = random.Random(0xD157)
        for i in range(1000):
            bundle = random_bundle(rng)
            target = tmp_path / "bundles" / f"b{i:04d}"
            target.mkdir(parents=True)
            write_standard_json(target, bundle)
            assert read_standard_json(target) == bundle

        first = archive_dataset(demo.out, tmp_path / "first.zip").read_bytes()
        second = archive_dataset(demo.out, tmp_path / "second.zip").read_bytes()
        assert first == second

        table = aggregate_collection(demo.out)
        csv_one = export_tabular(table, tmp_path / "one.csv").read_bytes()
        csv_two = export_tabular(aggregate_collection(demo.out),
                                 tmp_path / "two.csv").read_bytes()
        assert csv_one == csv_two == (demo.out / "aggregated.csv").read_bytes()
        jsonl_one = export_tabular(table, tmp_path / "one.jsonl", format="jsonl").read_bytes()
        jsonl_two = export_tabular(table, tmp_path / "two.jsonl", format="jsonl").read_bytes()
        assert jsonl_one == jsonl_two == (demo.out / "aggregated.jsonl").read_bytes()

        info["elapsed"] = time.perf_counter() - start
        info["budget"] = 60.0
        assert info["elapsed"] < info["budget"]
