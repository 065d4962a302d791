"""Output checks made apart from the program: nothing here imports hlsforge.

The mock cost model is re-implemented from the formulas documented at the top
of ``toolflows.py`` and applied to each design's manifest and
``data_design.json``; the exported tables, the archive, the lowered sources and
the in-memory outputs a rep dumps (timelines, regression report) are checked
against it and against counts the benchmark computes from its own inputs.
Every check returns a list of failure messages; an empty list means correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import zipfile
from pathlib import Path

# Default mock constants (tool version A) and the documented version-B shift.
CONSTANTS_A = {"version": "mock-2023.1", "lut_per_op": 25, "ff_per_op": 15, "bank_bytes": 2048,
               "clock_base_ns": 3.0, "clock_unroll_ns": 0.2, "impl_scale": 0.9,
               "wns_lut_coeff": 0.1, "whs_ns": 0.1, "power_base_w": 0.5, "power_lut_w": 1e-5,
               "power_dsp_w": 1e-3}
CONSTANTS_B = {**CONSTANTS_A, "version": "mock-2024.1", "lut_per_op": 25 + 6, "ff_per_op": 15 + 4,
               "clock_unroll_ns": 0.2 + 0.1, "power_base_w": 0.5 + 0.2}
ALPHA = 0.05
UNCHANGED_METRICS = ("hls_latency_avg_cycles", "hls_dsp", "hls_bram")
RISING_METRICS = ("hls_lut", "hls_ff", "impl_total_power_w")
MODEL_COLUMNS = ("hls_latency_best_cycles", "hls_latency_avg_cycles", "hls_latency_worst_cycles",
                 "hls_ii", "hls_clock_estimate_ns", "hls_lut", "hls_ff", "hls_dsp", "hls_bram",
                 "hls_uram", "impl_wns_ns", "impl_whs_ns", "impl_lut", "impl_ff", "impl_dsp",
                 "impl_bram", "impl_total_power_w")
ID_RE = re.compile(r"^(?P<base>[A-Za-z0-9_]+?)__[0-9a-f]{8}$")
MAX_REPORTED = 5


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def mock_model(manifest: dict, entries: list[dict], vendor: str, c: dict) -> dict:
    """Expected hls_* and impl_* cells of one design."""
    unroll = {e["label"]: int(e["choice"]) for e in entries if e["directive"] == "unroll"}
    banks = {e["label"]: int(e["choice"].split("-")[-1])
             for e in entries if e["directive"] == "array_partition"}
    if vendor == "intel":
        pipelined = {loop["label"] for loop in manifest["loops"]}
    else:
        pipelined = {e["label"] for e in entries if e["directive"] == "pipeline"}
    latency, lut, ff, dsp, max_unroll = 0, manifest["base_lut"], manifest["base_ff"], 0, 1
    for loop in manifest["loops"]:
        u = unroll.get(loop["label"], 1)
        max_unroll = max(max_unroll, u)
        iterations = _ceil_div(loop["trip_count"], u)
        body = loop["body_ops"]
        latency += iterations - 1 + body if loop["label"] in pipelined else iterations * body
        lut += c["lut_per_op"] * body * u
        ff += c["ff_per_op"] * body * u
        dsp += loop.get("mult_ops", 0) * u
    bram = sum(_ceil_div(a["depth"] * a["elem_bytes"], c["bank_bytes"]) * banks.get(a["label"], 1)
               for a in manifest.get("arrays", []))
    clock = c["clock_base_ns"] + c["clock_unroll_ns"] * math.log2(max_unroll)
    wns = manifest.get("clock_target_ns", 10.0) - clock - c["wns_lut_coeff"] * math.log2(1 + lut / 1000)
    scale = c["impl_scale"]
    return {"hls_latency_best_cycles": latency, "hls_latency_avg_cycles": latency,
            "hls_latency_worst_cycles": 2 * latency, "hls_ii": None,
            "hls_clock_estimate_ns": clock, "hls_lut": lut, "hls_ff": ff, "hls_dsp": dsp,
            "hls_bram": bram, "hls_uram": 0, "impl_wns_ns": wns, "impl_whs_ns": c["whs_ns"],
            "impl_lut": round(scale * lut), "impl_ff": round(scale * ff),
            "impl_dsp": round(scale * dsp), "impl_bram": round(scale * bram),
            "impl_total_power_w": c["power_base_w"] + lut * c["power_lut_w"] + dsp * c["power_dsp_w"]}


def _same(cell: str, expected) -> bool:
    if expected is None:
        return cell == ""
    if cell == "":
        return False
    if isinstance(expected, float):
        return math.isclose(float(cell), expected, rel_tol=1e-12, abs_tol=1e-12)
    return int(cell) == expected


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


class Checker:
    """Collects failures for one rep of one workload."""

    def __init__(self, spec: dict, rep_dir: Path, n_workers: int):
        self.spec, self.rep_dir, self.n_workers = spec, rep_dir, n_workers
        self.work = rep_dir / "work"
        self.outputs = json.loads((rep_dir / "outputs.json").read_text())
        self.bases = {name: entry for bases in spec["datasets"].values()
                      for name, entry in bases.items()}
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.errors.append(f"{self.rep_dir.name}: {message}")

    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self.fail(message)
        return condition

    def design_dir(self, row: dict) -> Path:
        return self.work / row["dataset"] / row["design_id"]

    # -- table-level checks ------------------------------------------------------

    def table(self, stem: str, samples: int) -> list[dict]:
        """Row count, unique well-formed ids, and CSV and JSONL holding the same rows."""
        rows = read_csv(self.work / f"{stem}.csv")
        expected = sum(min(samples, entry["space_size"]) for entry in self.bases.values())
        self.expect(len(rows) == expected, f"{stem}: {len(rows)} rows, expected {expected}")
        ids = [row["design_id"] for row in rows]
        self.expect(len(set(ids)) == len(ids), f"{stem}: duplicate design ids")
        for row in rows:
            match = ID_RE.match(row["design_id"])
            if not self.expect(bool(match) and match.group("base") == row["base_name"]
                               and row["base_name"] in self.bases,
                               f"{stem}: malformed id {row['design_id']!r}"):
                break
        with open(self.work / f"{stem}.jsonl") as handle:
            records = [json.loads(line) for line in handle]
        self.expect(len(records) == len(rows), f"{stem}: csv has {len(rows)} rows, jsonl {len(records)}")
        for row, record in zip(rows, records):
            record.pop("schema_version", None)
            if not self.expect(list(record) == list(row)
                               and all(_cell(record[k]) == row[k] for k in row),
                               f"{stem}: csv and jsonl differ at {row['design_id']}"):
                break
        return rows

    def xilinx_ids(self, rows: list[dict]) -> None:
        bad = [row["design_id"] for row in rows
               if row["design_id"] != row["base_name"] + "__" + hashlib.sha256(
                   (self.design_dir(row) / "opt.tcl").read_bytes()).hexdigest()[:8]]
        self.expect(not bad, f"{len(bad)} ids differ from <base>__sha256(opt.tcl)[:8], e.g. {bad[:MAX_REPORTED]}")

    def model_cells(self, rows: list[dict], constants: dict, tool_name: str) -> None:
        mismatches = []
        for row in rows:
            meta = json.loads((self.design_dir(row) / "data_design.json").read_text())
            manifest = self.bases[row["base_name"]]["manifest"]
            expected = mock_model(manifest, meta["assignment"], meta["vendor"], constants)
            wrong = [col for col in MODEL_COLUMNS if not _same(row[col], expected[col])]
            if (row["exec_status"], row["exec_tool_version"], row["exec_tool_name"]) \
                    != ("ok", constants["version"], tool_name):
                wrong.append("exec_*")
            if wrong:
                mismatches.append(f"{row['design_id']}:{','.join(wrong)}")
        self.expect(not mismatches, f"{len(mismatches)} rows differ from the independent cost model "
                                    f"({constants['version']}), e.g. {mismatches[:MAX_REPORTED]}")

    def archive(self, rows: list[dict]) -> None:
        with zipfile.ZipFile(self.rep_dir / "dataset.zip") as zf:
            names = [n for n in zf.namelist() if n.endswith("/data_design.json")]
        expected = sorted(f"{row['dataset']}/{row['design_id']}/data_design.json" for row in rows)
        self.expect(sorted(names) == expected,
                    f"archive holds {len(names)} data_design.json, expected one per design ({len(expected)})")

    def intel_pragmas(self, rows: list[dict]) -> None:
        missing = []
        for row in rows:
            root = self.design_dir(row)
            meta = json.loads((root / "data_design.json").read_text())
            lines = (root / f"{row['base_name']}.c").read_text().splitlines()
            under: dict[str, set] = {}
            for i, line in enumerate(lines):
                anchor = re.search(r"//\s*HLSFORGE_LABEL:\s*(\w+)", line)
                if anchor:
                    block = set()
                    for following in lines[i + 1:]:
                        if not following.strip().startswith(("#pragma", "hls_")):
                            break
                        block.add(following.strip())
                    under[anchor.group(1)] = block
            for entry in meta["assignment"]:
                if entry["directive"] == "unroll" and \
                        f"#pragma unroll {entry['choice']}" not in under.get(entry["label"], ()):
                    missing.append(f"{row['design_id']}:{entry['label']}")
        self.expect(not missing, f"{len(missing)} unroll pragmas missing under their anchors, "
                                 f"e.g. {missing[:MAX_REPORTED]}")

    # -- workloads ---------------------------------------------------------------

    def xilinx_sample(self, samples: int) -> None:
        rows = self.table("aggregated", samples)
        self.xilinx_ids(rows)
        self.model_cells(rows, CONSTANTS_A, "mock_hls_synth")
        self.archive(rows)

    def intel_ab(self, samples: int) -> None:
        rows_a = self.table("aggregated_A", samples)
        rows_b = self.table("aggregated_B", samples)
        self.model_cells(rows_a, CONSTANTS_A, "mock_hls_synth")
        self.model_cells(rows_b, CONSTANTS_B, "mock_hls_synth")
        self.intel_pragmas(rows_b)
        self.archive(rows_b)
        self.regression(rows_a, rows_b)

    def regression(self, rows_a: list[dict], rows_b: list[dict]) -> None:
        report = self.outputs["regression"]
        by_a = {row["design_id"]: row for row in rows_a}
        pairs = [(by_a[row["design_id"]], row) for row in rows_b if row["design_id"] in by_a]
        self.expect(report["n_common"] == len(pairs) == len(rows_b),
                    f"regression pairs {report['n_common']}, tables share {len(pairs)}")
        for metric, result in report["metrics"].items():
            diffs = [float(a[metric]) - float(b[metric]) for a, b in pairs
                     if a[metric] != "" and b[metric] != ""]
            nonzero = sum(d != 0 for d in diffs)
            self.expect(result["n_effective"] == nonzero,
                        f"{metric}: n_effective {result['n_effective']}, nonzero differences {nonzero}")
        for metric in UNCHANGED_METRICS:
            self.expect(report["metrics"][metric]["p_two_tailed"] == 1.0,
                        f"{metric}: p {report['metrics'][metric]['p_two_tailed']}, expected 1")
        for metric in RISING_METRICS:
            result = report["metrics"][metric]
            rising = all(float(b[metric]) > float(a[metric]) for a, b in pairs)
            self.expect(rising and result["w_statistic"] == 0 and result["p_two_tailed"] < ALPHA,
                        f"{metric}: rises in every pair={rising}, W={result['w_statistic']}, "
                        f"p={result['p_two_tailed']}")
        coverage = self.outputs["coverage"]
        self.expect(sum(g["n_designs"] for g in coverage["groups"].values()) == len(rows_b),
                    "coverage groups do not cover every row")

    def external_skew(self, samples: int) -> None:
        sleeps = {(base, flow): entry[f"sleep_{flow}"]
                  for base, entry in self.bases.items() for flow in ("synth", "impl")}
        round1 = self.table("aggregated_round1", samples)
        rows = self.table("aggregated", 2 * samples)
        self.expect({r["design_id"] for r in round1} <= {r["design_id"] for r in rows},
                    "round-2 table lacks round-1 ids")
        self.xilinx_ids(rows)
        self.archive(rows)
        for row in rows:
            if not self.expect(row["exec_status"] == "ok"
                               and float(row["exec_runtime_s"]) >= sleeps[(row["base_name"], "synth")]
                               and all(row[col] == "" for col in MODEL_COLUMNS),
                               f"{row['design_id']}: status {row['exec_status']}, runtime "
                               f"{row['exec_runtime_s']} or report cells not as scripted"):
                break
        for number, (timeline, table) in enumerate(zip(self.outputs["timelines"], (round1, rows)), 1):
            records = timeline["records"]
            self.expect(len(records) == 2 * len(table) and all(r[6] == "ok" for r in records),
                        f"round {number}: {len(records)} jobs for {len(table)} designs, "
                        f"{sum(r[6] != 'ok' for r in records)} not ok")
            short = [r[0] for r in records if r[5] - r[4] < sleeps[(r[0].split("__")[0], r[2])]]
            self.expect(not short, f"round {number}: {len(short)} jobs shorter than their sleep")
            chains: dict = {}
            for r in records:
                chains[r[0]] = chains.get(r[0], 0.0) + sleeps[(r[0].split("__")[0], r[2])]
            bound = max(sum(chains.values()) / self.n_workers, max(chains.values()))
            self.expect(timeline["makespan_s"] >= bound,
                        f"round {number}: makespan {timeline['makespan_s']:.3f}s below bound {bound:.3f}s")


def check_rep(workload: str, spec: dict, rep_dir: Path, samples: int, n_workers: int) -> list[str]:
    checker = Checker(spec, rep_dir, n_workers)
    try:
        getattr(checker, workload)(samples)
    except (OSError, KeyError, ValueError, json.JSONDecodeError, zipfile.BadZipFile) as exc:
        checker.fail(f"{type(exc).__name__}: {exc}")
    return checker.errors
