"""Statistics over aggregated result tables.

The regression check pairs two runs by design id and applies the two-tailed
Wilcoxon signed-rank test per metric: zero differences are discarded, tied
absolute differences share average ranks, and the statistic is
min(W+, W-). Up to n=25 effective pairs the p-value is exact (a subset-sum
count over the 2^n sign assignments, computed by DP); beyond that a normal
approximation with tie-corrected variance and continuity correction is used.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import asdict, dataclass, field

from .errors import DegenerateTruth, EmptyInput, EmptyValues, LengthMismatch, NoPairs

EXACT_LIMIT = 25

DEFAULT_REGRESSION_METRICS = (
    "hls_latency_avg_cycles", "hls_clock_estimate_ns", "hls_lut", "hls_ff", "hls_dsp",
    "hls_bram", "impl_wns_ns", "impl_lut", "impl_total_power_w", "exec_runtime_s")

DEFAULT_COVERAGE_METRICS = (
    "hls_latency_avg_cycles", "hls_lut", "hls_ff", "hls_dsp", "hls_bram",
    "impl_wns_ns", "impl_total_power_w")


@dataclass(frozen=True)
class WilcoxonResult:
    w_statistic: float
    p_two_tailed: float
    n_effective: int
    method: str  # "exact" or "normal"


def _average_ranks(absolute: list[float]) -> list[float]:
    order = sorted(range(len(absolute)), key=absolute.__getitem__)
    ranks = [0.0] * len(absolute)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and absolute[order[j + 1]] == absolute[order[i]]:
            j += 1
        rank = (i + j + 2) / 2  # 1-based average of positions i..j
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _exact_p(ranks: list[float], w: float) -> float:
    # work in doubled units so half-integer average ranks stay integers
    units = [int(round(2 * r)) for r in ranks]
    total = sum(units)
    w2 = int(round(2 * w))
    if 2 * w2 >= total:
        return 1.0
    counts = [0] * (total + 1)
    counts[0] = 1
    for unit in units:
        for s in range(total, unit - 1, -1):
            counts[s] += counts[s - unit]
    favorable = sum(counts[: w2 + 1]) + sum(counts[total - w2:])
    return favorable / (1 << len(ranks))


def _normal_p(ranks: list[float], w: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4
    tie_sum = sum(count ** 3 - count for count in Counter(ranks).values())
    variance = n * (n + 1) * (2 * n + 1) / 24 - tie_sum / 48
    if variance <= 0:
        return 1.0
    z = (w - mean + 0.5) / math.sqrt(variance)
    p = 2 * 0.5 * math.erfc(-z / math.sqrt(2))
    return min(1.0, p)


def wilcoxon_signed_rank(a: list[float], b: list[float]) -> WilcoxonResult:
    """Two-tailed Wilcoxon signed-rank test on paired samples."""
    if len(a) != len(b):
        raise LengthMismatch(f"paired samples differ in length: {len(a)} vs {len(b)}")
    if not a:
        raise EmptyInput("wilcoxon_signed_rank needs at least one pair")
    diffs = [x - y for x, y in zip(a, b)]
    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    if n == 0:
        return WilcoxonResult(0.0, 1.0, 0, "exact")
    ranks = _average_ranks([abs(d) for d in diffs])
    w_plus = sum(rank for rank, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(ranks) - w_plus
    w = min(w_plus, w_minus)
    if n <= EXACT_LIMIT:
        return WilcoxonResult(w, _exact_p(ranks, w), n, "exact")
    return WilcoxonResult(w, _normal_p(ranks, w), n, "normal")


def _truth_mean(pred: list[float], truth: list[float], name: str) -> float:
    """mean(truth), once pred and truth are known to be non-empty and paired."""
    if len(pred) != len(truth):
        raise LengthMismatch(f"pred/truth differ in length: {len(pred)} vs {len(truth)}")
    if not truth:
        raise EmptyInput(f"{name} needs at least one pair")
    return statistics.fmean(truth)


def compute_rae(pred: list[float], truth: list[float]) -> float:
    """Relative absolute error: sum|pred-truth| / sum|truth-mean(truth)|."""
    mean = _truth_mean(pred, truth, "compute_rae")
    denom = sum(abs(t - mean) for t in truth)
    if denom == 0:
        raise DegenerateTruth("all truth values are identical; RAE is undefined")
    return sum(abs(p - t) for p, t in zip(pred, truth)) / denom


def compute_r2(pred: list[float], truth: list[float]) -> float:
    """Coefficient of determination: 1 - SS_res / SS_tot."""
    mean = _truth_mean(pred, truth, "compute_r2")
    ss_tot = sum((t - mean) ** 2 for t in truth)
    if ss_tot == 0:
        raise DegenerateTruth("all truth values are identical; R^2 is undefined")
    ss_res = sum((p - t) ** 2 for p, t in zip(pred, truth))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class MetricComparison:
    metric: str
    n_pairs: int
    mean_a: float | None
    mean_b: float | None
    median_a: float | None
    median_b: float | None
    mean_delta: float | None  # b - a
    w_statistic: float | None
    p_two_tailed: float | None
    n_effective: int
    method: str
    significant: bool


@dataclass
class RegressionReport:
    alpha: float
    n_common: int
    n_only_a: int
    n_only_b: int
    comparisons: dict = field(default_factory=dict)  # metric -> MetricComparison

    def to_json_dict(self) -> dict:
        """The report's fields, with comparisons as "metrics" keyed by metric name."""
        out = asdict(self)
        out["metrics"] = {name: {key: value for key, value in c.items() if key != "metric"}
                          for name, c in out.pop("comparisons").items()}
        return out


def _finite(value) -> bool:
    """Whether a statistic takes a cell: only a number that is not null, NaN or infinite."""
    return value is not None and math.isfinite(value)


def _rows_of(table_or_rows) -> list:
    return table_or_rows.rows if hasattr(table_or_rows, "rows") else list(table_or_rows)


def compare_tool_versions(results_a, results_b, metrics=DEFAULT_REGRESSION_METRICS,
                          alpha: float = 0.05) -> RegressionReport:
    """Pair two tables by design id and test each metric for a shift; a pair with a
    cell that is not _finite on either side is left out."""
    rows_a = {r.design_id: r for r in _rows_of(results_a) if r.design_id is not None}
    rows_b = {r.design_id: r for r in _rows_of(results_b) if r.design_id is not None}
    common = sorted(set(rows_a) & set(rows_b))
    if not common:
        raise NoPairs("the two result tables share no design ids")
    report = RegressionReport(alpha=alpha, n_common=len(common),
                              n_only_a=len(set(rows_a) - set(rows_b)),
                              n_only_b=len(set(rows_b) - set(rows_a)))
    for metric in metrics:
        a_vals, b_vals = [], []
        for design_id in common:
            va = getattr(rows_a[design_id], metric, None)
            vb = getattr(rows_b[design_id], metric, None)
            if _finite(va) and _finite(vb):
                a_vals.append(float(va))
                b_vals.append(float(vb))
        if not a_vals:
            report.comparisons[metric] = MetricComparison(
                metric, 0, None, None, None, None, None, None, None, 0, "exact", False)
            continue
        result = wilcoxon_signed_rank(a_vals, b_vals)
        report.comparisons[metric] = MetricComparison(
            metric=metric, n_pairs=len(a_vals),
            mean_a=statistics.fmean(a_vals), mean_b=statistics.fmean(b_vals),
            median_a=statistics.median(a_vals), median_b=statistics.median(b_vals),
            mean_delta=statistics.fmean(b_vals) - statistics.fmean(a_vals),
            w_statistic=result.w_statistic, p_two_tailed=result.p_two_tailed,
            n_effective=result.n_effective, method=result.method,
            significant=result.p_two_tailed < alpha)
    return report


def format_regression_table(report: RegressionReport) -> str:
    """Plain-text table; significant rows (p < alpha) are starred."""
    header = f"{'metric':<28} {'n':>4} {'mean_a':>14} {'mean_b':>14} {'delta':>12} {'p':>12}  "
    lines = [header.rstrip(), "-" * len(header)]
    for name, c in report.comparisons.items():
        if c.n_pairs == 0:
            lines.append(f"{name:<28} {0:>4} {'-':>14} {'-':>14} {'-':>12} {'-':>12}")
            continue
        star = " *" if c.significant else ""
        lines.append(
            f"{name:<28} {c.n_pairs:>4} {c.mean_a:>14.4f} {c.mean_b:>14.4f} "
            f"{c.mean_delta:>12.4f} {c.p_two_tailed:>12.6g}{star}")
    lines.append(f"(* = p < {report.alpha}, two-tailed Wilcoxon signed-rank; "
                 f"paired designs: {report.n_common})")
    return "\n".join(lines)


@dataclass(frozen=True)
class MetricSpread:
    count: int
    min: float
    q1: float
    median: float
    q3: float
    max: float


@dataclass
class CoverageSummary:
    group_by: str
    groups: dict = field(default_factory=dict)  # group -> {metric -> MetricSpread}
    sizes: dict = field(default_factory=dict)  # group -> row count

    def to_json_dict(self) -> dict:
        return {"group_by": self.group_by,
                "groups": {group: {"n_designs": self.sizes[group],
                                   "metrics": {metric: asdict(spread)
                                               for metric, spread in metrics.items()}}
                           for group, metrics in self.groups.items()}}


def _spread(values: list[float]) -> MetricSpread:
    if len(values) == 1:
        v = values[0]
        return MetricSpread(1, v, v, v, v, v)
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return MetricSpread(len(values), min(values), q1, med, q3, max(values))


def coverage_summary(table_or_rows, group_by: str = "base_name",
                     metrics=DEFAULT_COVERAGE_METRICS) -> CoverageSummary:
    """Five-number spread per (group, metric); rows whose metric is not _finite are skipped."""
    summary = CoverageSummary(group_by=group_by)
    grouped: dict[str, list] = {}
    for row in _rows_of(table_or_rows):
        key = getattr(row, group_by, None)
        if key is None:
            continue
        grouped.setdefault(str(key), []).append(row)
    for group in sorted(grouped):
        rows = grouped[group]
        summary.sizes[group] = len(rows)
        per_metric = {}
        for metric in metrics:
            values = [float(v) for row in rows if _finite(v := getattr(row, metric, None))]
            if values:
                per_metric[metric] = _spread(sorted(values))
        summary.groups[group] = per_metric
    return summary


def format_coverage_table(summary: CoverageSummary) -> str:
    header = (f"{'group':<20} {'metric':<26} {'n':>4} {'min':>12} {'q1':>12} "
              f"{'median':>12} {'q3':>12} {'max':>12}")
    lines = [header, "-" * len(header)]
    for group, metrics in summary.groups.items():
        for metric, s in metrics.items():
            lines.append(f"{group:<20} {metric:<26} {s.count:>4} {s.min:>12.4f} {s.q1:>12.4f} "
                         f"{s.median:>12.4f} {s.q3:>12.4f} {s.max:>12.4f}")
    return "\n".join(lines)


def histogram(values: list[float | None], n_bins: int) -> list[tuple[float, float, int]]:
    """Equal-width bins over the _finite values' [min, max]; the maximum lands in the last bin."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    values = [v for v in values if _finite(v)]
    if not values:
        raise EmptyValues("histogram needs at least one finite value")
    lo = min(values)
    hi = max(values)
    counts = [0] * n_bins
    if hi == lo:
        counts[0] = len(values)
        return [(lo, hi, counts[i]) for i in range(n_bins)]
    width = (hi - lo) / n_bins
    for v in values:
        index = min(int((v - lo) / (hi - lo) * n_bins), n_bins - 1)
        counts[index] += 1
    edges = [lo + i * width for i in range(n_bins)] + [hi]
    return [(edges[i], edges[i + 1], counts[i]) for i in range(n_bins)]
