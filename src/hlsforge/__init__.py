"""hlsforge: design-space expansion, tool-flow orchestration and dataset
aggregation for HLS benchmark collections.

The public names below are exported lazily (PEP 562): ``import hlsforge``
loads no submodule, and the first use of a name imports only its module.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("aggregate", "AggregatedRow AggregatedTable ExecutionMeta HlsSynthMetrics ImplMetrics "
                  "MetricsBundle aggregate_collection archive_dataset export_tabular "
                  "import_external_dataset load_table parse_vitis_csynth_report "
                  "write_standard_json"),
    ("analysis", "CoverageSummary RegressionReport WilcoxonResult compare_tool_versions "
                 "compute_r2 compute_rae coverage_summary histogram wilcoxon_signed_rank"),
    ("core", "AbstractDesign ConcreteDesign DatasetCollection DesignDataset FrontendConfig "
             "WorkspaceLayout concrete_design_id load_dataset load_post_frontend "
             "validate_design_files"),
    ("errors", "HlsForgeError"),
    ("executor", "ExecutionRecord Job Timeline execute simulate_schedule"),
    ("frontends", "execute_frontend lower_intel lower_xilinx map_directive_to_intel "
                  "sample_assignments"),
    ("optdsl", "DesignSpace DirectiveAssignment OptTemplate enumerate_design_space "
               "iter_assignments parse_opt_template render_assignment"),
    ("toolflows", "FlowOutcome MockCostConstants MockManifest ToolFlowSpec mock_hls_synth "
                  "mock_impl mock_impl_flow mock_synth_flow run_flow"),
) for name in names.split()}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
