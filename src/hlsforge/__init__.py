"""hlsforge: design-space expansion, tool-flow orchestration and dataset
aggregation for HLS benchmark collections."""

from .aggregate import (
    AggregatedRow,
    AggregatedTable,
    ExecutionMeta,
    HlsSynthMetrics,
    ImplMetrics,
    MetricsBundle,
    aggregate_collection,
    archive_dataset,
    export_tabular,
    import_external_dataset,
    load_table,
    parse_impl_report,
    parse_vitis_csynth_report,
    write_standard_json,
)
from .analysis import (
    CoverageSummary,
    RegressionReport,
    WilcoxonResult,
    compare_tool_versions,
    compute_r2,
    compute_rae,
    coverage_summary,
    histogram,
    wilcoxon_signed_rank,
)
from .core import (
    AbstractDesign,
    ConcreteDesign,
    DatasetCollection,
    DesignDataset,
    WorkspaceLayout,
    concrete_design_id,
    load_dataset,
    load_post_frontend,
    validate_design_files,
)
from .errors import HlsForgeError
from .executor import (
    ExecutionRecord,
    Job,
    Timeline,
    execute,
    execute_parallel_fine_grained,
    execute_parallel_naive,
    simulate_schedule,
)
from .frontends import (
    FrontendConfig,
    IntelAnnotation,
    execute_frontend,
    lower_intel,
    lower_xilinx,
    map_directive_to_intel,
    sample_assignments,
)
from .optdsl import (
    DesignSpace,
    DirectiveAssignment,
    OptTemplate,
    design_space_size,
    enumerate_design_space,
    iter_assignments,
    parse_opt_template,
    render_assignment,
)
from .toolflows import (
    FlowOutcome,
    MockCostConstants,
    MockManifest,
    ToolFlowSpec,
    mock_hls_synth,
    mock_impl,
    mock_impl_flow,
    mock_synth_flow,
    run_flow,
)

__version__ = "0.1.0"
