"""Multimodal math error detection: find the first wrong solution step."""

from .analyzer import (
    AnalyzerOutput,
    analyze,
    build_analysis_prompt,
    format_steps,
    parse_analyzer_output,
)
from .backends import (
    AuthError,
    BadResponse,
    Backend,
    BackendError,
    CallRecord,
    FinishReason,
    HttpBackend,
    ImageSegment,
    ModelRequest,
    ModelResponse,
    ReplayCache,
    RequestSettings,
    RetryPolicy,
    ScriptMiss,
    ScriptedBackend,
    TextSegment,
    TransportError,
    request_fingerprint,
)
from .consistency import ConsistencyVerdict, check_consistency, parse_verdict
from .data_model import (
    DatasetStats,
    EmptyDataset,
    ErrorCategory,
    ImageKind,
    ImageRef,
    QuestionType,
    Sample,
    SchemaError,
    UnknownCategory,
    dataset_stats,
    load_dataset,
    parse_category,
    sample_from_dict,
    sample_to_dict,
    scan_dataset,
    write_dataset,
)
from .formal_language import (
    DEFAULT_ARITY,
    GeometryFact,
    Number,
    ParseError,
    Symbol,
    check_latex_table,
    parse_facts,
    serialize_facts,
    validate_arity,
)
from .interpreter import (
    Representation,
    TranscriptSource,
    TypeInferenceError,
    VisualTranscript,
    interpret_visual,
    match_question_type,
    resolve_question_type,
)
from .metrics import (
    CONFUSION_ROWS,
    UNPARSED,
    AlignmentError,
    KeyMismatch,
    ScoredRun,
    average_score,
    improvement_delta,
    mean_delta,
    score_run,
    weighted_overall,
)
from .pipeline import (
    AblationMode,
    Detection,
    DetectionLog,
    PhaseError,
    PhaseSetup,
    PhaseTrace,
    PipelineSetup,
    SharedSteps,
    StoredDetection,
    call_counts,
    detect_errors,
    detection_to_dict,
    load_detections,
    run_dataset,
    stream_detections,
)
from .prompts import PromptSet
from .report import (
    CALL_COLUMNS,
    COLUMNS,
    CSV_HEADER,
    ReportRow,
    attach_deltas,
    build_report_row,
    render_ablation_csv,
    render_csv,
    render_markdown,
)

__version__ = "0.1.0"
