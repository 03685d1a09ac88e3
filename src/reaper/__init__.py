"""Single-shot retrieval planning toolkit.

A plan language for multi-step retrieval tool calls, a tool registry with
name/description variant pools, a prompt builder, a training-data forge
(prompt evolution, secondary tasks, diverse query sampling, dataset mixing),
a dependency-aware executor, and an evaluation harness.
"""

from .embedding import (
    HashingEmbedder,
    RemoteEmbedder,
    SimilarityMatrix,
    cosine,
    similarity_matrix,
)
from .errors import ReaperError, UnknownToolError
from .evaluation import (
    EvalReport,
    GoldExample,
    LatencyStats,
    argument_accuracy,
    evaluate,
    instruction_following_score,
    latency_bench,
    tool_selection_metrics,
)
from .executor import (
    CannedCall,
    ExecutionTrace,
    HttpRetriever,
    StepResult,
    StepStatus,
    dependency_graph,
    execute_plan,
    mock_retriever,
)
from .gateway import RemoteBackend, ScriptedStub, generate_plan
from .plan import (
    ArgValue,
    ContextRef,
    Literal,
    ParseErrorKind,
    Plan,
    PlanParseError,
    PlanStep,
    StepRef,
    Violation,
    parse_plan,
    render_plan,
    rename_tools,
    tool_sequence,
    validate_plan,
)
from .prompt import (
    InContextExample,
    PromptSpec,
    QueryInput,
    adversarial_omit,
    build_prompt,
    load_example_pool,
)
from .registry import (
    ToolRegistry,
    ToolSpec,
    VariantPool,
    default_registry,
    extended_registry,
    load_registry,
    subset_with,
)

__version__ = "0.1.0"
