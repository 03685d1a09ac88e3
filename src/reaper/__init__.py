"""Single-shot retrieval planning toolkit.

A plan language for multi-step retrieval tool calls, a tool registry with
name/description variant pools, a prompt builder, a training-data forge
(prompt evolution, secondary tasks, diverse query sampling, dataset mixing),
a dependency-aware executor, and an evaluation harness.

The public names below resolve on first access (PEP 562), so importing
``reaper`` loads none of the submodules. The ``reaper`` subcommands load:

- every one: the plan language, the registry and :mod:`reaper.embedding`
  without numpy; ``validate`` nothing more;
- ``plan``: the prompt builder and the gateway, and no thread;
- ``eval``: :mod:`reaper.evaluation` and the prompt builder, not the executor;
- ``bench``: these and the executor, and no thread: it runs each plan
  inline on simulated latencies;
- ``forge``: the forge and the prompt builder, and numpy with the first
  embedding.

numpy is the one runtime dependency. The HTTP adapters use the standard
library's client, imported on their first call. PyYAML, the optional
``[yaml]`` extra, is imported only to read a named file that is not JSON:
the shipped registries and demonstrations are JSON.
"""

import importlib
import sys


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``, whose public
    names are ``exports``: submodule -> the names it defines. A name's
    submodule is imported on the name's first access."""
    module_of = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value  # later lookups skip this hook
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(module_of))

    return sorted(module_of), __getattr__, __dir__


_EXPORTS = {
    "embedding": (
        "HashingEmbedder",
        "RemoteEmbedder",
        "SimilarityMatrix",
        "cosine",
        "similarity_matrix",
    ),
    "errors": ("ReaperError", "UnknownToolError"),
    "evaluation": (
        "EvalReport",
        "GoldExample",
        "LatencyStats",
        "argument_accuracy",
        "evaluate",
        "instruction_following_score",
        "latency_bench",
        "tool_selection_metrics",
    ),
    "executor": (
        "CannedCall",
        "ExecutionTrace",
        "HttpRetriever",
        "StepResult",
        "StepStatus",
        "dependency_graph",
        "execute_plan",
        "mock_retriever",
    ),
    "gateway": ("Planner", "RemoteBackend", "ScriptedStub", "generate_plan"),
    "plan": (
        "ArgValue",
        "ContextRef",
        "Literal",
        "ParseErrorKind",
        "Plan",
        "PlanParseError",
        "PlanStep",
        "StepRef",
        "Violation",
        "parse_plan",
        "render_plan",
        "rename_tools",
        "tool_sequence",
        "validate_plan",
    ),
    "prompt": (
        "InContextExample",
        "PromptSpec",
        "QueryInput",
        "adversarial_omit",
        "build_prompt",
        "load_example_pool",
    ),
    "registry": (
        "ToolRegistry",
        "ToolSpec",
        "VariantPool",
        "default_registry",
        "extended_registry",
        "load_registry",
        "subset_with",
    ),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__version__ = "0.1.0"
