"""Exception types shared across more than one module.

Module-specific failures (parse errors, provider errors, ...) live next to
the code that raises them; only cross-cutting ones belong here.
"""


class ReaperError(Exception):
    """Base class for all errors raised by this package."""


class UnknownToolError(ReaperError):
    """A tool name does not resolve to any registered tool or variant."""

    def __init__(self, name: str):
        super().__init__(f"unknown tool: {name!r}")
        self.name = name


class SchemaError(ReaperError):
    """An input file (a registry or pool document, JSONL records) does not match its
    schema; ``field`` locates the defect within ``path``."""

    def __init__(self, path: str, field: str, message: str):
        super().__init__(f"{path}: {field}: {message}")
        self.path = path
        self.field = field
