"""Training-data generation: prompt evolution, secondary tasks, diverse
query sampling, and dataset mixing."""

from .dqs import dqs_partition, dqs_sample, dqs_sample_indices
from .mixer import load_generic_pool, mix_dataset
from .pipeline import forge_run, generate_records, write_records
from .records import (
    DqsConfig,
    ForgeConfig,
    MixManifest,
    PrimaryTask,
    SECONDARY_KINDS,
    TaskKind,
    TrainingRecord,
)
from .tevo import evolve_target, tevo_evolve
from .ttg import (
    MASKED_PARAM_TOKEN,
    MASKED_STEP_TOKEN,
    NO_VALID_PLAN,
    NotApplicableError,
    applicable_kinds,
    ttg_transform,
)

__all__ = [
    "DqsConfig",
    "ForgeConfig",
    "MASKED_PARAM_TOKEN",
    "MASKED_STEP_TOKEN",
    "MixManifest",
    "NO_VALID_PLAN",
    "NotApplicableError",
    "PrimaryTask",
    "SECONDARY_KINDS",
    "TaskKind",
    "TrainingRecord",
    "applicable_kinds",
    "dqs_partition",
    "dqs_sample",
    "dqs_sample_indices",
    "evolve_target",
    "forge_run",
    "generate_records",
    "load_generic_pool",
    "mix_dataset",
    "tevo_evolve",
    "ttg_transform",
    "write_records",
]
