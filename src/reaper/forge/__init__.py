"""Training-data generation: prompt evolution, secondary tasks, diverse
query sampling, and dataset mixing.

The public names resolve on first access (PEP 562), so ``load_generic_pool``
loads the mixer alone; numpy comes with the first embedding."""

from .. import _lazy_exports

_EXPORTS = {
    "dqs": ("dqs_partition", "dqs_sample_indices"),
    "mixer": ("load_generic_pool", "mix_dataset"),
    "pipeline": ("forge_run", "generate_records", "write_records"),
    "records": (
        "ForgeConfig",
        "MixManifest",
        "SECONDARY_KINDS",
        "TaskKind",
        "TrainingRecord",
    ),
    "tevo": ("evolve_target", "tevo_evolve"),
    "ttg": (
        "MASKED_PARAM_TOKEN",
        "MASKED_STEP_TOKEN",
        "NO_VALID_PLAN",
        "NotApplicableError",
        "applicable_kinds",
        "ttg_transform",
    ),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
