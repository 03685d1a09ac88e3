"""Tool registry: canonical tool specs, name/description variant pools, lookup.

A registry is read from a JSON or YAML document that a caller names
(:func:`load_registry`) and is immutable afterwards. The shipped registries,
``data/default_tools.json`` and ``data/extension_tools.json``, follow the
same schema in JSON; one reader, :func:`~reaper.boundary.read_document`,
reads shipped and named files alike, and imports PyYAML only for a file
that is not JSON. Every tool carries a pool of alternative names and
description paraphrases used by the prompt-evolution stage, and a
``class_label`` tying it to one of the evaluation classes.

Schema, shown as YAML (all fields required unless noted)::

    tools:
      - canonical_name: prod_qna
        class_label: product_qna
        description: one-sentence canonical description
        params:
          - {name: product_id, required: true, description: ...}
        example_usage: 'Step 1: prod_qna(product_id="B0X", query="...")'
        name_variants: [prod_qna, product_information, ...]   # includes canonical
        description_paraphrases: [..., ...]                   # non-empty

Parameter names and name variants are identifiers, unique within their
tool; paraphrases are non-empty strings; the example usage is a plan that
calls only the tool itself, with its tool's required parameters and no
unknown one; no two tools share a name or a variant. The types and
:class:`ToolRegistry` enforce these rules, so a registry built in code is
held to them too; the loader names the file and ``tools[i]`` of the entry
that breaks one. The shipped variant names all contain an underscore, so
they cannot collide with prose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .boundary import read_document, typed_field
from .errors import ReaperError, SchemaError, UnknownToolError
from .plan import IDENT_RE, _call_violations, parse_plan, rename_tools, render_plan

NO_RETRIEVAL_TOOL = "no_retrieval"

CLASS_LABELS = (
    "customer_support",
    "shipment_status",
    "product_search",
    "product_qna",
    "review_summary",
    "no_retrieval",
    "extension",
)


class AmbiguousVariantError(ReaperError):
    """Two tools claim the same name variant."""


def _is_identifier(name: object) -> bool:
    return isinstance(name, str) and IDENT_RE.match(name) is not None


@dataclass(frozen=True)
class ParamSpec:
    name: str
    required: bool
    description: str = ""

    def __post_init__(self):
        if not _is_identifier(self.name):
            raise ValueError(f"invalid parameter name: {self.name!r}")


@dataclass(frozen=True)
class ToolSpec:
    canonical_name: str
    params: tuple[ParamSpec, ...]
    description: str
    example_usage: str
    class_label: str

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if not _is_identifier(self.canonical_name):
            raise ValueError(f"invalid tool name: {self.canonical_name!r}")
        if self.class_label not in CLASS_LABELS:
            raise ValueError(
                f"{self.canonical_name}: unknown class_label {self.class_label!r}"
            )
        seen_optional = False
        names = set()
        for param in self.params:
            if param.name in names:
                raise ValueError(
                    f"{self.canonical_name}: duplicate parameter {param.name!r}"
                )
            names.add(param.name)
            if param.required and seen_optional:
                raise ValueError(
                    f"{self.canonical_name}: required parameter {param.name!r} "
                    "listed after an optional one"
                )
            seen_optional = seen_optional or not param.required
        # a valid plan snippet that calls only this tool, so renaming the
        # tool renames every surface form of it in the usage, and removing
        # another tool leaves none of that tool's names behind; each call
        # passes validate_plan's per-call check, as a prompt shows it
        for step in parse_plan(self.example_usage).steps:
            if step.tool_name != self.canonical_name:
                raise ValueError(
                    f"{self.canonical_name}: example_usage calls "
                    f"{step.tool_name!r}, not {self.canonical_name!r}"
                )
            if violations := _call_violations(step, self):
                raise ValueError(f"{self.canonical_name}: example_usage {violations[0]}")

    @cached_property
    def _param_names(self) -> tuple[frozenset[str], frozenset[str]]:
        """The (known, required) parameter names; kept with the immutable
        spec: ``validate_plan`` checks every step against them."""
        return (
            frozenset(p.name for p in self.params),
            frozenset(p.name for p in self.params if p.required),
        )

    @cached_property
    def _prompt_entry(self) -> str:
        """The tool's entry in a prompt's tool block, after its ``N. ``;
        kept with the immutable spec: a forge run shows each presented spec
        in many prompts."""
        signature = ", ".join(
            p.name if p.required else f"{p.name}?" for p in self.params
        )
        return (
            f"{self.canonical_name} - Tool: {self.description} "
            f"Signature: {self.canonical_name}({signature}). "
            f"Example usage: {self.example_usage}"
        )

    @cached_property
    def _presentations(self) -> dict[tuple[str, str], ToolSpec]:
        return {}

    def _presented(self, name: str, description: str) -> ToolSpec:
        """This tool shown under the variant name ``name`` and the paraphrase
        ``description``, its example usage renamed to match; kept with the
        immutable spec, so as long as its registry: a forge shows each of its
        few (name, paraphrase) pairs in many prompts."""
        spec = self._presentations.get((name, description))
        if spec is None:
            renamed = {self.canonical_name: name}
            usage = render_plan(rename_tools(parse_plan(self.example_usage), renamed))
            spec = self._presentations[name, description] = replace(
                self, canonical_name=name, description=description, example_usage=usage
            )
        return spec


@dataclass(frozen=True)
class VariantPool:
    name_variants: tuple[str, ...]
    description_paraphrases: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "name_variants", tuple(self.name_variants))
        object.__setattr__(
            self, "description_paraphrases", tuple(self.description_paraphrases)
        )
        if not self.name_variants or not self.description_paraphrases:
            raise ValueError("variant pools must be non-empty")
        for name in self.name_variants:
            if not _is_identifier(name):
                raise ValueError(f"invalid variant name: {name!r}")
        for text in self.description_paraphrases:
            if not isinstance(text, str) or not text:
                raise ValueError(
                    f"description paraphrases must be non-empty strings, got {text!r}"
                )
        if len(set(self.name_variants)) != len(self.name_variants):
            raise ValueError("duplicate names within a variant pool")


class ToolRegistry:
    """Immutable, ordered collection of (ToolSpec, VariantPool) entries."""

    def __init__(self, entries: Iterable[tuple[ToolSpec, VariantPool]]):
        self._entries: dict[str, tuple[ToolSpec, VariantPool]] = {}
        self._variant_to_canonical: dict[str, str] = {}
        for spec, pool in entries:
            if spec.canonical_name in self._entries:
                raise ValueError(f"duplicate tool: {spec.canonical_name!r}")
            if spec.canonical_name not in pool.name_variants:
                raise ValueError(
                    f"{spec.canonical_name}: canonical name missing from its "
                    "variant pool"
                )
            for variant in pool.name_variants:
                owner = self._variant_to_canonical.get(variant)
                if owner is not None and owner != spec.canonical_name:
                    raise AmbiguousVariantError(
                        f"variant {variant!r} claimed by both {owner!r} "
                        f"and {spec.canonical_name!r}"
                    )
                self._variant_to_canonical[variant] = spec.canonical_name
            self._entries[spec.canonical_name] = (spec, pool)

    @cached_property
    def canonical_names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ToolSpec]:
        return (spec for spec, _ in self._entries.values())

    @cached_property
    def _prompt_block(self) -> str:
        """A prompt's numbered tool lines, kept with the immutable registry."""
        return "".join(
            f"{number}. {tool._prompt_entry}\n"
            for number, tool in enumerate(self, start=1)
        )

    def has_tool(self, name: str) -> bool:
        return name in self._variant_to_canonical

    def canonical_of(self, name: str) -> str:
        try:
            return self._variant_to_canonical[name]
        except KeyError:
            raise UnknownToolError(name) from None

    def resolve(self, name: str) -> ToolSpec:
        return self._entries[self.canonical_of(name)][0]

    def entry(self, canonical_name: str) -> tuple[ToolSpec, VariantPool]:
        try:
            return self._entries[canonical_name]
        except KeyError:
            raise UnknownToolError(canonical_name) from None

    def variants_of(self, name: str) -> tuple[str, ...]:
        return self._entries[self.canonical_of(name)][1].name_variants

    def subset(self, canonical_names: Iterable[str]) -> "ToolRegistry":
        """New registry keeping the named tools, in this registry's order."""
        keep = set(canonical_names)
        unknown = keep - set(self._entries)
        if unknown:
            raise UnknownToolError(sorted(unknown)[0])
        return ToolRegistry(
            self._entries[name] for name in self._entries if name in keep
        )

    def without(self, name: str) -> "ToolRegistry":
        canonical = self.canonical_of(name)
        return ToolRegistry(
            entry for key, entry in self._entries.items() if key != canonical
        )


def subset_with(
    registry: ToolRegistry,
    required: Iterable[str],
    extra_count: int,
    seed: int,
) -> ToolRegistry:
    """Registry containing exactly ``required`` plus ``extra_count`` tools
    drawn without replacement from the remainder, deterministically by seed."""
    wanted = {registry.canonical_of(name) for name in required}
    return registry.subset(
        _draw_extras(registry.canonical_names, wanted, extra_count, seed)
    )


def _draw_extras(
    order: Iterable[str], wanted: set[str], extra_count: int, seed: int
) -> set[str]:
    """``wanted`` plus ``extra_count`` names drawn without replacement from
    the rest of ``order``, deterministically by seed: the draw of
    :func:`subset_with`, which ``tevo_evolve`` makes without building the
    subset registry."""
    remainder = [n for n in order if n not in wanted]
    if not 0 <= extra_count <= len(remainder):
        raise ValueError(
            f"extra_count must be in [0, {len(remainder)}], got {extra_count}"
        )
    return wanted.union(random.Random(seed).sample(remainder, extra_count))


def _entry(block: object, path: str, where: str) -> tuple[ToolSpec, VariantPool]:
    """The tool at ``where`` in a registry document."""
    if not isinstance(block, dict):
        raise SchemaError(path, where, "expected a mapping")
    params = []
    for j, p in enumerate(typed_field(block, "params", list, path, where)):
        pwhere = f"{where}.params[{j}]"
        if not isinstance(p, dict):
            raise SchemaError(path, pwhere, "expected a mapping")
        params.append(
            ParamSpec(
                name=typed_field(p, "name", str, path, pwhere),
                required=typed_field(p, "required", bool, path, pwhere),
                description=typed_field(p, "description", str, path, pwhere),
            )
        )
    spec = ToolSpec(
        canonical_name=typed_field(block, "canonical_name", str, path, where),
        params=tuple(params),
        description=typed_field(block, "description", str, path, where),
        example_usage=typed_field(block, "example_usage", str, path, where),
        class_label=typed_field(block, "class_label", str, path, where),
    )
    pool = VariantPool(
        name_variants=tuple(typed_field(block, "name_variants", list, path, where)),
        description_paraphrases=tuple(
            typed_field(block, "description_paraphrases", list, path, where)
        ),
    )
    return spec, pool


def _build(documents: Iterable[tuple[str, object]]) -> ToolRegistry:
    """One registry from the tools of each ``(path, data)`` registry
    document in turn, ``data`` as read from the file. The types and the
    registry check each entry as it is read, so a check fails while its entry
    is the current one; this only locates the failure, as a
    :class:`SchemaError` naming the file and ``tools[i]``."""
    path, where = "-", "tools"

    def entries() -> Iterator[tuple[ToolSpec, VariantPool]]:
        nonlocal path, where
        for path, data in documents:
            where = "tools"
            if not isinstance(data, dict) or "tools" not in data:
                raise SchemaError(
                    path, where, "document must be a mapping with 'tools'"
                )
            if not isinstance(data["tools"], list) or not data["tools"]:
                raise SchemaError(path, where, "expected a non-empty list")
            for i, block in enumerate(data["tools"]):
                where = f"tools[{i}]"
                yield _entry(block, path, where)

    try:
        return ToolRegistry(entries())
    except SchemaError:
        raise
    except (ValueError, ReaperError) as exc:
        raise SchemaError(path, where, str(exc)) from exc


def load_registry(path: str | Path) -> ToolRegistry:
    """Load a registry file, JSON or YAML, read anew on every call; a
    malformed config, or a name variant that two tools claim, raises
    :class:`SchemaError` naming the file and the tool."""
    return _build([(str(path), read_document(Path(path), str(path)))])


def _packaged(name: str) -> tuple[str, object]:
    """The shipped JSON document ``name``, as ``(path, data)``."""
    path = f"reaper/data/{name}"
    return path, read_document(resources.files("reaper.data").joinpath(name), path)


@cache
def default_registry() -> ToolRegistry:
    """The shipped six-tool registry covering the six evaluation classes.
    Built once per process and shared by every caller: a registry is
    immutable, and the packaged file cannot change while the process runs."""
    return _build([_packaged("default_tools.json")])


@cache
def extended_registry() -> ToolRegistry:
    """The default registry's six tools followed by the two extension tools
    of ``extension_tools.json``; a variant that collides across the two files
    raises. Built once per process and shared, like :func:`default_registry`."""
    return _build([_packaged("default_tools.json"), _packaged("extension_tools.json")])
