import json
from importlib import resources

import pytest
import yaml

from reaper.boundary import read_yaml
from reaper.cli import main
from reaper.errors import UnknownToolError
from reaper.registry import (
    AmbiguousVariantError,
    ParamSpec,
    SchemaError,
    ToolRegistry,
    ToolSpec,
    VariantPool,
    _build,
    _packaged,
    extended_registry,
    load_registry,
    subset_with,
)

COMPATIBLE_PRODUCTS_BLOCK = {
    "canonical_name": "compatible_products",
    "class_label": "extension",
    "description": "Finds accessories that are compatible with a given product.",
    "params": [
        {
            "name": "product_id",
            "required": True,
            "description": "Product to find compatible items for.",
        }
    ],
    "example_usage": 'Step 1: compatible_products(product_id="B0X")',
    "name_variants": ["compatible_products", "compat_finder"],
    "description_paraphrases": ["Finds compatible accessories."],
}


def default_tools_data():
    return json.loads(
        resources.files("reaper.data")
        .joinpath("default_tools.json")
        .read_text(encoding="utf-8")
    )


def write_default_plus(tmp_path, *blocks):
    data = default_tools_data()
    data["tools"].extend(blocks)
    path = tmp_path / "tools.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    return path


class TestLoad:
    def test_default_registry_has_six_tools(self, registry):
        assert registry.canonical_names == (
            "customer_support",
            "shipment_status",
            "prod_search",
            "prod_qna",
            "review_summary",
            "no_retrieval",
        )

    def test_adding_compatible_products_gives_seven(self, tmp_path):
        path = write_default_plus(tmp_path, COMPATIBLE_PRODUCTS_BLOCK)
        loaded = load_registry(path)
        assert len(loaded) == 7
        assert loaded.has_tool("compatible_products")

    def test_extended_registry_has_eight_tools(self, registry):
        # the default's entries, then the two of extension_tools.json
        extended = extended_registry()
        assert len(extended) == 8
        assert extended.canonical_of("small_talk_reply") == "human_small_talk"
        assert extended.canonical_names == (
            *registry.canonical_names,
            "compatible_products",
            "human_small_talk",
        )
        for name in registry.canonical_names:
            assert extended.entry(name) == registry.entry(name)

    def test_shared_variant_is_ambiguous(self, tmp_path):
        clone = dict(COMPATIBLE_PRODUCTS_BLOCK)
        clone["name_variants"] = ["compatible_products", "item_search"]  # taken
        path = write_default_plus(tmp_path, clone)
        with pytest.raises(SchemaError) as excinfo:
            load_registry(path)
        assert str(excinfo.value).startswith(f"{path}: tools[6]: variant 'item_search'")
        assert isinstance(excinfo.value.__cause__, AmbiguousVariantError)

    def test_missing_field_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("tools:\n  - canonical_name: x\n", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_registry(path)
        assert "tools[0]" in str(excinfo.value)

    def test_not_yaml_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("tools: [unclosed", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_registry(path)
        assert str(excinfo.value).startswith(f"{path}: -: not valid YAML: ")

    def test_required_param_after_optional_rejected(self, tmp_path):
        block = dict(COMPATIBLE_PRODUCTS_BLOCK)
        block["params"] = [
            {"name": "category", "required": False, "description": ""},
            {"name": "product_id", "required": True, "description": ""},
        ]
        path = write_default_plus(tmp_path, block)
        with pytest.raises(SchemaError):
            load_registry(path)

    def test_unparseable_example_usage_rejected(self, tmp_path):
        block = dict(COMPATIBLE_PRODUCTS_BLOCK)
        block["example_usage"] = "call compatible_products please"
        path = write_default_plus(tmp_path, block)
        with pytest.raises(SchemaError):
            load_registry(path)


class TestResolve:
    def test_variant_resolves_to_canonical_spec(self, registry):
        assert registry.resolve("product_facts").canonical_name == "prod_qna"

    def test_canonical_resolves_to_itself(self, registry):
        assert registry.resolve("prod_qna").canonical_name == "prod_qna"

    def test_unknown_name_raises(self, registry):
        with pytest.raises(UnknownToolError):
            registry.resolve("compare")

    def test_resolve_total_over_variant_union(self, registry):
        for canonical in registry.canonical_names:
            for variant in registry.variants_of(canonical):
                assert registry.canonical_of(variant) == canonical


class TestSubsetWith:
    def test_single_required_no_extras(self, registry):
        subset = subset_with(registry, {"prod_qna"}, 0, seed=0)
        assert subset.canonical_names == ("prod_qna",)

    def test_fixed_seed_fixture(self, registry):
        # recorded once with seed=7 and frozen
        subset = subset_with(registry, {"shipment_status", "prod_qna"}, 2, seed=7)
        assert subset.canonical_names == (
            "customer_support",
            "shipment_status",
            "prod_qna",
            "review_summary",
        )

    def test_exhaustive_extra_count_gives_full_registry(self, registry):
        for seed in (0, 1, 99):
            subset = subset_with(registry, {"prod_qna"}, len(registry) - 1, seed)
            assert subset.canonical_names == registry.canonical_names

    def test_required_always_included_and_deterministic(self, registry):
        required = {"no_retrieval", "prod_search"}
        for seed in range(20):
            first = subset_with(registry, required, 2, seed)
            second = subset_with(registry, required, 2, seed)
            assert first.canonical_names == second.canonical_names
            assert required <= set(first.canonical_names)
            assert len(first) == 4

    def test_extra_count_out_of_range(self, registry):
        with pytest.raises(ValueError):
            subset_with(registry, {"prod_qna"}, len(registry), seed=0)
        with pytest.raises(ValueError):
            subset_with(registry, {"prod_qna"}, -1, seed=0)

    def test_unknown_required_tool(self, registry):
        with pytest.raises(UnknownToolError):
            subset_with(registry, {"compare"}, 0, seed=0)


def test_variant_lexicons_do_not_overlap_as_substrings():
    """No tool's variant may appear inside another tool's variants,
    descriptions, or example usages; the adversarial prompt scan relies on
    this."""
    extended = extended_registry()
    for canonical in extended.canonical_names:
        variants = extended.variants_of(canonical)
        for other_name in extended.canonical_names:
            if other_name == canonical:
                continue
            other_spec, other_pool = extended.entry(other_name)
            haystack = "\n".join(
                (
                    other_spec.description,
                    other_spec.example_usage,
                    *other_pool.name_variants,
                    *other_pool.description_paraphrases,
                )
            )
            for variant in variants:
                assert variant not in haystack, (
                    f"{variant!r} of {canonical} leaks into {other_name}"
                )


def test_registry_order_preserved_in_subset(registry):
    subset = registry.subset(["review_summary", "customer_support"])
    assert subset.canonical_names == ("customer_support", "review_summary")


def test_empty_registry_is_representable():
    assert len(ToolRegistry([])) == 0


@pytest.mark.parametrize(
    "name",
    sorted(
        entry.name
        for entry in resources.files("reaper.data").iterdir()
        if entry.name.endswith(".json")
    ),
)
def test_read_yaml_equals_the_python_loader(name):
    # each shipped JSON document is also a valid registry or pool YAML file:
    # read_yaml, PyYAML's pure-Python SafeLoader on every install, reads it
    # to what yaml.safe_load and json read
    text = resources.files("reaper.data").joinpath(name).read_text(encoding="utf-8")
    assert read_yaml(text, name) == yaml.safe_load(text) == json.loads(text)


def _set(i, key, value):
    def edit(tools):
        tools[i][key] = value

    return edit


def _add_param(i, name):
    def edit(tools):
        tools[i]["params"].append({"name": name, "required": False, "description": ""})

    return edit


# each edit of default_tools.json, and the tools[i] it breaks
BROKEN_REGISTRIES = {
    "non-string-variant": (_set(0, "name_variants", ["customer_support", 5]), 0),
    "non-string-paraphrase": (_set(0, "description_paraphrases", [5]), 0),
    "duplicate-parameter": (_add_param(0, "query"), 0),
    "parameter-not-an-identifier": (_add_param(0, "Bad Name"), 0),
    "usage-calls-another-tool": (
        _set(1, "example_usage", 'Step 1: customer_support(query="order")'),
        1,
    ),
    "duplicate-tool": (lambda tools: tools.append(dict(tools[2])), 6),
    "canonical-not-a-variant": (_set(3, "name_variants", ["product_facts"]), 3),
    "variant-shared-by-two-tools": (
        _set(4, "name_variants", ["review_summary", "help_center"]),
        4,
    ),
}


@pytest.mark.parametrize(
    "edit, index", BROKEN_REGISTRIES.values(), ids=BROKEN_REGISTRIES.keys()
)
def test_broken_registry_is_usage_error_naming_file_and_tool(
    tmp_path, capsys, edit, index
):
    data = default_tools_data()
    edit(data["tools"])
    registry_path = tmp_path / "tools.yaml"
    registry_path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    plans = tmp_path / "plans.txt"
    plans.write_text("Step 1: no_retrieval()\n", encoding="utf-8")
    assert main(["validate", str(plans), "--registry", str(registry_path)]) == 2
    err = capsys.readouterr().err
    assert f"{registry_path}: tools[{index}]" in err
    assert "Traceback" not in err


class TestEntryRules:
    """The types enforce the registry file's rules, so a registry built in
    code is held to them too."""

    def test_parameter_name_must_be_an_identifier(self):
        with pytest.raises(ValueError, match="invalid parameter name"):
            ParamSpec("Bad Name", True)

    def test_variants_and_paraphrases_must_be_strings(self):
        with pytest.raises(ValueError, match="invalid variant name"):
            VariantPool(("tool_a", 5), ("does a",))
        with pytest.raises(ValueError, match="paraphrases"):
            VariantPool(("tool_a",), (5,))

    @pytest.mark.parametrize(
        "params, usage, message",
        [
            (
                (ParamSpec("query", True), ParamSpec("query", False)),
                'Step 1: tool_a(query="x")',
                "duplicate parameter 'query'",
            ),
            ((), "Step 1: tool_b()", "example_usage calls 'tool_b'"),
        ],
    )
    def test_tool_spec_rules(self, params, usage, message):
        with pytest.raises(ValueError, match=message):
            ToolSpec("tool_a", params, "does a", usage, "extension")


def test_variant_colliding_across_the_two_documents_is_located():
    # extended_registry's two documents, the extension's second tool
    # claiming a variant of the default's first
    path, data = _packaged("extension_tools.json")
    variants = data["tools"][1]["name_variants"]
    assert variants[-1] == "casual_chat_reply"
    variants[-1] = "help_center"
    with pytest.raises(SchemaError) as excinfo:
        _build([_packaged("default_tools.json"), (path, data)])
    assert str(excinfo.value).startswith(f"{path}: tools[1]: variant 'help_center'")
    assert isinstance(excinfo.value.__cause__, AmbiguousVariantError)
