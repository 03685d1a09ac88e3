from importlib import resources

import pytest
import yaml

from reaper.boundary import read_yaml
from reaper.errors import UnknownToolError
from reaper.registry import (
    AmbiguousVariantError,
    SchemaError,
    ToolRegistry,
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


def write_default_plus(tmp_path, *blocks):
    data = yaml.safe_load(
        resources.files("reaper.data")
        .joinpath("default_tools.yaml")
        .read_text(encoding="utf-8")
    )
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

    def test_extended_registry_has_eight_tools(self):
        extended = extended_registry()
        assert len(extended) == 8
        assert extended.canonical_of("small_talk_reply") == "human_small_talk"

    def test_shared_variant_is_ambiguous(self, tmp_path):
        clone = dict(COMPATIBLE_PRODUCTS_BLOCK)
        clone["name_variants"] = ["compatible_products", "item_search"]  # taken
        path = write_default_plus(tmp_path, clone)
        with pytest.raises(AmbiguousVariantError):
            load_registry(path)

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
    "name", ["default_tools.yaml", "extended_tools.yaml", "example_pool.yaml"]
)
def test_read_yaml_equals_the_python_loader(name):
    # read_yaml takes libyaml's parser where it is built; PyYAML's pure-Python
    # SafeLoader is the reference for every shipped document
    text = resources.files("reaper.data").joinpath(name).read_text(encoding="utf-8")
    assert read_yaml(text, name) == yaml.safe_load(text)
