import collections
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import reaper
from reaper.cli import _by_line, main
from reaper.errors import SchemaError
from reaper.evaluation import GoldExample
from reaper.forge import dqs, pipeline, records
from reaper.plan import parse_plan, validate_plan
from reaper.prompt import QueryInput
from reaper.registry import load_registry

from .conftest import GALAXY_PLAN_TEXT
from .httpserve import json_server
from .test_registry import default_tools_data

GOLDEN_TASKS = Path(__file__).parent / "data" / "forge_tasks.jsonl"
GOLDEN_ARGS = ["--tasks-per-query", "8", "--generic-fraction", "0.5", "--seed", "7"]
# sha256 of the golden run's output and manifest as first forged
GOLDEN_OUT_SHA256 = "0ad4eae79d3bca355841cb174fdde1e60215d29d98ac68ddd4336f44a6d302f6"
GOLDEN_MANIFEST_SHA256 = "eb4bca89018f125ec4051a2e0d522833545a4d1fdbe329baf45def972186fc22"

CHAIN_PLAN = (
    'Step 1: shipment_status(query="order")\n'
    "Step 2: prod_qna(product_id=$1.product_id, query=\"size\")\n"
    "Step 3: review_summary(product_id=$2.product_id)"
)

# a plan file that holds no plan: empty, or only blank lines
NO_PLAN = pytest.mark.parametrize("text", ["", "\n \n\t\n"], ids=["empty", "blank"])

TWO_STEP_PLAN = (
    'Step 1: prod_search(keywords="red shoes")\n'
    'Step 2: prod_qna(product_id=$1.product_id, query="size")'
)


def write_extension_registry(path):
    """A registry file of only the two tools of the shipped
    ``extension_tools.json``, which no shipped demonstration uses."""
    data = Path(reaper.__file__).parent / "data" / "extension_tools.json"
    path.write_text(data.read_text(encoding="utf-8"), encoding="utf-8")
    return path


def write_tasks(path, n):
    lines = []
    for i in range(n):
        plan = (
            f'Step 1: prod_search(keywords="item {i}")'
            if i % 2
            else GALAXY_PLAN_TEXT
        )
        lines.append(
            json.dumps({"query": f"question {i} about {chr(97 + i % 26)}", "context": None, "plan": plan})
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def count_reads(monkeypatch):
    """Counts of ``Path.read_text`` calls, by path, while the test runs."""
    reads = collections.Counter()
    read_text = Path.read_text

    def counted(self, *args, **kwargs):
        reads[self] += 1
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    return reads


class TestValidate:
    def test_clean_file(self, tmp_path, capsys):
        plans = tmp_path / "plans.txt"
        plans.write_text(GALAXY_PLAN_TEXT + "\n\nStep 1: no_retrieval()\n")
        assert main(["validate", str(plans)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_tool_lists_violation(self, tmp_path, capsys):
        plans = tmp_path / "plans.txt"
        plans.write_text('Step 1: compare(query="a vs b")\n')
        assert main(["validate", str(plans)]) == 1
        assert "UnknownTool" in capsys.readouterr().out

    def test_parse_error_reported(self, tmp_path, capsys):
        plans = tmp_path / "plans.txt"
        plans.write_text("not a plan at all\n")
        assert main(["validate", str(plans)]) == 1
        assert "parse error" in capsys.readouterr().out

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "missing.txt")]) == 2
        assert "error" in capsys.readouterr().err

    @NO_PLAN
    def test_a_file_with_no_plan_is_named(self, tmp_path, capsys, text):
        plans = tmp_path / "plans.txt"
        plans.write_text(text)
        assert main(["validate", str(plans)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: bad input: {plans}: the file holds no plan\n")


class TestForge:
    def test_count_law_and_manifest(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.jsonl"
        write_tasks(tasks, 10)
        out = tmp_path / "train.jsonl"
        code = main(
            [
                "forge",
                "--tasks", str(tasks),
                "--out", str(out),
                "--tasks-per-query", "3",
                "--generic-fraction", "0",
                "--seed", "11",
            ]
        )
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["reaper_count"] == 30
        assert manifest["generic_count"] == 0
        assert len(out.read_text().splitlines()) == 30

    def test_generic_fraction_zero(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.jsonl"
        write_tasks(tasks, 4)
        out = tmp_path / "train.jsonl"
        main(["forge", "--tasks", str(tasks), "--out", str(out),
              "--generic-fraction", "0"])
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["generic_count"] == 0

    def test_same_seed_twice_is_byte_identical(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.jsonl"
        write_tasks(tasks, 6)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        for out in (first, second):
            main(["forge", "--tasks", str(tasks), "--out", str(out),
                  "--tasks-per-query", "2", "--seed", "99"])
        assert first.read_bytes() == second.read_bytes()

    def test_manifest_file_written(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.jsonl"
        write_tasks(tasks, 2)
        manifest_path = tmp_path / "manifest.json"
        main(["forge", "--tasks", str(tasks), "--out", str(tmp_path / "t.jsonl"),
              "--manifest", str(manifest_path)])
        assert json.loads(manifest_path.read_text())["reaper_count"] == 2

    def test_manifest_json_is_pinned(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.jsonl"
        write_tasks(tasks, 4)
        manifest = tmp_path / "manifest.json"
        assert main(["forge", "--tasks", str(tasks), "--out", str(tmp_path / "t.jsonl"),
                     "--manifest", str(manifest),
                     "--generic-fraction", "0.5", "--seed", "3"]) == 0
        assert manifest.read_text() == (
            '{\n  "reaper_count": 4,\n  "generic_count": 100,\n'
            '  "ratio": "1:25.0",\n  "seed": 3\n}\n'
        )
        assert capsys.readouterr().out == manifest.read_text()

    def test_bad_tasks_file_is_usage_error(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text("{not json\n")
        assert main(["forge", "--tasks", str(tasks),
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"{tasks}: line 1: not valid JSON" in err
        assert "Traceback" not in err

    def test_missing_record_field_is_usage_error(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text(json.dumps({"query": "hello"}) + "\n")
        assert main(["forge", "--tasks", str(tasks),
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        assert "missing field" in capsys.readouterr().err

    def test_an_empty_task_file_is_named(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text("\n")
        assert main(["forge", "--tasks", str(tasks),
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: bad input: {tasks}: the file holds no task\n"

    def test_a_malformed_record_is_reported_before_a_plan_that_breaks_the_rule(
        self, tmp_path, capsys
    ):
        # the file is read whole before any plan is held to the rule
        tasks = tmp_path / "tasks.jsonl"
        row = {"query": "does it run small", "plan": 'Step 1: prod_qna(query="size")'}
        tasks.write_text(json.dumps(row) + "\n{not json\n")
        assert main(["forge", "--tasks", str(tasks),
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"{tasks}: line 2: not valid JSON" in err
        assert "MissingParam" not in err

    def test_a_negative_count_names_its_field(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.jsonl"
        write_tasks(tasks, 2)
        assert main(["forge", "--tasks", str(tasks), "--out", str(tmp_path / "t.jsonl"),
                     "--extra-tools", "-1"]) == 2
        err = capsys.readouterr().err
        assert "extra_tool_count must be non-negative, got -1" in err

    def test_negative_extreme_pairs_exits_2(self, tmp_path, capsys, monkeypatch):
        # no flag sets extreme_pairs; the CLI maps the config's check to exit 2
        negative = functools.partial(records.ForgeConfig, extreme_pairs=-1)
        monkeypatch.setattr(records, "ForgeConfig", negative)
        tasks = tmp_path / "tasks.jsonl"
        write_tasks(tasks, 2)
        out = tmp_path / "t.jsonl"
        assert main(["forge", "--tasks", str(tasks), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: bad input: extreme_pairs must be non-negative, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_failing_forge_reads_its_task_file_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # the line of the zero-vector query comes from the one read
        tasks = tmp_path / "tasks.jsonl"
        rows = [{"query": q, "plan": "Step 1: no_retrieval()"} for q in ("a", "???")]
        tasks.write_text("".join(json.dumps(row) + "\n" for row in rows))
        reads = count_reads(monkeypatch)
        assert main(["forge", "--tasks", str(tasks),
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        assert f"{tasks}: line 2.query: " in capsys.readouterr().err
        assert reads[tasks] == 1

    def test_zero_vector_query_names_its_line(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.jsonl"
        rows = [{"query": q, "context": None, "plan": "Step 1: no_retrieval()"}
                for q in ("red shoes", "???")]
        tasks.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["forge", "--tasks", str(tasks),
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"{tasks}: line 2.query: " in err
        assert "zero vector: '???'" in err
        assert "Traceback" not in err

    def test_output_is_pinned_across_commits(self, tmp_path, capsys):
        # a change to any stage (TEVO, TTG, DQS, mixing, the plan renderer)
        # that moves a byte fails here. Eight records per query reach every
        # kind T1-T7.
        out = tmp_path / "train.jsonl"
        manifest = tmp_path / "manifest.json"
        code = main(["forge", "--tasks", str(GOLDEN_TASKS), "--out", str(out),
                     "--manifest", str(manifest), *GOLDEN_ARGS])
        assert code == 0
        kinds = {json.loads(line)["task_kind"] for line in out.read_text().splitlines()}
        assert kinds >= {"primary", "generic", "T1", "T2", "T3", "T4", "T5", "T6", "T7"}
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_OUT_SHA256
        assert hashlib.sha256(manifest.read_bytes()).hexdigest() == GOLDEN_MANIFEST_SHA256

    def test_output_needs_no_similarity_scores(self, tmp_path, capsys, monkeypatch):
        # the task pool is its own DQS reference and no extremes are dropped,
        # so no score could change the sample and none is computed
        def no_scores(*args):
            raise AssertionError("similarity_matrix called")

        monkeypatch.setattr(dqs, "similarity_matrix", no_scores)
        self.test_output_is_pinned_across_commits(tmp_path, capsys)

    def test_extreme_pairs_is_not_an_option(self, tmp_path, capsys):
        # with the task pool as its own reference, dropping extremes could
        # never leave enough queries, so the CLI does not offer it
        tasks = tmp_path / "tasks.jsonl"
        write_tasks(tasks, 4)
        with pytest.raises(SystemExit) as excinfo:
            main(["forge", "--tasks", str(tasks), "--out", str(tmp_path / "t.jsonl"),
                  "--extreme-pairs", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --extreme-pairs" in capsys.readouterr().err

    def test_unknown_tool_names_its_line_before_any_record(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.jsonl"
        rows = [
            {"query": "red shoes", "context": None, "plan": "Step 1: no_retrieval()"},
            {"query": "cheaper kettle", "plan": 'Step 1: compare_prices(a="x")'},
        ]
        tasks.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["forge", "--tasks", str(tasks),
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        err = capsys.readouterr().err
        assert (
            f"{tasks}: line 2.plan: UnknownTool: step 1: unknown tool 'compare_prices'"
        ) in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [tasks]

    def test_missing_parameter_names_its_line_before_any_record(
        self, tmp_path, capsys, monkeypatch
    ):
        # a task's plan is the target the forge trains on, so it must pass
        # the check ``reaper validate`` makes, not only name known tools
        def no_records(*args, **kwargs):
            raise AssertionError("a record was generated")

        monkeypatch.setattr(pipeline, "generate_records", no_records)
        tasks = tmp_path / "tasks.jsonl"
        row = {"query": "does it run small", "plan": 'Step 1: prod_qna(query="size")'}
        tasks.write_text(json.dumps(row) + "\n")
        out = tmp_path / "t.jsonl"
        assert main(["forge", "--tasks", str(tasks), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (
            f"{tasks}: line 1.plan: MissingParam: "
            "step 1: prod_qna is missing required parameter 'product_id'"
        ) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_registry_of_new_tools_forges_without_the_shipped_demonstrations(
        self, tmp_path, capsys
    ):
        registry_path = write_extension_registry(tmp_path / "ext.yaml")
        rows = [
            {"query": "ink for my printer", "context": "Inkjet Printer",
             "plan": 'Step 1: compatible_products(product_id="B0PRINTER1")'},
            {"query": "hello there", "plan": "Step 1: human_small_talk()"},
            {"query": "what fits my kettle",
             "plan": 'Step 1: works_with_lookup(product_id="B0KETTLE", category="lids")'},
        ]
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = tmp_path / "t.jsonl"
        assert main(["forge", "--tasks", str(tasks), "--out", str(out),
                     "--registry", str(registry_path), "--extra-tools", "0",
                     "--tasks-per-query", "3"]) == 0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # every shipped demonstration uses a tool this registry lacks: one
        # note each, and none is shown
        notes = [line for line in err.splitlines() if line.startswith("note: ")]
        assert len(notes) == len(reaper.load_example_pool())
        for i, note in enumerate(notes):
            assert note.startswith(
                f"note: reaper/data/example_pool.json: examples[{i}].plan: "
                "UnknownTool: step 1: unknown tool "
            )
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all("Example 1:" not in record["prompt"] for record in records)
        registry = load_registry(registry_path)
        primaries = [r["target"] for r in records if r["task_kind"] == "primary"]
        assert len(primaries) == len(rows)
        for target in primaries:
            assert validate_plan(parse_plan(target), registry) == []

    def test_missing_output_directory_fails_fast(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.jsonl"
        write_tasks(tasks, 2)
        assert main(["forge", "--tasks", str(tasks),
                     "--out", str(tmp_path / "nowhere" / "t.jsonl")]) == 2


def write_gold_and_pred(tmp_path, mutate=None):
    gold_rows = [
        {"query": "where is my order", "context": None,
         "gold_plan": 'Step 1: shipment_status(query="mug order")',
         "class": "shipment_status"},
        {"query": "running shoes", "context": None,
         "gold_plan": 'Step 1: prod_search(keywords="running shoes")',
         "class": "product_search"},
        {"query": "hi", "context": None,
         "gold_plan": "Step 1: no_retrieval()", "class": "no_retrieval"},
    ]
    pred_rows = [{"plan": row["gold_plan"]} for row in gold_rows]
    if mutate:
        mutate(pred_rows)
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text("\n".join(json.dumps(r) for r in gold_rows) + "\n")
    pred.write_text("\n".join(json.dumps(r) for r in pred_rows) + "\n")
    return gold, pred


class TestEval:
    def test_perfect_predictions(self, tmp_path, capsys):
        gold, pred = write_gold_and_pred(tmp_path)
        assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tool_accuracy"] == 1.0
        assert report["argument_accuracy"] == 1.0

    def test_omitted_tool_reported(self, tmp_path, capsys):
        gold, pred = write_gold_and_pred(tmp_path)
        main(["eval", "--pred", str(pred), "--gold", str(gold),
              "--omitted-tool", "prod_qna"])
        report = json.loads(capsys.readouterr().out)
        assert report["instruction_following"] == 1.0

    def test_non_ascii_digit_in_prediction_scores_invalid(self, tmp_path, capsys):
        def mutate(rows):
            rows[1]["plan"] = 'Step 1: prod_search\u00b2(keywords="running shoes")'

        gold, pred = write_gold_and_pred(tmp_path, mutate)
        assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["confusion"]["product_search"]["invalid"] == 1

    def test_length_mismatch_is_domain_error(self, tmp_path, capsys):
        gold, pred = write_gold_and_pred(tmp_path)
        pred.write_text(pred.read_text().splitlines()[0] + "\n")
        assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 1

    def test_report_file_written(self, tmp_path, capsys):
        gold, pred = write_gold_and_pred(tmp_path)
        out = tmp_path / "report.json"
        main(["eval", "--pred", str(pred), "--gold", str(gold), "--out", str(out)])
        assert json.loads(out.read_text())["tool_accuracy"] == 1.0

    def test_report_json_is_pinned(self, tmp_path, capsys):
        def mutate(rows):
            rows[1]["plan"] = "Step 1: no_retrieval()"

        gold, pred = write_gold_and_pred(tmp_path, mutate)
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(pred), "--gold", str(gold),
                     "--omitted-tool", "prod_qna", "--out", str(out)]) == 0
        assert out.read_text() == PINNED_REPORT
        assert capsys.readouterr().out == PINNED_REPORT

    def test_unknown_gold_tool_names_the_gold_line(self, tmp_path, capsys):
        gold, pred = write_gold_and_pred(tmp_path)
        gold.write_text(gold.read_text().replace("prod_search(", "compare_prices("))
        assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 2
        err = capsys.readouterr().err
        assert f"{gold}: line 2.gold_plan: " in err
        assert "'compare_prices'" in err
        assert "Traceback" not in err

    def test_a_failing_eval_reads_its_gold_file_once(
        self, tmp_path, capsys, monkeypatch
    ):
        gold, pred = write_gold_and_pred(tmp_path)
        gold.write_text(gold.read_text().replace("prod_search(", "compare_prices("))
        reads = count_reads(monkeypatch)
        assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 2
        assert f"{gold}: line 2.gold_plan: " in capsys.readouterr().err
        assert reads[gold] == 1

    def test_a_gold_plan_missing_a_parameter_names_the_gold_line(
        self, tmp_path, capsys
    ):
        # gold plans are held to the rule forge tasks are held to
        gold, pred = write_gold_and_pred(tmp_path)
        row = {"query": "does it run small", "context": None,
               "gold_plan": 'Step 1: prod_qna(query="size")', "class": "product_qna"}
        gold.write_text(json.dumps(row) + "\n")
        pred.write_text(json.dumps({"plan": row["gold_plan"]}) + "\n")
        assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: bad input: {gold}: line 1.gold_plan: MissingParam: "
            "step 1: prod_qna is missing required parameter 'product_id'\n"
        )

    def test_unknown_gold_class_names_the_gold_line(self, tmp_path, capsys):
        gold, pred = write_gold_and_pred(tmp_path)
        gold.write_text(gold.read_text().replace('"no_retrieval"}', '"no_retrievall"}'))
        assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{gold}: line 3.class: " in captured.err
        assert "'no_retrievall'" in captured.err
        assert "Traceback" not in captured.err

    def test_the_gold_reader_reads_every_record_and_names_a_bad_line(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        rows = [
            {"query": "hi", "context": "Mug", "gold_plan": "Step 1: no_retrieval()",
             "class": "no_retrieval"},
            {"query": "shoes", "gold_plan": 'Step 1: prod_search(keywords="shoes")',
             "class": "product_search"},
        ]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert _by_line(str(path), GoldExample.from_record) == {
            "line 1": GoldExample(
                QueryInput("hi", "Mug"), parse_plan("Step 1: no_retrieval()"),
                "no_retrieval",
            ),
            "line 2": GoldExample(
                QueryInput("shoes"), parse_plan('Step 1: prod_search(keywords="shoes")'),
                "product_search",
            ),
        }
        path.write_text(json.dumps(rows[0]) + "\n" + json.dumps({"query": "x"}) + "\n")
        with pytest.raises(SchemaError, match="line 2.gold_plan: missing field"):
            _by_line(str(path), GoldExample.from_record)

    def test_unknown_omitted_tool_is_usage_error(self, tmp_path, capsys):
        gold, pred = write_gold_and_pred(tmp_path)
        assert main(["eval", "--pred", str(pred), "--gold", str(gold),
                     "--omitted-tool", "compare_prices"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--omitted-tool: unknown tool 'compare_prices'" in captured.err


# ``reaper eval`` output on write_gold_and_pred's files with the second
# prediction answered by no_retrieval, as first written
PINNED_REPORT = """\
{
  "argument_accuracy": 0.5,
  "confusion": {
    "no_retrieval": {
      "no_retrieval": 1
    },
    "product_search": {
      "no_retrieval": 1
    },
    "shipment_status": {
      "shipment_status": 1
    }
  },
  "instruction_following": 1.0,
  "per_class": {
    "no_retrieval": {
      "f1": 0.6666666666666666,
      "precision": 0.5,
      "recall": 1.0,
      "support": 1
    },
    "product_search": {
      "f1": 0.0,
      "precision": 0.0,
      "recall": 0.0,
      "support": 1
    },
    "shipment_status": {
      "f1": 1.0,
      "precision": 1.0,
      "recall": 1.0,
      "support": 1
    }
  },
  "tool_accuracy": 0.6666666666666666
}
"""


MALFORMED_LINES = {
    "task-not-an-object": ("tasks", "[1,2]"),
    "task-context-not-a-string": (
        "tasks",
        json.dumps({"query": "q", "context": 5, "plan": "Step 1: no_retrieval()"}),
    ),
    "prediction-plan-not-a-string": ("pred", json.dumps({"plan": 5})),
    "gold-plan-unparseable": (
        "gold",
        json.dumps({"query": "q", "context": None,
                    "gold_plan": "Step 1 no_retrieval", "class": "no_retrieval"}),
    ),
    "generic-record-not-an-object": ("generic", "[1]"),
}


@pytest.mark.parametrize(
    "target, bad_line", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys()
)
def test_malformed_jsonl_line_is_usage_error_naming_file_and_line(
    tmp_path, capsys, target, bad_line
):
    tasks = tmp_path / "tasks.jsonl"
    write_tasks(tasks, 2)
    gold, pred = write_gold_and_pred(tmp_path)
    generic = tmp_path / "generic.jsonl"
    generic.write_text(json.dumps({"prompt": "p", "target": "t"}) + "\n")
    bad = {"tasks": tasks, "gold": gold, "pred": pred, "generic": generic}[target]
    lines = bad.read_text().splitlines() + [bad_line]
    bad.write_text("\n".join(lines) + "\n")
    if target in ("gold", "pred"):
        argv = ["eval", "--pred", str(pred), "--gold", str(gold)]
    else:
        argv = ["forge", "--tasks", str(tasks), "--out", str(tmp_path / "t.jsonl"),
                "--generic-pool", str(generic)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: line {len(lines)}" in err
    assert "Traceback" not in err


# Characters that str.splitlines() breaks a line at but JSON keeps raw inside
# a string, as json.dumps(..., ensure_ascii=False) and the forge write them.
UNICODE_BREAKS = {"U+2028": "\u2028", "U+2029": "\u2029", "U+0085": "\x85"}


@pytest.mark.parametrize("char", UNICODE_BREAKS.values(), ids=UNICODE_BREAKS.keys())
class TestUnicodeLineBreaks:
    def forge(self, tmp_path, char, *extra):
        tasks = tmp_path / "tasks.jsonl"
        record = {"query": f"red{char}shoes", "context": None,
                  "plan": f'Step 1: prod_search(keywords="red{char}shoes")'}
        tasks.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        out = tmp_path / "t.jsonl"
        code = main(["forge", "--tasks", str(tasks), "--out", str(out),
                     "--tasks-per-query", "2", *extra])
        return code, out

    def test_task_query_is_read_whole(self, tmp_path, capsys, char):
        code, out = self.forge(tmp_path, char, "--generic-fraction", "0")
        assert code == 0, capsys.readouterr().err
        assert char in out.read_text(encoding="utf-8")
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").split("\n") if line]
        [primary] = [r for r in records if r["task_kind"] == "primary"]
        assert f"Query: red{char}shoes" in primary["prompt"]

    def test_forge_output_reads_back_as_a_generic_pool(self, tmp_path, capsys, char):
        code, first = self.forge(tmp_path, char, "--generic-fraction", "0")
        assert code == 0, capsys.readouterr().err
        pool = tmp_path / "pool.jsonl"
        first.rename(pool)
        code, out = self.forge(tmp_path, char, "--generic-pool", str(pool))
        assert code == 0, capsys.readouterr().err
        generic = [json.loads(line) for line in out.read_text(encoding="utf-8").split("\n")
                   if line and json.loads(line)["task_kind"] == "generic"]
        assert len(generic) == 2
        assert all(char in r["prompt"] for r in generic)

    def test_line_numbers_count_newlines_only(self, tmp_path, capsys, char):
        tasks = tmp_path / "tasks.jsonl"
        good = {"query": f"red{char}shoes", "context": None, "plan": "Step 1: no_retrieval()"}
        tasks.write_text(json.dumps(good, ensure_ascii=False) + "\n{\n", encoding="utf-8")
        assert main(["forge", "--tasks", str(tasks), "--out", str(tmp_path / "t.jsonl")]) == 2
        assert f"{tasks}: line 2: not valid JSON" in capsys.readouterr().err

    def test_plan_file_string_literal_is_read_whole(self, tmp_path, capsys, char):
        plans = tmp_path / "plans.txt"
        plans.write_text(
            f'Step 1: prod_search(keywords="red{char}shoes")\n\nStep 1: no_retrieval()\n',
            encoding="utf-8",
        )
        assert main(["validate", str(plans)]) == 0
        assert "checked 2 plan(s): clean" in capsys.readouterr().out


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_crlf_and_cr_end_lines(tmp_path, capsys, newline):
    tasks = tmp_path / "tasks.jsonl"
    good = json.dumps({"query": "q", "context": None, "plan": "Step 1: no_retrieval()"})
    tasks.write_bytes(f"{good}{newline}{{{newline}".encode())
    assert main(["forge", "--tasks", str(tasks), "--out", str(tmp_path / "t.jsonl")]) == 2
    assert f"{tasks}: line 2: not valid JSON" in capsys.readouterr().err
    plans = tmp_path / "plans.txt"
    text = GALAXY_PLAN_TEXT + "\n\nStep 1: no_retrieval()\n"
    plans.write_bytes(text.replace("\n", newline).encode())
    assert main(["validate", str(plans)]) == 0
    assert "checked 2 plan(s): clean" in capsys.readouterr().out


def forge_with_generic_pool(tmp_path, generic_records):
    """Forge two tasks mixed with the whole of ``generic_records``; returns
    the exit code, the generic pool's path and the written records."""
    tasks = tmp_path / "tasks.jsonl"
    write_tasks(tasks, 2)
    generic = tmp_path / "generic.jsonl"
    generic.write_text("".join(json.dumps(r) + "\n" for r in generic_records))
    out = tmp_path / "t.jsonl"
    code = main(["forge", "--tasks", str(tasks), "--out", str(out),
                 "--generic-pool", str(generic), "--generic-fraction", "1.0"])
    records = [json.loads(line) for line in out.read_text().splitlines()] if code == 0 else []
    return code, generic, records


def test_generic_id_absent_or_null_takes_the_default(tmp_path, capsys):
    code, _, records = forge_with_generic_pool(tmp_path, [
        {"prompt": "p0", "target": "t0"},
        {"prompt": "p1", "target": "t1", "id": None},
        {"prompt": "p2", "target": "t2", "id": "mine"},
    ])
    assert code == 0
    generic = {r["prompt"]: r["source_id"] for r in records if r["task_kind"] == "generic"}
    assert generic == {"p0": "gen-0000", "p1": "gen-0001", "p2": "mine"}


@pytest.mark.parametrize("bad_id", [7, ["x"], "", True, {"id": "x"}, 1.5],
                         ids=["int", "list", "empty", "bool", "object", "float"])
def test_generic_id_that_is_not_a_non_empty_string_is_usage_error(
    tmp_path, capsys, bad_id
):
    code, generic, _ = forge_with_generic_pool(tmp_path, [
        {"prompt": "p0", "target": "t0", "id": "fine"},
        {"prompt": "p1", "target": "t1", "id": bad_id},
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{generic}: line 2.id" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "plan", [GALAXY_PLAN_TEXT, 'Step 1: prod_qna(query="size")'],
    ids=["clean-task", "task-breaking-the-rule"],
)
def test_a_malformed_generic_pool_exits_2_before_any_record(
    tmp_path, capsys, monkeypatch, plan
):
    # the pool is read right after the task file, before any rule check
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(json.dumps({"query": "does it run small", "plan": plan}) + "\n")
    generic = tmp_path / "generic.jsonl"
    rows = [{"prompt": "p", "target": "t"}, {"prompt": "", "target": "t"}]
    generic.write_text("".join(json.dumps(row) + "\n" for row in rows))
    calls = []
    generate = pipeline.generate_records

    def counting(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(pipeline, "generate_records", counting)
    out = tmp_path / "t.jsonl"
    argv = ["forge", "--tasks", str(tasks), "--out", str(out), "--generic-pool", str(generic)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad input: {generic}: line 2.prompt: must be non-empty\n"
    assert calls == []
    assert sorted(tmp_path.iterdir()) == [generic, tasks]
    if plan == GALAXY_PLAN_TEXT:  # the count sees the calls of a run that forges
        generic.write_text(json.dumps(rows[0]) + "\n")
        assert main(argv) == 0
        assert len(calls) == 1


@pytest.mark.parametrize("command, option", [
    ("forge", "--out"), ("forge", "--manifest"), ("eval", "--out"),
])
def test_an_output_path_that_is_a_directory_exits_2_before_any_work(
    tmp_path, capsys, command, option
):
    tasks = tmp_path / "tasks.jsonl"
    write_tasks(tasks, 2)
    gold, pred = write_gold_and_pred(tmp_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    forge = ["forge", "--tasks", str(tasks), "--out"]
    argv = {
        ("forge", "--out"): [*forge, str(folder)],
        ("forge", "--manifest"): [*forge, str(tmp_path / "out.jsonl"), "--manifest", str(folder)],
        ("eval", "--out"): ["eval", "--pred", str(pred), "--gold", str(gold), "--out", str(folder)],
    }[command, option]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output path is a directory: {folder}\n"
    assert sorted(tmp_path.rglob("*")) == before  # no --out file, no .tmp file


@pytest.mark.parametrize("case", [
    "forge --out names --tasks", "forge --manifest names --out",
    "forge --manifest names --tasks", "eval --out names --gold",
])
def test_an_output_naming_an_input_or_another_output_exits_2_before_any_work(
    tmp_path, capsys, case
):
    tasks = tmp_path / "tasks.jsonl"
    write_tasks(tasks, 2)
    gold, pred = write_gold_and_pred(tmp_path)
    out = tmp_path / "out.jsonl"
    forge = ["forge", "--tasks", str(tasks)]
    argv, named, error = {
        "forge --out names --tasks": (
            [*forge, "--out", str(tasks)], tasks, "output path is also an input"
        ),
        "forge --manifest names --out": (
            [*forge, "--out", str(out), "--manifest", f"{tmp_path}/./{out.name}"],
            f"{tmp_path}/./{out.name}", "output path is given twice",
        ),
        "forge --manifest names --tasks": (
            [*forge, "--out", str(out), "--manifest", str(tasks)], tasks,
            "output path is also an input",
        ),
        "eval --out names --gold": (
            ["eval", "--pred", str(pred), "--gold", str(gold), "--out", str(gold)], gold,
            "output path is also an input",
        ),
    }[case]
    before = {path: path.read_bytes() for path in tmp_path.rglob("*")}
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad input: {error}: {named}\n"
    # every input's bytes unchanged, and no output or .tmp file made
    assert {path: path.read_bytes() for path in tmp_path.rglob("*")} == before


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this source tree."""
    source_root = Path(reaper.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(source_root)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


def test_importing_the_cli_does_not_load_requests():
    code = "import sys, reaper.cli; sys.exit('requests' in sys.modules)"
    assert run_fresh(code).returncode == 0


# what the validate and plan subcommands must never import
FORGE_AND_EVAL_ONLY = ("numpy", "reaper.executor", "reaper.evaluation")
# what validate must not import either: it builds no prompt
PLAN_ONLY = ("reaper.prompt", "reaper.gateway")


def test_validate_and_plan_load_no_numpy_thread_pool_or_evaluation(tmp_path):
    plans = tmp_path / "plan.txt"
    plans.write_text(GALAXY_PLAN_TEXT + "\n")
    code = f"""
import sys
import threading
import reaper.cli

def check(after):
    loaded = [name for name in {FORGE_AND_EVAL_ONLY!r} if name in sys.modules]
    assert not loaded, f"{{after}} loaded {{loaded}}"

check("import reaper.cli")
assert reaper.cli.main(["validate", {str(plans)!r}]) == 0
check("reaper validate")
loaded = [name for name in {PLAN_ONLY!r} if name in sys.modules]
assert not loaded, f"reaper validate loaded {{loaded}}"
assert reaper.cli.main(["plan", "how much memory is on my galaxy phone"]) == 0
check("reaper plan")
assert threading.active_count() == 1, threading.enumerate()
"""
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


def test_eval_does_not_load_the_executor(tmp_path):
    gold, pred = write_gold_and_pred(tmp_path)
    code = f"""
import sys
import reaper.cli

assert reaper.cli.main(["eval", "--pred", {str(pred)!r}, "--gold", {str(gold)!r}]) == 0
assert "reaper.executor" not in sys.modules, "reaper eval loaded reaper.executor"
"""
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


def test_bench_runs_a_fan_out_plan_inline_and_starts_no_thread(tmp_path):
    plans = tmp_path / "plan.txt"
    plans.write_text(
        'Step 1: prod_search(keywords="mug")\n'
        'Step 2: prod_qna(product_id=$1, query="size")\n'
        "Step 3: review_summary(product_id=$1)\n"
    )
    code = f"""
import threading
import reaper.cli
import reaper.executor

assert reaper.cli.main(["bench", {str(plans)!r}]) == 0
assert threading.active_count() == 1, threading.enumerate()
assert reaper.executor._pool is None
"""
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


# what neither ``import reaper.cli`` nor the shipped files may load
HTTP_AND_YAML = ("urllib.request", "http.client", "yaml", "requests")


def test_the_shipped_registries_and_pool_load_no_yaml():
    code = f"""
import sys
import reaper.cli
from reaper.prompt import load_example_pool
from reaper.registry import default_registry, extended_registry

def check(after):
    loaded = [name for name in {HTTP_AND_YAML!r} if name in sys.modules]
    assert not loaded, f"{{after}} loaded {{loaded}}"

check("import reaper.cli")
for load in (default_registry, extended_registry, load_example_pool):
    load()
    check(f"{{load.__name__}}()")
"""
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


def test_the_http_adapters_import_neither_requests_nor_yaml():
    def handler(path, body):
        if path == "/complete":
            return 200, {"text": "Step 1: no_retrieval()"}
        if path == "/embed":
            return 200, {"vectors": [[1.0, 0.0]], "dim": 2}
        return 200, {"text": "evidence"}

    with json_server(handler) as url:
        code = f"""
import sys
from reaper import HttpRetriever, RemoteBackend, RemoteEmbedder

assert RemoteBackend({url!r}).complete("hi")[0] == "Step 1: no_retrieval()"
assert HttpRetriever({url!r}).invoke("prod_search", {{"keywords": "mug"}})[0]
assert RemoteEmbedder({url!r}).embed("mug").tolist() == [1.0, 0.0]
loaded = [name for name in ("requests", "yaml") if name in sys.modules]
assert not loaded, loaded
"""
        result = run_fresh(code)
    assert result.returncode == 0, result.stderr


def test_with_numpy_alone_json_files_work_and_a_yaml_registry_names_the_extra(tmp_path):
    registry = tmp_path / "tools.yaml"
    registry.write_text(yaml.safe_dump(default_tools_data(), sort_keys=False))
    plans = tmp_path / "plan.txt"
    plans.write_text(GALAXY_PLAN_TEXT + "\n")
    forge = ["forge", "--tasks", str(GOLDEN_TASKS), "--out", str(tmp_path / "t.jsonl")]
    code = f"""
import sys
sys.modules["yaml"] = sys.modules["requests"] = None  # as if neither were installed
from reaper.cli import main

assert main({forge!r}) == 0
sys.exit(main(["validate", {str(plans)!r}, "--registry", {str(registry)!r}]))
"""
    result = run_fresh(code)
    assert result.returncode == 2, result.stderr
    assert f"{registry}: " in result.stderr
    assert "reaper-toolkit[yaml]" in result.stderr
    assert "Traceback" not in result.stderr


def test_a_json_dumps_copy_of_the_shipped_registry_with_an_emoji_loads(
    tmp_path, capsys
):
    # json.dumps escapes a character outside the BMP as a surrogate pair,
    # which libyaml rejects; the one reader reads the text as JSON
    data = default_tools_data()
    data["tools"][0]["description"] += " \U0001f4e6"
    registry = tmp_path / "tools.json"
    registry.write_text(json.dumps(data, indent=2))
    assert "\\ud83d\\udce6" in registry.read_text()
    plans = tmp_path / "plan.txt"
    plans.write_text(GALAXY_PLAN_TEXT + "\n")
    assert main(["validate", str(plans), "--registry", str(registry)]) == 0
    loaded = load_registry(registry).entry(data["tools"][0]["canonical_name"])
    assert loaded[0].description.endswith(" \U0001f4e6")


def test_a_lone_surrogate_in_a_json_registry_exits_2_naming_the_file(tmp_path, capsys):
    data = default_tools_data()
    data["tools"][0]["description"] += " \ud83d"
    registry = tmp_path / "tools.json"
    registry.write_text(json.dumps(data, indent=2))
    plans = tmp_path / "plan.txt"
    plans.write_text(GALAXY_PLAN_TEXT + "\n")
    out = tmp_path / "t.jsonl"
    for argv in (
        ["validate", str(plans)],
        ["forge", "--tasks", str(GOLDEN_TASKS), "--out", str(out)],
        ["plan", "where is my order"],
    ):
        assert main([*argv, "--registry", str(registry)]) == 2, argv
        err = capsys.readouterr().err
        assert f"{registry}: tools[0].description: lone surrogate '\\ud83d'" in err
        assert "Traceback" not in err
    assert not out.exists()


def test_a_lone_surrogate_in_a_task_exits_2_naming_its_line(tmp_path, capsys):
    # before any record is written, which no UTF-8 file could hold
    tasks = tmp_path / "tasks.jsonl"
    row = {"query": "where is \ud83d my order", "plan": "Step 1: no_retrieval()"}
    tasks.write_text(json.dumps(row) + "\n")
    out = tmp_path / "t.jsonl"
    assert main(["forge", "--tasks", str(tasks), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{tasks}: line 1.query: lone surrogate '\\ud83d'" in err
    assert not out.exists()


def test_validate_plan_and_forge_with_the_shipped_defaults_load_no_yaml(tmp_path):
    plans = tmp_path / "plan.txt"
    plans.write_text(GALAXY_PLAN_TEXT + "\n")
    forge = ["forge", "--tasks", str(GOLDEN_TASKS), "--out", str(tmp_path / "t.jsonl")]
    code = f"""
import sys
from reaper.cli import main

for argv in ({["validate", str(plans)]!r}, ["plan", "where is my order"], {forge!r}):
    assert main(argv) == 0, argv
    assert "yaml" not in sys.modules, f"reaper {{argv[0]}} loaded yaml"
"""
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


def test_a_named_registry_yaml_loads_yaml(tmp_path):
    path = tmp_path / "tools.yaml"
    path.write_text(yaml.safe_dump(default_tools_data(), sort_keys=False))
    code = f"""
import sys
from reaper.registry import load_registry

assert len(load_registry({str(path)!r})) == 6
assert "yaml" in sys.modules
"""
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


def test_public_names_resolve_on_first_access():
    code = """
import sys
import reaper
import reaper.forge

for package in (reaper, reaper.forge):
    assert set(package.__all__) <= set(dir(package)), package.__name__
    for name in package.__all__:
        getattr(package, name)
    try:
        package.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc), exc
    else:
        raise AssertionError(f"{package.__name__}.no_such_name resolved")
assert reaper.parse_plan is sys.modules["reaper.plan"].parse_plan
assert "numpy" not in sys.modules, "numpy loaded before the first embedding"
"""
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


def test_forge_loads_numpy_and_keeps_its_output(tmp_path):
    out = tmp_path / "train.jsonl"
    argv = ["forge", "--tasks", str(GOLDEN_TASKS), "--out", str(out), *GOLDEN_ARGS]
    code = f"""
import sys
from reaper.cli import main

assert main({argv!r}) == 0
assert "numpy" in sys.modules
"""
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_OUT_SHA256


class TestBench:
    def test_three_step_chain_defaults(self, tmp_path, capsys):
        plans = tmp_path / "plan.txt"
        plans.write_text(CHAIN_PLAN + "\n")
        assert main(["bench", str(plans)]) == 0
        table = capsys.readouterr().out
        row = [x for x in table.splitlines()[-1].split() if x]
        assert row[1] == "3"
        assert float(row[2]) == 357.0
        assert float(row[3]) == 6150.0
        assert abs(float(row[4]) - 17.23) < 0.01

    def test_single_step_speedup_formula(self, tmp_path, capsys):
        plans = tmp_path / "plan.txt"
        plans.write_text('Step 1: prod_search(keywords="mug")\n')
        main(["bench", str(plans), "--tool-latency", "50"])
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert abs(float(row[4]) - (2000 + 50) / (207 + 50)) < 0.01

    def test_invalid_plan_is_domain_error(self, tmp_path, capsys):
        plans = tmp_path / "plan.txt"
        plans.write_text("Step 1: compare()\n")
        assert main(["bench", str(plans)]) == 1

    def test_unparseable_block_is_named(self, tmp_path, capsys):
        plans = tmp_path / "plan.txt"
        plans.write_text(CHAIN_PLAN + "\n\nStep 1 broken\n")
        assert main(["bench", str(plans)]) == 1
        assert "plan 2: parse error" in capsys.readouterr().out

    @NO_PLAN
    def test_a_file_with_no_plan_is_named(self, tmp_path, capsys, text):
        plans = tmp_path / "plan.txt"
        plans.write_text(text)
        assert main(["bench", str(plans)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: bad input: {plans}: the file holds no plan\n")


    @pytest.mark.parametrize(
        "option, value",
        [
            ("--llm-single", "-100"),
            ("--llm-single", "nan"),
            ("--llm-step", "inf"),
            ("--tool-latency", "-5"),
            ("--tool-latency", "inf"),
        ],
    )
    def test_latency_that_is_negative_or_not_finite_is_usage_error(
        self, tmp_path, capsys, option, value
    ):
        plans = tmp_path / "plan.txt"
        plans.write_text(TWO_STEP_PLAN + "\n")
        assert main(["bench", str(plans), option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option} must be a finite number of 0 or more" in captured.err

    def test_zero_single_shot_total_is_usage_error(self, tmp_path, capsys):
        # the speedup would divide by zero
        plans = tmp_path / "plan.txt"
        plans.write_text(TWO_STEP_PLAN + "\n")
        args = ["--llm-single", "0", "--llm-step", "0", "--tool-latency", "0"]
        assert main(["bench", str(plans), *args]) == 2
        assert "speedup is undefined" in capsys.readouterr().err

    def test_zero_latencies_are_accepted(self, tmp_path, capsys):
        plans = tmp_path / "plan.txt"
        plans.write_text(TWO_STEP_PLAN + "\n")
        assert main(["bench", str(plans), "--llm-step", "0", "--tool-latency", "0"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert [float(x) for x in row[2:]] == [207.0, 0.0, 0.0]


class TestPlan:
    def test_stub_backend_matches_pool_query(self, capsys):
        assert main(["plan", "where is my coffee maker order"]) == 0
        out = capsys.readouterr().out
        assert 'Step 1: shipment_status(query="coffee maker order")' in out

    def test_stub_backend_falls_back_to_default(self, capsys):
        assert main(["plan", "an unmatched question"]) == 0
        assert "Step 1: no_retrieval()" in capsys.readouterr().out

    def test_remote_backend_without_url_is_domain_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REAPER_BACKEND_URL", raising=False)
        assert main(["plan", "hello", "--backend", "remote"]) == 1

    def test_an_empty_query_is_a_usage_error_before_any_backend(
        self, capsys, monkeypatch
    ):
        monkeypatch.delenv("REAPER_BACKEND_URL", raising=False)
        assert main(["plan", "", "--backend", "remote"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad input: query must be non-empty\n"

    def test_negative_example_count_is_usage_error(self, capsys):
        # a negative count would slice off the end of the pool
        assert main(["plan", "where is my order", "--examples", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--examples must be 0 or more, got -1" in captured.err

    def test_a_plan_the_registry_cannot_run_exits_1(self, tmp_path, capsys):
        # the stub's fallback names a tool that a registry of new tools lacks
        registry = write_extension_registry(tmp_path / "ext.yaml")
        assert main(["plan", "ink for my printer", "--registry", str(registry)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "Step 1: no_retrieval()\n"
        assert (
            "UnknownTool: step 1: unknown tool 'no_retrieval'"
            in captured.err.splitlines()
        )
        assert "Traceback" not in captured.err

    def test_zero_examples_is_accepted(self, capsys):
        assert main(["plan", "an unmatched question", "--examples", "0"]) == 0
        assert "Step 1: no_retrieval()" in capsys.readouterr().out

    def test_parser_spells_out_the_library_defaults(self, capsys):
        from reaper.cli import build_parser
        from reaper.gateway import BACKEND_URL_ENV
        from reaper.prompt import DEFAULT_EXAMPLE_COUNT

        assert build_parser().parse_args(["plan", "q"]).examples == DEFAULT_EXAMPLE_COUNT
        with pytest.raises(SystemExit):
            main(["plan", "--help"])
        assert f"${BACKEND_URL_ENV}" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["not-a-command"])
    assert excinfo.value.code == 2
