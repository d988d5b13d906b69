"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

_IO_IN = {"fileio.load_hierarchy", "fileio.load_scores", "fileio.align_columns"}
_EVAL = {"fileio.load_labels", "fileio.sha256_digest", "scores.as_probabilities",
         "taxonomy.cost_matrix", "risk.expected_costs", "risk.crm_rerank", "metrics.eval_report"}

# Spans each workload's command reaches at least once.
REACHES = {
    "compare-inat": _IO_IN | _EVAL | {"fileio.write_report_list", "scores.top_k", "ensemble.combine"},
    "crm-5k": _IO_IN | _EVAL | {"fileio.write_report"},
    "cascade-tall": _IO_IN | {"fileio.save_scores", "fileio.write_labels", "scores.as_probabilities",
                              "scores.top_k", "ensemble.combine"},
}


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in run.WORKLOADS.values()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, run.unit_of(n)) for n in run.per_layer_names()
    ]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert set(REACHES) == set(run.WORKLOADS)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(21)])[0] == 10.0
    assert run.tail([float(i) for i in range(101)])[0] == 90.0
    assert run.tail([3.0, 1.0, 2.0, 9.0])[0] == 2.5


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Each workload once untraced and once traced, at the default seed."""
    out = {}
    for w in run.WORKLOADS.values():
        work = str(tmp_path_factory.mktemp(w.name))
        os.makedirs(os.path.join(work, "out"))
        run.setup(w, run.DEFAULT_SEED, work, repeats=1)
        untraced = run.invoke(run.hieval_argv(w.command), work, os.path.join(work, "run.log"))
        assert untraced.exit_code == 0
        expected = run.digests(work, w.outputs)
        doc, synth_doc, wall = run.run_traced(w, run.DEFAULT_SEED, work, untraced.wall_s)
        out[w.name] = (doc, synth_doc, wall, expected, run.digests(work, w.outputs))
    return out


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_outputs_match_untraced_and_reference(traced_runs, name):
    _, _, _, expected, traced_digests = traced_runs[name]
    assert traced_digests == expected
    assert expected == run.load_references()[name][str(run.DEFAULT_SEED)]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_reached_span_fires_and_top_level_spans_cover_the_run(traced_runs, name):
    doc, synth_doc, wall, _, _ = traced_runs[name]
    fired = {s["name"] for s in doc["spans"]}
    assert REACHES[name] <= fired
    assert {"synth.gen_taxonomy", "synth.gen_instance"} <= {s["name"] for s in synth_doc["spans"]}
    assert run.top_level_share(doc) >= 0.9
    metrics = run.layer_metrics(doc, synth_doc, wall, wall)
    assert list(metrics) == run.per_layer_names()


def test_functions_are_wrapped_where_their_callers_bind_them(traced_runs):
    bindings = traced_runs["compare-inat"][0]["bindings"]
    assert "commands.eval_report" in bindings["metrics.eval_report"]
    assert "commands.as_probabilities" in bindings["scores.as_probabilities"]
    assert "metrics.top_k" in bindings["scores.top_k"]


def test_gate_rejects_broken_invariants(tmp_path):
    w = run.WORKLOADS["compare-inat"]
    work = str(tmp_path)
    os.makedirs(os.path.join(work, "out"))
    run.setup(w, 3, work, repeats=1)
    assert run.invoke(run.hieval_argv(w.command), work, os.path.join(work, "run.log")).exit_code == 0
    inputs = run.digests(work, run.input_files(work))
    assert run.check_outputs(w, work, inputs) == []

    table = os.path.join(work, "out", "table.json")
    with open(table) as f:
        doc = json.load(f)
    doc["reports"][1]["hier_dist_at_k"]["1"] += 1e-9
    with open(table, "w") as f:
        json.dump(doc, f)
    problems = run.check_outputs(w, work, inputs)
    assert len(problems) == 1 and "hd@1" in problems[0]

