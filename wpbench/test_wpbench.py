"""Tests of the benchmark's own parts: inputs, answer check, tracer.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest wpbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracle  # noqa: E402
import program  # noqa: E402
import tracer as tracing  # noqa: E402
from repro.service.executor import SCORING_PRESETS  # noqa: E402
from repro.system import SearchSystem  # noqa: E402
from repro.text.document import Document  # noqa: E402

ROOT = os.path.dirname(HERE)

SMALL = {
    "ask_offline": {"docs": 400, "pool": 80, "stream": 100},
    "ingest_query": {
        "docs": 200,
        "pool": 80,
        "stream": 40,
        "batch": 4,
        "delete_every": 5,
        "steps": 40,
    },
    "serve_sharded": {
        "docs": 300,
        "pool": 90,
        "stream": 100,
        "popularity_skew": 0.6,
    },
}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(inputs, "SHAPES", SMALL)


# -- inputs ------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_inputs_are_a_pure_function_of_the_seed(small, workload):
    first = inputs.generate(workload, 7)
    assert first == inputs.generate(workload, 7)
    assert first != inputs.generate(workload, 8)
    json.dumps(first)  # the program receives them as JSON


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_no_query_plans_online(small, workload):
    system = SearchSystem()
    for q in inputs.generate(workload, 3)["queries"]:
        _query, matcher = system._plan(q["text"])
        assert matcher is None, q["text"]


def test_occurrences_are_head_words_or_synonyms(small):
    concepts = inputs.concept_table()
    owner = {word: index for index, members in enumerate(concepts) for word in members}
    assert len(owner) == sum(len(members) for members in concepts)
    words = set()
    for _doc_id, text in inputs.generate("ask_offline", 5)["documents"]:
        for word in text.split():
            assert word in owner or word.startswith("zq")
            words.add(word)
    heads = {members[0] for members in concepts}
    assert words & heads and (words & set(owner)) - heads


def test_hot_class_uses_the_highest_measured_df_concepts(small):
    data = inputs.generate("ask_offline", 11)
    concepts = inputs.concept_table()
    df = inputs.document_frequencies(data["documents"], concepts)
    top = sorted(range(len(concepts)), key=lambda i: (-df[i], i))[: inputs.HOT_CONCEPTS]
    hot_words = {concepts[i][0] for i in top}
    hot = [q for q in data["queries"] if q["hot"]]
    assert len(hot) == 50  # every 2-4 combination of the top six
    for q in data["queries"]:
        words = {t.strip() for t in q["text"].split(",")}
        assert words <= hot_words if q["hot"] else not words & hot_words
    assert {q["preset"] for q in data["queries"]} == set(inputs.PRESETS)


def test_writes_never_fail(small):
    data = inputs.generate("ingest_query", 2)
    live = {doc_id for doc_id, _ in data["documents"]}
    for write in data["writes"]:
        if write["op"] == "delete":
            assert write["doc_id"] in live
            live.remove(write["doc_id"])
        else:
            for doc_id, _ in write["documents"]:
                assert doc_id not in live
                live.add(doc_id)


# -- exact answer check ------------------------------------------------------------


def _ranked_log():
    data = inputs.generate("ask_offline", 4)
    system = SearchSystem()
    system.add(*(Document(i, t) for i, t in data["documents"]))
    log = []
    for index, q in enumerate(data["queries"]):
        ranked = system.ask(
            q["text"],
            top_k=data["top_k"],
            scoring=SCORING_PRESETS[q["preset"]](),
        )
        log.append({"q": index, "answer": oracle.encode(ranked)})
    return data, log


@pytest.fixture
def checked(small, monkeypatch):
    """A fast-path log and the object-path reference of the same asks."""
    data, log = _ranked_log()
    monkeypatch.setenv("REPRO_NO_DAAT", "1")
    monkeypatch.setenv("REPRO_NO_KERNELS", "1")
    reference = oracle.replay(data, log, 0, 1)
    return log, reference


def _with_tie(log):
    for entry in log:
        rows = entry["answer"]
        for a, b in zip(rows, rows[1:]):
            if a[1] == b[1]:
                return entry, rows.index(a)
    pytest.skip("no tied scores in this log")


def test_fast_path_agrees_with_the_reference(checked):
    log, reference = checked
    assert oracle.compare("ask_offline", log, reference) == (len(log), 0, [])


def test_one_ulp_score_perturbation_fails(checked):
    log, reference = checked
    entry = next(e for e in log if e["answer"])
    entry["answer"][0][1] = math.nextafter(entry["answer"][0][1], math.inf)
    assert oracle.compare("ask_offline", log, reference)[1] == 1


def test_swapped_tie_fails(checked):
    log, reference = checked
    entry, at = _with_tie(log)
    rows = entry["answer"]
    rows[at], rows[at + 1] = rows[at + 1], rows[at]
    assert oracle.compare("ask_offline", log, reference)[1] == 1


def test_moved_matchset_location_fails(checked):
    log, reference = checked
    entry = next(e for e in log if e["answer"])
    entry["answer"][0][2][0] += 1
    assert oracle.compare("ask_offline", log, reference)[1] == 1


def test_degraded_reply_fails_even_when_exact(checked):
    log, reference = checked
    log[0]["bad"] = "degraded"
    assert oracle.compare("ask_offline", log, reference)[1] == 1


def test_http_answers_compare_without_matchsets(checked):
    log, reference = checked
    wire = [{"q": e["q"], "answer": [row[:2] for row in e["answer"]]} for e in log]
    assert oracle.compare("serve_sharded", wire, reference)[1] == 0


def test_reference_refuses_fast_paths(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_NO_DAAT", raising=False)
    monkeypatch.setenv("REPRO_NO_KERNELS", "1")
    code = oracle.main(
        ["--inputs", "x", "--log", "y", "--part", "0", "--parts", "1",
         "--out", str(tmp_path / "z")]
    )
    assert code == 3


# -- tracer ------------------------------------------------------------------------


def test_restore_leaves_every_wrapped_function_identical():
    sites = tracing.patch_sites()
    before = [tracing._raw(owner, attr) for owner, attr in sites]
    tracer = tracing.Tracer()
    with tracer.installed():
        during = [tracing._raw(owner, attr) for owner, attr in sites]
        assert all(a is not b for a, b in zip(before, during))
        with tracer.suspended():
            assert all(
                tracing._raw(owner, attr) is original
                for (owner, attr), original in zip(sites, before)
            )
    after = [tracing._raw(owner, attr) for owner, attr in sites]
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer._wrap("inner", lambda: sum(range(20_000)))
    outer = tracer._wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    spans = {name: [] for name in ("inner", "outer")}
    for span in tracer.spans:
        spans[span[0]].append(span)
    (outer_span,) = spans["outer"]
    children = sum(span[2] for span in spans["inner"])
    assert outer_span[3] == outer_span[2] - children
    assert all(span[5] == "outer" for span in spans["inner"])


# -- timing ------------------------------------------------------------------------


def test_stopwatch_takes_out_the_stolen_share_of_busy_ticks(monkeypatch):
    ticks = iter([(1_000, 40), (1_200, 90)])
    monkeypatch.setattr(program, "busy_ticks", lambda: next(ticks))
    assert program.Stopwatch().factor() == 1.0 - 50 / 200


def test_rounds_take_each_operations_median_over_the_rounds(monkeypatch):
    class Steady:
        def factor(self):
            return 0.5

    monkeypatch.setattr(program, "Stopwatch", Steady)
    monkeypatch.setitem(program.CLOSED_OPS, "ask_offline", 3)
    monkeypatch.setitem(program.OPEN_OPS, "ask_offline", 1)
    monkeypatch.setitem(program.ROUND_SECONDS, "ask_offline", 1.0)
    # Round 2 runs in a slow stretch; each operation keeps its median.
    closed = iter([[0.002, 0.004, 0.010], [0.020, 0.040, 0.100], [0.002, 0.006, 0.010]])
    opened = iter([[0.004], [0.040], [0.002]])
    seen = []

    def closed_phase(start, count):
        seen.append((start, count))
        latencies = next(closed)
        return latencies, sum(latencies)

    def open_phase(start, count, rate):
        seen.append((start, count))
        return next(opened), [0.0]

    figures, typical, flat, waits, late = program.rounds(
        "ask_offline", 3.0, closed_phase, open_phase
    )
    assert seen == [(0, 3), (3, 1)] * 3
    assert typical == [0.001, 0.003, 0.005]
    assert figures["query_p50_ms"] == pytest.approx(3.0)
    assert figures["open_p50_ms"] == pytest.approx(2.0)
    assert figures["throughput_qps"] == pytest.approx(3 / (0.018 * 0.5))
    assert len(flat) == 9 and len(waits) == 3 and len(late) == 3


# -- the benchmark contract --------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == program.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == program.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(program.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "wpbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    result = subprocess.run(
        [sys.executable, "wpbench/run.py", "--workload", "ask_offline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
