"""Top-k document retrieval with upper-bound skipping (beyond the paper).

At corpus scale, most documents cannot reach the top-k floor; the cheap
co-location upper bound proves it without running their joins.  This
benchmark compares full ranking against the skipping retrieval on the
same corpus and asserts both the equivalence (spot-checked — the full
property test lives in tests/) and that a substantial fraction of joins
is skipped.  Alongside the human-readable report it writes a
machine-readable ``BENCH_topk_retrieval.json`` at the repository root
(same shape as ``BENCH_service_throughput.json``: an ``acceptance``
block plus measurements).
"""

import json
import pathlib
import random
import time

import pytest

from repro.core.match import MatchList
from repro.core.query import Query
from repro.core.scoring.presets import trec_max
from repro.retrieval.instrumentation import collect_join_stats
from repro.retrieval.topk_retrieval import rank_top_k

from conftest import save_report

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_topk_retrieval.json"

NUM_DOCS = 300


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(17)
    query = Query.of("a", "b", "c")
    docs = []
    for i in range(NUM_DOCS):
        # A few strong documents; mostly weak ones with low scores.
        strong = rng.random() < 0.05
        hi = 1.0 if strong else 0.3
        docs.append(
            (
                f"doc-{i:04d}",
                [
                    MatchList.from_pairs(
                        [
                            (rng.randint(0, 400), rng.uniform(0.02, hi))
                            for _ in range(rng.randint(1, 5))
                        ]
                    )
                    for _ in range(3)
                ],
            )
        )
    return query, docs


def test_full_ranking(benchmark, corpus):
    query, docs = corpus
    scoring = trec_max()
    benchmark.group = "top-k retrieval"
    benchmark.pedantic(
        lambda: rank_top_k(docs, query, scoring),
        rounds=1, iterations=1, warmup_rounds=1,
    )


def test_topk_with_skipping(benchmark, corpus):
    query, docs = corpus
    scoring = trec_max()
    benchmark.group = "top-k retrieval"
    result = benchmark.pedantic(
        lambda: rank_top_k(docs, query, scoring, 10),
        rounds=1, iterations=1, warmup_rounds=1,
    )
    with collect_join_stats() as stats:
        assert rank_top_k(docs, query, scoring, 10) == result
    full = rank_top_k(docs, query, scoring)
    assert [r.doc_id for r in result] == [r.doc_id for r in full[:10]]
    save_report(
        "topk_retrieval",
        "Top-k retrieval with upper-bound skipping\n"
        f"documents: {stats.documents_scanned}, joins run: {stats.joins_run}, "
        f"skipped: {stats.joins_skipped} "
        f"({stats.joins_skipped / stats.documents_scanned:.0%})",
    )
    assert stats.joins_skipped > NUM_DOCS * 0.3

    # Machine-readable drop: timed single passes of both loops.
    started = time.perf_counter()
    rank_top_k(docs, query, scoring)
    full_s = time.perf_counter() - started
    started = time.perf_counter()
    rank_top_k(docs, query, scoring, 10)
    topk_s = time.perf_counter() - started
    OUTPUT.write_text(
        json.dumps(
            {
                "benchmark": "topk_retrieval",
                "acceptance": {
                    "min_skip_fraction": 0.3,
                    "skip_fraction": stats.joins_skipped / stats.documents_scanned,
                    "passed": stats.joins_skipped > NUM_DOCS * 0.3,
                },
                "results": {
                    "documents": stats.documents_scanned,
                    "joins_run": stats.joins_run,
                    "joins_skipped": stats.joins_skipped,
                    "full_ranking_s": full_s,
                    "topk_skipping_s": topk_s,
                },
            },
            indent=2,
        )
        + "\n"
    )
