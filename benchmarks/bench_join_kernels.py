"""Columnar join kernels vs the object path: speedup and bound proof.

Times :func:`repro.core.api.best_matchset` on synthetic instances across
all three scoring families, list sizes and query widths, once through
the columnar kernels (:mod:`repro.core.kernels`) and once through the
original object path (``REPRO_NO_KERNELS=1``), asserting byte-identical
results on every measured instance.  Also proves, via the process-wide
:data:`repro.core.kernels.columnar.STATS` lowering counter, that a warm
:func:`repro.retrieval.topk_retrieval.rank_top_k` computes its upper
bounds from cached ``max_g`` constants — zero match-list rescans.

Run directly (``make bench-joins``)::

    PYTHONPATH=src python benchmarks/bench_join_kernels.py

Writes ``BENCH_join_kernels.json`` at the repository root.  ``--check``
runs a seconds-fast correctness-only pass (small instances, both paths
compared exactly) for ``make check``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import sys
import time

from repro.core.api import best_matchset
from repro.core.kernels.columnar import STATS, kernels_enabled
from repro.core.match import MatchList
from repro.core.query import Query
from repro.core.scoring.presets import trec_max, trec_med, trec_win
from repro.retrieval.instrumentation import collect_join_stats
from repro.retrieval.topk_retrieval import rank_top_k

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_join_kernels.json"

FAMILIES = [("win", trec_win), ("med", trec_med), ("max", trec_max)]
LIST_SIZES = (1_000, 10_000)
QUERY_WIDTHS = (2, 3, 5)
# The acceptance bar: kernel path ≥ 2× at |Q| = 3, 10k matches/list.
ACCEPTANCE = {"query_width": 3, "list_size": 10_000, "min_speedup": 2.0}


def make_instance(rng: random.Random, num_terms: int, list_size: int):
    """A random query + lists with globally unique token ids.

    Distinct token ids keep the Section VI dedup pass to a single join
    invocation; random co-located synthetic matches would otherwise
    trigger restart cascades that measure the restart policy, not the
    inner loops under test.
    """
    from repro.core.match import Match

    query = Query.of(*(f"t{i}" for i in range(num_terms)))
    span = list_size * 10  # realistic density: one match per ~10 tokens
    lists = []
    for j in range(num_terms):
        matches = [
            Match(
                rng.randint(0, span),
                rng.uniform(0.05, 1.0),
                token_id=1 + j * 10_000_000 + i,
            )
            for i in range(list_size)
        ]
        lists.append(MatchList(matches))
    return query, lists


def fresh_lists(lists):
    """Clone the lists so no kernel cache survives into a cold timing."""
    return [MatchList(list(lst), term=lst.term, presorted=True) for lst in lists]


def time_join(query, lists, scoring, *, repeats: int):
    """Best-of wall time of one join over a fixed number of repeats."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = best_matchset(query, lists, scoring)
        best = min(best, time.perf_counter() - started)
    return best, result


def measure(rng: random.Random, family: str, preset, num_terms: int, list_size: int):
    scoring = preset()
    query, lists = make_instance(rng, num_terms, list_size)
    repeats = 3 if list_size >= 10_000 else 5

    os.environ.pop("REPRO_NO_KERNELS", None)
    assert kernels_enabled()
    cold_lists = fresh_lists(lists)
    started = time.perf_counter()
    cold_result = best_matchset(query, cold_lists, scoring)
    cold_s = time.perf_counter() - started
    # Warm: kernels are cached on the lists after the cold call.
    kernel_s, kernel_result = time_join(
        query, cold_lists, scoring, repeats=repeats
    )

    os.environ["REPRO_NO_KERNELS"] = "1"
    try:
        object_s, object_result = time_join(query, lists, scoring, repeats=repeats)
    finally:
        os.environ.pop("REPRO_NO_KERNELS", None)

    assert kernel_result.score == object_result.score, (family, num_terms, list_size)
    assert kernel_result.matchset == object_result.matchset
    assert cold_result.score == object_result.score
    return {
        "family": family,
        "query_width": num_terms,
        "list_size": list_size,
        "object_s": object_s,
        "kernel_cold_s": cold_s,
        "kernel_warm_s": kernel_s,
        "speedup_warm": object_s / kernel_s,
        "speedup_cold": object_s / cold_s,
    }


def topk_bound_proof(rng: random.Random, *, num_docs: int = 200, k: int = 5):
    """Warm rank_top_k must bound via cached max_g — zero rescans."""
    scoring = trec_max()
    query = Query.of("a", "b", "c")
    docs = []
    for d in range(num_docs):
        # Per-document quality ceilings vary widely, as in a real corpus:
        # most documents' upper bounds cannot reach the top-k floor.
        ceiling = rng.uniform(0.05, 1.0)
        docs.append(
            (
                f"doc{d:04d}",
                [
                    MatchList.from_pairs(
                        sorted(
                            (rng.randint(0, 2_000), rng.uniform(0.01, ceiling))
                            for _ in range(rng.randint(5, 40))
                        )
                    )
                    for _ in range(len(query))
                ],
            )
        )
    os.environ.pop("REPRO_NO_KERNELS", None)
    STATS.reset()
    cold = rank_top_k(docs, query, scoring, k)
    cold_lowerings = STATS.lowerings
    STATS.reset()
    with collect_join_stats() as stats:
        warm = rank_top_k(docs, query, scoring, k)
    warm_lowerings = STATS.lowerings
    assert warm == cold
    assert warm == rank_top_k(docs, query, scoring)[:k]
    assert warm_lowerings == 0, "warm top-k bound rescanned a match list"
    return {
        "documents": num_docs,
        "k": k,
        "cold_lowerings": cold_lowerings,
        "warm_lowerings": warm_lowerings,
        "documents_seen": stats.documents_scanned,
        "joins_run": stats.joins_run,
        "joins_skipped": stats.joins_skipped,
        "bound_skip_rate": stats.joins_skipped / stats.documents_scanned,
    }


def quick_check() -> int:
    """Seconds-fast both-paths equality pass for ``make check``."""
    rng = random.Random("kernel-check")
    for family, preset in FAMILIES:
        for num_terms in (2, 3):
            row = measure(rng, family, preset, num_terms, 200)
            print(
                f"check {family} |Q|={num_terms}: "
                f"speedup {row['speedup_warm']:.2f}x (results identical)"
            )
    proof = topk_bound_proof(rng, num_docs=50)
    print(
        f"check top-k bound: warm lowerings {proof['warm_lowerings']}, "
        f"skip rate {proof['bound_skip_rate']:.2f}"
    )
    print("join-kernel check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true", help="fast correctness-only pass"
    )
    args = parser.parse_args(argv)
    if args.check:
        return quick_check()

    rng = random.Random("kernel-bench")
    rows = []
    for family, preset in FAMILIES:
        for list_size in LIST_SIZES:
            for num_terms in QUERY_WIDTHS:
                row = measure(rng, family, preset, num_terms, list_size)
                rows.append(row)
                print(
                    f"{family} |Q|={num_terms} n={list_size}: "
                    f"object {row['object_s'] * 1e3:8.2f} ms  "
                    f"kernel {row['kernel_warm_s'] * 1e3:8.2f} ms  "
                    f"speedup {row['speedup_warm']:.2f}x"
                )

    proof = topk_bound_proof(rng)
    print(
        f"top-k bound: cold lowerings {proof['cold_lowerings']}, warm "
        f"{proof['warm_lowerings']}, skip rate {proof['bound_skip_rate']:.2f}"
    )

    gate = [
        r
        for r in rows
        if r["query_width"] == ACCEPTANCE["query_width"]
        and r["list_size"] == ACCEPTANCE["list_size"]
    ]
    worst = min(r["speedup_warm"] for r in gate)
    passed = worst >= ACCEPTANCE["min_speedup"]
    print(
        f"acceptance (|Q|={ACCEPTANCE['query_width']}, "
        f"n={ACCEPTANCE['list_size']}): worst speedup {worst:.2f}x "
        f"{'PASS' if passed else 'FAIL'}"
    )

    OUTPUT.write_text(
        json.dumps(
            {
                "benchmark": "join_kernels",
                "acceptance": {**ACCEPTANCE, "worst_speedup": worst, "passed": passed},
                "results": rows,
                "topk_bound_proof": proof,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {OUTPUT}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
