"""Differential tests: columnar kernels vs the object path.

The kernel layer (:mod:`repro.core.kernels`) promises *byte-identical*
results — same scores (no ``approx``), same tie-breaking, same
``invocations`` counts — to the original object-path joins it replaces.
These tests run the same seeded random instances through both paths
(``REPRO_NO_KERNELS=1`` toggles the escape hatch) and compare exactly,
across all three scoring families, with and without duplicate tokens,
with and without the Section VI duplicate-free join.

They also pin the :func:`rank_top_k` contract: its bound-skipping
ranking equals the unbounded ``rank_top_k(..., k=None)[:k]`` field for
field, on both paths.
"""

import random

import pytest

from repro.core.api import best_matchset, best_matchsets_by_location
from repro.core.kernels import kernels_enabled
from repro.core.match import Match, MatchList
from repro.core.query import Query
from repro.core.scoring.presets import trec_max, trec_med, trec_win
from repro.retrieval.instrumentation import collect_join_stats
from repro.retrieval.topk_retrieval import rank_top_k

PRESETS = [
    pytest.param(trec_win, id="win"),
    pytest.param(trec_med, id="med"),
    pytest.param(trec_max, id="max"),
]


def instance(rng, num_terms, max_len, max_location, *, duplicates):
    """One random query + match lists.

    ``duplicates=True`` leaves token ids at their location default, so
    equal locations across lists are Section VI duplicates;
    ``duplicates=False`` gives every match a globally unique token id.
    """
    query = Query.of(*(f"t{i}" for i in range(num_terms)))
    lists = []
    for j in range(num_terms):
        matches = []
        for i in range(rng.randint(1, max_len)):
            location = rng.randint(0, max_location)
            score = rng.uniform(0.05, 1.0)
            token_id = None if duplicates else 1 + j * 1_000_000 + i
            matches.append(Match(location, score, token_id=token_id))
        lists.append(MatchList(matches))
    return query, lists


def both_paths(monkeypatch, fn):
    """Run ``fn()`` with kernels on, then off; return both results."""
    monkeypatch.delenv("REPRO_NO_KERNELS", raising=False)
    assert kernels_enabled()
    with_kernels = fn()
    monkeypatch.setenv("REPRO_NO_KERNELS", "1")
    assert not kernels_enabled()
    without = fn()
    monkeypatch.delenv("REPRO_NO_KERNELS", raising=False)
    return with_kernels, without


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("duplicates", [False, True], ids=["uniq", "dup"])
@pytest.mark.parametrize("avoid_duplicates", [False, True], ids=["plain", "dedup"])
class TestBestMatchsetDifferential:
    def test_byte_identical(self, monkeypatch, preset, duplicates, avoid_duplicates):
        rng = random.Random(f"diff-{preset.__name__}-{duplicates}-{avoid_duplicates}")
        scoring = preset()
        for trial in range(25):
            num_terms = rng.randint(1, 4)
            query, lists = instance(
                rng, num_terms, max_len=6, max_location=18, duplicates=duplicates
            )
            kernel, obj = both_paths(
                monkeypatch,
                lambda: best_matchset(
                    query, lists, scoring, avoid_duplicates=avoid_duplicates
                ),
            )
            assert bool(kernel) == bool(obj)
            assert kernel.score == obj.score  # exact, not approx
            assert kernel.matchset == obj.matchset
            assert kernel.invocations == obj.invocations


@pytest.mark.parametrize("preset", PRESETS)
class TestByLocationDifferential:
    def test_streams_identical(self, monkeypatch, preset):
        rng = random.Random(f"byloc-{preset.__name__}")
        scoring = preset()
        for trial in range(15):
            query, lists = instance(
                rng, rng.randint(1, 4), max_len=5, max_location=15, duplicates=True
            )
            kernel, obj = both_paths(
                monkeypatch,
                lambda: list(best_matchsets_by_location(query, lists, scoring)),
            )
            assert len(kernel) == len(obj)
            for a, b in zip(kernel, obj):
                assert a.anchor == b.anchor
                assert a.score == b.score
                assert a.matchset == b.matchset


def corpus_lists(rng, num_docs, num_terms, *, empty_rate=0.15):
    """Per-document lists for a synthetic multi-document collection."""
    docs = []
    for d in range(num_docs):
        lists = []
        for _ in range(num_terms):
            if rng.random() < empty_rate:
                lists.append(MatchList([]))
            else:
                lists.append(
                    MatchList.from_pairs(
                        (rng.randint(0, 30), rng.uniform(0.05, 1.0))
                        for _ in range(rng.randint(1, 6))
                    )
                )
        docs.append((f"doc{d:03d}", lists))
    return docs


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("k", [1, 3, 10])
class TestTopKDifferential:
    def test_rank_top_k_equals_full_ranking_prefix(self, monkeypatch, preset, k):
        rng = random.Random(f"topk-{preset.__name__}-{k}")
        scoring = preset()
        query = Query.of("a", "b", "c")
        docs = corpus_lists(rng, num_docs=40, num_terms=3)

        def run():
            full = rank_top_k(docs, query, scoring)
            with collect_join_stats() as stats:
                top = rank_top_k(docs, query, scoring, k)
            return full, top, stats

        (full_k, top_k, stats_k), (full_o, top_o, stats_o) = both_paths(
            monkeypatch, run
        )
        for full, top, stats in ((full_k, top_k, stats_k), (full_o, top_o, stats_o)):
            assert top == full[: k], "bound skipping changed the ranking"
            assert stats.documents_scanned == len(docs)
            assert stats.joins_run + stats.joins_skipped <= len(docs)
        # And the two paths agree with each other, field for field.
        assert full_k == full_o
        assert top_k == top_o

    def test_bound_actually_skips(self, monkeypatch, preset, k):
        monkeypatch.delenv("REPRO_NO_KERNELS", raising=False)
        rng = random.Random(f"skip-{preset.__name__}-{k}")
        scoring = preset()
        query = Query.of("a", "b")
        # One strong document first, then many weak ones: the floor is
        # set early and the bound should prune at least some of the rest.
        docs = [
            (
                "doc000",
                [
                    MatchList.from_pairs([(5, 1.0), (6, 1.0)]),
                    MatchList.from_pairs([(5, 1.0), (7, 1.0)]),
                ],
            )
        ]
        for d in range(1, 60):
            docs.append(
                (
                    f"doc{d:03d}",
                    [
                        MatchList.from_pairs(
                            [(rng.randint(0, 50), rng.uniform(0.01, 0.1))]
                        )
                        for _ in range(2)
                    ],
                )
            )
        with collect_join_stats() as stats:
            top = rank_top_k(docs, query, scoring, k)
        assert top == rank_top_k(docs, query, scoring)[: k]
        if k == 1:
            assert stats.joins_skipped > 0
