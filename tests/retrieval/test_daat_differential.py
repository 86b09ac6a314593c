"""The DAAT path's central proof obligation: byte-identical answers.

For every scoring family, every k, with and without the two-term pair
index, and on both kernel paths (``REPRO_NO_KERNELS``), the DAAT
max-score loop must return *exactly* what the materialize-all pipeline
returns — same document ids, same scores, same matchsets, same tie
order.  The corpus deliberately mixes adjacent-term documents (the top
of every ranking), exact duplicates (tie-breaking exercised, not
assumed), synonym-only documents (pruned by the membership bound),
far-apart-terms documents (pruned only by the pair-proximity bound),
and partial matches (conjunctively excluded).
"""

import pytest

from repro.cluster import ClusterExecutor
from repro.retrieval.instrumentation import collect_join_stats
from repro.retrieval.topk_retrieval import rank_top_k, score_upper_bound
from repro.service.executor import SCORING_PRESETS
from repro.system import SearchSystem

FAMILIES = sorted(SCORING_PRESETS)  # max, med, win
KS = (1, 5, 20)

QUERIES = (
    "maker, partnership",
    # Reversed / shuffled term order: the pair index stores each pair
    # under its lexicographically smaller term, so these exercise the
    # (query order != entry order) orientation of pair-entry seeding.
    "partnership, maker",
    "maker, partnership, sports",
    "sports, maker, partnership",
)

PAIR_TERMS = ["maker", "partnership", "sports"]


def build_corpus():
    documents = []
    # Adjacent terms with growing gaps: distinct scores at the top.
    for i in range(8):
        filler = " ".join(f"w{j}" for j in range(i))
        documents.append(
            (
                f"a-{i:02d}",
                f"maker {filler} partnership sports maker {filler} partnership",
            )
        )
    # Exact duplicates under different ids: doc-id tie-breaks.
    for i in range(4):
        documents.append((f"t-{i}", "maker partnership sports maker partnership"))
    # Terms present but far apart: only the pair-proximity bound can
    # prune these (their membership bound is maximal).
    far = " ".join(f"y{j}" for j in range(40))
    for i in range(4):
        documents.append((f"y-{i:02d}", f"maker {far} partnership {far} sports"))
    # Synonym-only documents (vendor≈maker, alliance≈partnership at
    # 0.7): the membership bound prunes these once the floor is full.
    for i in range(6):
        documents.append(
            (f"z-{i:02d}", f"vendor {'x ' * i}alliance sports story number {i}")
        )
    # Partial matches: conjunctively excluded everywhere.
    for i in range(4):
        documents.append((f"p-{i}", f"partnership only number {i}"))
    return documents


@pytest.fixture(scope="module")
def plain_system():
    built = SearchSystem()
    built.add_texts(build_corpus())
    return built


@pytest.fixture(scope="module")
def paired_system():
    built = SearchSystem()
    built.add_texts(build_corpus())
    built.build_pair_index(PAIR_TERMS, min_pair_df=1)
    return built


def full_ranking(system, query_text, scoring, k):
    """The ground truth: rank every candidate (no floor, so nothing is
    pruned), take the first k."""
    query, matcher = system._plan(query_text)
    assert matcher is None, "differential corpus must stay on the offline path"
    per_doc = system._per_document_lists(query, None)
    return rank_top_k(per_doc, query, scoring)[:k]


def assert_identical(got, expected):
    assert [d.doc_id for d in got] == [d.doc_id for d in expected]
    assert [d.score for d in got] == [d.score for d in expected]
    assert [d.matchset for d in got] == [d.matchset for d in expected]
    assert list(got) == list(expected)


@pytest.mark.parametrize("kernels", ("on", "off"))
@pytest.mark.parametrize("use_pairs", (False, True))
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("family", FAMILIES)
def test_daat_matches_materialize_all(
    request, family, k, use_pairs, kernels, monkeypatch
):
    system = request.getfixturevalue(
        "paired_system" if use_pairs else "plain_system"
    )
    scoring = SCORING_PRESETS[family]()
    if kernels == "off":
        monkeypatch.setenv("REPRO_NO_KERNELS", "1")
    else:
        monkeypatch.delenv("REPRO_NO_KERNELS", raising=False)
    for query in QUERIES:
        monkeypatch.delenv("REPRO_NO_DAAT", raising=False)
        daat = system.ask(query, top_k=k, scoring=scoring)
        monkeypatch.setenv("REPRO_NO_DAAT", "1")
        materialized = system.ask(query, top_k=k, scoring=scoring)
        exhaustive = full_ranking(system, query, scoring, k)
        assert_identical(daat, materialized)
        assert_identical(daat, exhaustive)


def test_membership_bound_skips_synonym_documents(plain_system, monkeypatch):
    monkeypatch.delenv("REPRO_NO_DAAT", raising=False)
    with collect_join_stats() as stats:
        plain_system.ask("maker, partnership", top_k=3)
    # The z- documents (0.7 expansion scores) cannot beat a floor of
    # adjacent exact-term documents; they are pruned before any match
    # list is materialized.
    assert stats.documents_scanned > 0
    assert stats.documents_pivot_skipped > 0
    assert stats.joins_run + stats.joins_skipped <= stats.documents_scanned


def test_pair_index_prunes_far_apart_documents(paired_system, monkeypatch):
    monkeypatch.delenv("REPRO_NO_DAAT", raising=False)
    with collect_join_stats() as stats:
        results = paired_system.ask("maker, partnership", top_k=3)
    assert stats.pair_index_hits > 0
    assert stats.documents_pivot_skipped > 0
    # The y- documents (maximal membership bound, huge min-gap) must
    # not reach the top 3.
    assert all(not d.doc_id.startswith("y-") for d in results)


def test_stale_pair_index_is_ignored(monkeypatch):
    system = SearchSystem()
    system.add_texts(build_corpus())
    system.build_pair_index(PAIR_TERMS, min_pair_df=1)
    # Mutating the corpus outdates the pair index; answers must come
    # from the live generation, not the stale precomputation.
    far = " ".join(f"q{j}" for j in range(60))
    system.add_texts([("b-00", f"maker partnership sports {far} end")])
    monkeypatch.delenv("REPRO_NO_DAAT", raising=False)
    daat = system.ask("maker, partnership", top_k=5)
    monkeypatch.setenv("REPRO_NO_DAAT", "1")
    materialized = system.ask("maker, partnership", top_k=5)
    assert_identical(daat, materialized)
    assert any(d.doc_id == "b-00" for d in daat)


def test_cluster_shards_run_daat_identically(plain_system, monkeypatch):
    # Shard workers inherit the default environment (DAAT on); the
    # single-process reference runs the materialize-all path.  Both must
    # agree through the scatter/threshold-merge pipeline.
    cluster = ClusterExecutor(
        plain_system, shards=2, watchdog_interval=0, cache_size=0
    )
    try:
        monkeypatch.setenv("REPRO_NO_DAAT", "1")
        for family in FAMILIES:
            scoring = SCORING_PRESETS[family]()
            for k in (1, 5):
                expected = plain_system.ask(
                    "maker, partnership", top_k=k, scoring=scoring
                )
                response = cluster.ask("maker, partnership", top_k=k, scoring=family)
                assert not response.degraded
                assert_identical(list(response.results), expected)
    finally:
        cluster.shutdown()


@pytest.mark.parametrize("family", FAMILIES)
def test_score_upper_bound_paths_agree(plain_system, family, monkeypatch):
    # The memoized object-path bound (REPRO_NO_KERNELS=1) must equal the
    # kernel-path bound — and its memoized re-read must equal the first
    # computation.
    scoring = SCORING_PRESETS[family]()
    concepts = plain_system._concepts
    lists = concepts.match_lists(["maker", "partnership"], "a-03")
    monkeypatch.delenv("REPRO_NO_KERNELS", raising=False)
    kernel_bound = score_upper_bound(scoring, lists)
    monkeypatch.setenv("REPRO_NO_KERNELS", "1")
    object_bound = score_upper_bound(scoring, lists)
    memoized_bound = score_upper_bound(scoring, lists)
    assert object_bound == kernel_bound
    assert memoized_bound == object_bound
