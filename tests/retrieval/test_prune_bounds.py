"""Prune bounds stay sound under float rounding.

A bound and the score it bounds are float sums taken in different
orders, so a bound can round below the score it must not undercut.
Regression: the query ``parliament, answer, tower`` under the MED
preset, over two documents of a generated 10k-document corpus.  Their
best matchsets cancel to rounding residue (8.88e-16 and 4.44e-16); with
the pair index on, the pair bound of the better document rounded below
the weaker one's score, and the weaker document was returned.
"""

import pytest

from repro.core.api import best_matchset
from repro.core.query import Query
from repro.core.scoring.presets import trec_med
from repro.retrieval.topk_retrieval import _id_key, prunable, upper_bound_terms
from repro.system import SearchSystem
from repro.text.document import Document

TERMS = ["parliament", "answer", "tower"]
QUERY = ", ".join(TERMS)

#: The two documents, verbatim: their match lists are the whole input.
DOCS = {
    "d004556": (
        "zq0 zq54 zq74 zq25 zq93 zq5 zq1 zq250 partnership zq405 zq0 vote "
        "zq15 zq100 zq54 zq192 reply collaboration zq122 assembly zq18 zq1 "
        "zq68 spire zq1 zq27 zq144 zq25 zq82 zq1299 zq108 zq1282 zq9 zq6 "
        "zq4 zq19 zq2 zq30 zq31 parliament"
    ),
    "d006894": (
        "zq27 zq1 zq742 partner zq3 zq1 zq12 zq2 zq0 response tower tome "
        "zq5 time zq327 zq5 zq0 zq5 parliament zq111 zq138 zq31 zq81 zq15 "
        "zq271 zq31 zq459 zq345 zq313 zq0 partnership conflict zq1 zq110 "
        "zq0 zq1 zq1287 zq1290"
    ),
}


def build_system(*, pair_index: bool) -> SearchSystem:
    system = SearchSystem()
    system.add(*(Document(doc_id, text) for doc_id, text in DOCS.items()))
    if pair_index:
        system.build_pair_index(TERMS)
    return system


def match_lists(system, doc_id):
    return system._concepts.match_lists(
        TERMS, doc_id, generation=system.index_generation
    )


@pytest.mark.parametrize("pair_index", [False, True])
@pytest.mark.parametrize("daat", [True, False])
def test_near_cancelling_med_scores_rank_exactly(pair_index, daat, monkeypatch):
    if not daat:
        monkeypatch.setenv("REPRO_NO_DAAT", "1")
    system = build_system(pair_index=pair_index)
    ranked = system.ask(QUERY, top_k=1, scoring=trec_med())
    assert [(r.doc_id, r.score) for r in ranked] == [
        ("d006894", 8.881784197001252e-16)
    ]


def test_bounds_from_the_match_lists_do_not_prune_the_better_document():
    system = build_system(pair_index=False)
    scoring = trec_med()
    query = Query(TERMS)
    scores = {
        doc_id: best_matchset(query, match_lists(system, doc_id), scoring).score
        for doc_id in DOCS
    }
    assert scores["d006894"] > scores["d004556"]
    floor = (scores["d004556"], _id_key("d004556"))
    bound, size = upper_bound_terms(scoring, match_lists(system, "d006894"))
    assert bound >= scores["d006894"]
    assert not prunable(bound, floor, "d006894", terms=len(TERMS), size=size)
    # A bound that lost the score's rounding residue (as the pair bound
    # f(Σ g − δ) did) falls below the floor, so a margin-free comparison
    # pruned the better document; the margin keeps it.
    residue_lost = scores["d006894"] - 8.881784197001252e-16
    assert residue_lost < floor[0]
    assert not prunable(
        residue_lost, floor, "d006894", terms=len(TERMS), size=size
    )


class TestPrunable:
    def test_single_term_keeps_the_exact_tie_rule(self):
        floor = (2.0, _id_key("b"))
        assert prunable(1.9, floor, "c", terms=1, size=1.9)
        # Equal bound: the larger doc id loses the tie, the smaller wins.
        assert prunable(2.0, floor, "c", terms=1, size=2.0)
        assert not prunable(2.0, floor, "a", terms=1, size=2.0)

    def test_rounding_residue_is_a_tie_not_a_skip(self):
        floor = (8.881784197001252e-16, _id_key("a"))
        assert not prunable(4.440892098500626e-16, floor, "z", terms=3, size=20.0)
        assert not prunable(0.0, floor, "z", terms=3, size=20.0)

    def test_clear_gaps_still_prune(self):
        floor = (5.0, _id_key("a"))
        assert prunable(4.999, floor, "z", terms=3, size=20.0)
        assert not prunable(5.0, floor, "z", terms=3, size=20.0)

    def test_no_doc_id_breaks_no_tie(self):
        floor = (2.0, _id_key("b"))
        assert not prunable(2.0, floor, None, terms=1, size=2.0)
        assert prunable(1.0, floor, None, terms=1, size=1.0)
