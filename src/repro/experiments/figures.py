"""Regeneration of every figure and table in the paper's Section VIII.

Each ``figN_*`` function rebuilds the corresponding experiment: it
generates the workload with the paper's parameters, times the same set of
algorithms, and returns the series/rows the paper plots.  Document counts
default to Python-friendly sizes (the paper ran C++ over 500–1000
documents per point; pure Python is ~two orders slower, and the *shape*
of every curve is independent of the document count) — pass
``num_docs=500`` / ``num_docs=1000`` for full-scale runs.

See EXPERIMENTS.md for paper-vs-measured notes per experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.algorithms.auto import dispatch_join
from repro.core.algorithms.dedup import dedup_join
from repro.core.algorithms.max_join import general_max_join, max_join
from repro.core.match import MatchList
from repro.core.matchset import MatchSet
from repro.core.query import Query
from repro.core.scoring.presets import experiment_suite, trec_max, trec_med, trec_win
from repro.datasets.dbworld_like import generate_dbworld_like
from repro.datasets.synthetic import SyntheticConfig, generate_dataset
from repro.datasets.trec_like import TREC_QUERY_SPECS, TrecQuerySpec, generate_trec_like
from repro.experiments.report import SweepResult
from repro.experiments.runner import full_suite, proposed_suite, time_suite
from repro.matching.dates import DateMatcher
from repro.matching.pipeline import QueryMatcher
from repro.retrieval.evaluation import answer_rank
from repro.retrieval.topk_retrieval import rank_top_k

__all__ = [
    "fig6_query_terms",
    "fig7_list_size",
    "fig8_dedup_invocations",
    "fig9_duplicates_time",
    "fig10_skew",
    "fig11_trec_times",
    "fig12_answer_ranks",
    "dbworld_table",
    "ablation_envelope",
    "ablation_skew_fix",
    "ablation_alpha_sensitivity",
    "DBWorldResult",
]


def _instances(config: SyntheticConfig) -> list[tuple[Query, Sequence[MatchList]]]:
    return [(inst.query, inst.lists) for inst in generate_dataset(config)]


def _sweep(
    title: str,
    x_label: str,
    x_values: Sequence,
    configs: Sequence[SyntheticConfig],
    *,
    metric: str = "seconds",
) -> SweepResult:
    series: dict[str, list[float]] = {}
    for config in configs:
        instances = _instances(config)
        for row in time_suite(full_suite(), instances):
            values = series.setdefault(row.name, [])
            values.append(row.seconds if metric == "seconds" else row.mean_invocations)
    return SweepResult(title, x_label, list(x_values), series,
                       y_label="total time (s)" if metric == "seconds" else metric)


def fig6_query_terms(
    *,
    num_docs: int = 50,
    seed: int = 2009,
    term_counts: Sequence[int] = (2, 3, 4, 5, 6, 7),
) -> SweepResult:
    """Figure 6: execution times vs. number of query terms."""
    base = SyntheticConfig(num_docs=num_docs, seed=seed)
    return _sweep(
        "Fig 6: execution time vs number of query terms",
        "|Q|",
        term_counts,
        [base.with_(num_terms=k) for k in term_counts],
    )


def fig7_list_size(
    *,
    num_docs: int = 50,
    seed: int = 2009,
    total_sizes: Sequence[int] = (10, 20, 30, 40),
) -> SweepResult:
    """Figure 7: execution times vs. total match-list size per document."""
    base = SyntheticConfig(num_docs=num_docs, seed=seed)
    return _sweep(
        "Fig 7: execution time vs total size of match lists",
        "total matches",
        total_sizes,
        [base.with_(total_matches=n) for n in total_sizes],
    )


def fig8_dedup_invocations(
    *,
    num_docs: int = 50,
    seed: int = 2009,
    lams: Sequence[float] = (1.0, 1.5, 2.0, 2.5, 3.0),
) -> SweepResult:
    """Figure 8: duplicate-unaware invocations per document vs. λ.

    Only the proposed algorithms run under the Section VI wrapper, so
    only they have an invocation count.
    """
    base = SyntheticConfig(num_docs=num_docs, seed=seed)
    series: dict[str, list[float]] = {}
    for lam in lams:
        instances = _instances(base.with_(lam=lam))
        for row in time_suite(proposed_suite(), instances):
            series.setdefault(row.name, []).append(row.mean_invocations)
    return SweepResult(
        "Fig 8: duplicate-unaware executions per document vs lambda",
        "lambda",
        list(lams),
        series,
        y_label="invocations / document",
    )


def fig9_duplicates_time(
    *,
    num_docs: int = 50,
    seed: int = 2009,
    lams: Sequence[float] = (1.0, 1.5, 2.0, 2.5, 3.0),
) -> SweepResult:
    """Figure 9: execution times vs. λ (duplicate frequency)."""
    base = SyntheticConfig(num_docs=num_docs, seed=seed)
    return _sweep(
        "Fig 9: execution time vs lambda (duplicate frequency)",
        "lambda",
        lams,
        [base.with_(lam=lam) for lam in lams],
    )


def fig10_skew(
    *,
    num_docs: int = 50,
    seed: int = 2009,
    s_values: Sequence[float] = (1.1, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
) -> SweepResult:
    """Figure 10: execution times vs. Zipf skew of term popularities."""
    base = SyntheticConfig(num_docs=num_docs, seed=seed)
    return _sweep(
        "Fig 10: execution time vs Zipf skewness",
        "s",
        s_values,
        [base.with_(zipf_s=s) for s in s_values],
    )


# ---------------------------------------------------------------------------
# TREC-like experiments (Figures 11 and 12)
# ---------------------------------------------------------------------------

def fig11_trec_times(
    *,
    num_docs: int = 200,
    seed: int = 2006,
    specs: Sequence[TrecQuerySpec] = TREC_QUERY_SPECS,
) -> SweepResult:
    """Figure 11: execution times per TREC query and algorithm.

    As in the paper, WIN is invoked only for queries with more than three
    terms (WIN ≡ MED otherwise); its entries are reported as NaN for the
    three-term queries.
    """
    series: dict[str, list[float]] = {}
    for spec in specs:
        dataset = generate_trec_like(spec, num_docs=num_docs, seed=seed)
        instances = [(dataset.query, doc.lists) for doc in dataset.documents]
        suite = full_suite(win_as_med_when_small=len(spec.terms))
        rows = {row.name: row.seconds for row in time_suite(suite, instances)}
        for name in ("WIN", "MED", "MAX", "NWIN", "NMED", "NMAX"):
            series.setdefault(name, []).append(rows.get(name, float("nan")))
    return SweepResult(
        "Fig 11: execution times over the TREC-like dataset",
        "query",
        [spec.query_id for spec in specs],
        series,
    )


def fig12_answer_ranks(
    *,
    num_docs: int = 200,
    seed: int = 2006,
    specs: Sequence[TrecQuerySpec] = TREC_QUERY_SPECS,
) -> list[dict[str, object]]:
    """Figure 12 (table): list sizes, duplicates and answer ranks."""
    suite = experiment_suite()
    rows: list[dict[str, object]] = []
    for spec in specs:
        dataset = generate_trec_like(spec, num_docs=num_docs, seed=seed)
        row: dict[str, object] = {
            "ID": spec.query_id,
            "query": ", ".join(spec.terms),
            "match list sizes": tuple(
                round(x, 2) for x in dataset.measured_avg_list_sizes()
            ),
        }
        answer_ids = {d.doc_id for d in dataset.documents if d.is_answer}
        for family in ("MED", "MAX", "WIN"):
            scoring = suite[family]
            ranked = rank_top_k(
                ((doc.doc_id, doc.lists) for doc in dataset.documents),
                dataset.query,
                scoring,
            )
            rank = answer_rank(ranked, lambda r: r.doc_id in answer_ids)
            row[family] = str(rank)
            row[f"paper {family}"] = spec.paper_answer_ranks[family]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# DBWorld experiment (final table of Section VIII)
# ---------------------------------------------------------------------------

@dataclass
class DBWorldResult:
    """Everything the paper's DBWorld table and prose report."""

    avg_list_sizes: tuple[float, float, float]
    avg_duplicates: float
    times: dict[str, float]
    full_correct: dict[str, int]  # scoring family -> #messages fully correct
    partial_correct: dict[str, int]  # ≥2 of 3 fields correct
    num_messages: int
    first_date_correct: int  # footnote 12 heuristic

    def format(self) -> str:
        sizes = ", ".join(f"{s:.1f}" for s in self.avg_list_sizes)
        lines = [
            "DBWorld CFP experiment",
            f"avg match list sizes (conference|workshop, date, place): {sizes}",
            f"avg duplicates per doc: {self.avg_duplicates:.2f}",
            "total times (s): "
            + ", ".join(f"{k}={v:.4f}" for k, v in self.times.items()),
            "fully correct extractions: "
            + ", ".join(
                f"{k}={v}/{self.num_messages}" for k, v in self.full_correct.items()
            ),
            "at-least-partial extractions: "
            + ", ".join(
                f"{k}={v}/{self.num_messages}" for k, v in self.partial_correct.items()
            ),
            f"first-date heuristic correct: {self.first_date_correct}/{self.num_messages}",
        ]
        return "\n".join(lines)


def _dbworld_correct_fields(matchset: MatchSet, truth) -> int:
    """How many of the three extracted fields match the ground truth."""
    correct = 1  # the meeting term is always "correct" when present
    date = matchset["date"]
    place = matchset["place"]
    if date.location in truth.event_date_positions:
        correct += 1
    if place.location in truth.event_place_positions:
        correct += 1
    return correct


def dbworld_table(*, seed: int = 2008, num_messages: int = 25) -> DBWorldResult:
    """The DBWorld table: list sizes, times, extraction accuracy."""
    corpus = generate_dbworld_like(seed=seed, num_messages=num_messages)
    query = Query.of("conference|workshop", "date", "place")
    matcher = QueryMatcher(query)

    # Precompute match lists; list generation is excluded from timing.
    per_doc: list[tuple[str, list[MatchList]]] = [
        (doc.doc_id, matcher.match_lists(doc)) for doc in corpus
    ]
    instances = [(query, lists) for _, lists in per_doc]

    n = len(per_doc)
    sums = [0.0, 0.0, 0.0]
    duplicates = 0
    for _, lists in per_doc:
        for j, lst in enumerate(lists):
            sums[j] += len(lst)
        seen: dict[int, int] = {}
        for lst in lists:
            for loc in set(lst.locations):
                seen[loc] = seen.get(loc, 0) + 1
        duplicates += sum(
            1 for lst in lists for m in lst if seen[m.location] > 1
        )

    # Times: the paper's columns are WIN, MAX, NWIN, NMED, NMAX (MED ≡ WIN
    # for a three-term query).
    suite = full_suite(win_as_med_when_small=None)
    times = {
        row.name: row.seconds
        for row in time_suite(suite, instances)
        if row.name != "MED"
    }

    # Accuracy per scoring family.
    scorings = {"WIN": trec_win(), "MED": trec_med(), "MAX": trec_max()}
    full_correct = {k: 0 for k in scorings}
    partial_correct = {k: 0 for k in scorings}
    for doc, (doc_id, lists) in zip(corpus, per_doc):
        truth = doc.metadata["truth"]
        for family, scoring in scorings.items():
            result = dedup_join(query, lists, scoring, dispatch_join)
            if not result:
                continue
            fields = _dbworld_correct_fields(result.matchset, truth)
            if fields == 3:
                full_correct[family] += 1
            if fields >= 2:
                partial_correct[family] += 1

    # Footnote 12: "simply return the first date in a document".
    date_matcher = DateMatcher()
    first_date_correct = 0
    for doc in corpus:
        truth = doc.metadata["truth"]
        matches = date_matcher.matches(doc)
        if len(matches) and matches[0].location in truth.event_date_positions:
            first_date_correct += 1

    return DBWorldResult(
        avg_list_sizes=(sums[0] / n, sums[1] / n, sums[2] / n),
        avg_duplicates=duplicates / n,
        times=times,
        full_correct=full_correct,
        partial_correct=partial_correct,
        num_messages=n,
        first_date_correct=first_date_correct,
    )


# ---------------------------------------------------------------------------
# Ablations (design-choice benchmarks called out in DESIGN.md)
# ---------------------------------------------------------------------------

def ablation_envelope(
    *, num_docs: int = 50, seed: int = 2009
) -> SweepResult:
    """Specialized MAX join vs. the general envelope approach (Section V)."""
    scoring = trec_max()
    series: dict[str, list[float]] = {"max_join": [], "general_max_join": []}
    sizes = (10, 20, 30, 40)
    for total in sizes:
        instances = _instances(
            SyntheticConfig(num_docs=num_docs, seed=seed, total_matches=total)
        )
        for name, algorithm in (("max_join", max_join), ("general_max_join", general_max_join)):
            start = time.perf_counter()
            for query, lists in instances:
                algorithm(query, lists, scoring)
            series[name].append(time.perf_counter() - start)
    return SweepResult(
        "Ablation: specialized MAX join vs general envelope approach",
        "total matches",
        list(sizes),
        series,
    )


def ablation_skew_fix(
    *, num_docs: int = 50, seed: int = 2009
) -> SweepResult:
    """The paper's switch-to-naive skew fix, on vs. off, across Zipf s."""
    scoring = trec_med()
    s_values = (1.1, 2.0, 3.0, 4.0)
    series: dict[str, list[float]] = {"with skew fix": [], "without skew fix": []}
    for s in s_values:
        instances = _instances(
            SyntheticConfig(num_docs=num_docs, seed=seed, zipf_s=s)
        )
        for name, skew_fix in (("with skew fix", True), ("without skew fix", False)):
            start = time.perf_counter()
            for query, lists in instances:
                dispatch_join(query, lists, scoring, skew_fix=skew_fix)
            series[name].append(time.perf_counter() - start)
    return SweepResult(
        "Ablation: switch-to-naive heuristic on extremely skewed inputs",
        "s",
        list(s_values),
        series,
    )


def ablation_alpha_sensitivity(
    *, seed: int = 2008, alphas: Sequence[float] = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
) -> SweepResult:
    """How the MAX decay rate α affects DBWorld extraction accuracy.

    The paper fixes α = 0.1 (footnote 9) without a sensitivity study;
    this ablation sweeps it.  Small α under-weights proximity (the
    extractor drifts toward high-scoring matches anywhere in the
    message); large α over-weights it (only perfectly adjacent fields
    survive).  The reported series is the fraction of messages whose
    three extracted fields are all correct.
    """
    from repro.core.scoring.maxloc import AdditiveExponentialMax

    corpus = generate_dbworld_like(seed=seed)
    query = Query.of("conference|workshop", "date", "place")
    matcher = QueryMatcher(query)
    per_doc = [(doc, matcher.match_lists(doc)) for doc in corpus]

    accuracy: list[float] = []
    for alpha in alphas:
        scoring = AdditiveExponentialMax(alpha=alpha)
        correct = 0
        for doc, lists in per_doc:
            truth = doc.metadata["truth"]
            result = dedup_join(query, lists, scoring, dispatch_join)
            if result and _dbworld_correct_fields(result.matchset, truth) == 3:
                correct += 1
        accuracy.append(correct / len(per_doc))
    return SweepResult(
        "Ablation: MAX decay rate vs DBWorld extraction accuracy",
        "alpha",
        list(alphas),
        {"fully correct fraction": accuracy},
        y_label="fraction of messages",
    )
