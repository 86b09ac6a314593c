"""Seeded input generator: a pure function of ``(workload, seed)``.

Documents are Zipf draws over a fixed table of lexicon concepts mixed
with filler tokens the lexicon does not know.  A concept occurrence is
its head word or one of its synonyms, so the ``1 - 0.3d`` expansion
scores vary inside every match list.  Query terms are concept head
words: every one plans on the offline (index-derived) path, never on
the whole-corpus online matcher.

The *hot* query class is made only of the concepts with the highest
document frequency, measured on the generated corpus (the stop-word-like
worst case of Veretennikov, PAPERS.md).  Every query is defined over
measured df ranks, by a draw that does not depend on the seed, and so
is the order in which a workload asks the pool, so seeds differ in
corpus and in which concept holds which rank, not in the mix or order
of query costs.

Nothing here touches the system under test beyond reading the built-in
lexicon tables; ``generate`` returns plain lists and dicts that the
benchmark writes to a file for the program process to read.
"""

from __future__ import annotations

import bisect
import itertools
import random

from repro.lexicon.data import SYNONYM_SETS
from repro.lexicon.wordnet_like import DEFAULT_MAX_DISTANCE, default_lexicon
from repro.text.stemmer import PorterStemmer

PRESETS = ("win", "med", "max")
#: Query terms the parser sends to a whole-corpus online matcher.
ONLINE_TERMS = frozenset({"date", "year", "place"})
TOP_K = 10

#: Per-workload generator settings: ``pool`` distinct (query, preset)
#: pairs, 50 of them the hot class (see :func:`make_queries`).
SHAPES = {
    "ask_offline": {"docs": 10_000, "pool": 330, "stream": 1_000},
    "ingest_query": {
        "docs": 500,
        "pool": 330,
        "stream": 300,
        # Each step writes one batch of fresh documents, except every
        # ``delete_every``-th step, which deletes one live document.
        "batch": 16,
        "delete_every": 5,
        "steps": 300,
    },
    "serve_sharded": {
        "docs": 4_000,
        "pool": 6_000,
        "stream": 2_000,
        # Zipf skew of query popularity over a pool larger than the
        # executor's 1,024-entry result cache: a round of 1,540 requests
        # from an empty cache hits it about 24% of the time, so the
        # median request is a miss.
        "popularity_skew": 0.6,
    },
}

DOC_LENGTH = (24, 48)
CONCEPT_SHARE = 0.15
CONCEPT_SKEW = 1.0
FILLER_WORDS = 1_500
HOT_CONCEPTS = 6
QUERY_SIZES = (2, 3, 4)


def concept_table() -> list[tuple[str, ...]]:
    """Lexicon synonym sets usable as concepts, in the lexicon's order.

    Keeps single-word members only, and drops every set that shares a
    word or a Porter stem with another set (so an occurrence belongs to
    exactly one concept), whose head plans online, or whose expansion
    reaches another kept set.  Disjoint expansions keep a document
    token from matching two query terms: with overlapping concepts the
    Section VI restarts of one 4-term query took 21 s at 2k documents.
    """
    stemmer = PorterStemmer()
    words: dict[str, int] = {}
    stems: dict[str, int] = {}
    for members in SYNONYM_SETS:
        for word in members:
            words[word] = words.get(word, 0) + 1
            stem = " ".join(stemmer.stem(part) for part in word.split())
            stems[stem] = stems.get(stem, 0) + 1
    table = []
    for members in SYNONYM_SETS:
        if members[0] in ONLINE_TERMS or " " in members[0]:
            continue
        single = tuple(word for word in members if " " not in word)
        if len(single) < 2:
            continue
        if any(words[w] > 1 or stems[stemmer.stem(w)] > 1 for w in single):
            continue
        table.append(single)
    lexicon = default_lexicon()
    owner = {word: index for index, members in enumerate(table) for word in members}
    isolated = []
    for index, members in enumerate(table):
        reach = lexicon.within_distance(members[0], DEFAULT_MAX_DISTANCE)
        if all(owner.get(word, index) == index for word in reach):
            isolated.append(members)
    return isolated


class _Zipf:
    """Inverse-CDF sampler: P(rank k) proportional to 1/k^s."""

    def __init__(self, n: int, skew: float) -> None:
        weights = [1.0 / (k**skew) for k in range(1, n + 1)]
        self._cdf = list(itertools.accumulate(weights))

    def sample(self, rng: random.Random) -> int:
        u = rng.random() * self._cdf[-1]
        return min(bisect.bisect_left(self._cdf, u), len(self._cdf) - 1)


def _filler(index: int) -> str:
    return f"zq{index}"


def make_documents(
    rng: random.Random, count: int, concepts, *, prefix: str = "d", start: int = 0
) -> list[list[str]]:
    """``count`` documents as ``[doc_id, text]`` pairs."""
    concept_zipf = _Zipf(len(concepts), CONCEPT_SKEW)
    filler_zipf = _Zipf(FILLER_WORDS, 1.0)
    documents = []
    for number in range(start, start + count):
        words = []
        for _ in range(rng.randint(*DOC_LENGTH)):
            if rng.random() < CONCEPT_SHARE:
                members = concepts[concept_zipf.sample(rng)]
                # Half the occurrences are the head word (score 1.0),
                # the rest a synonym one lexicon edge away (0.7).
                words.append(
                    members[0] if rng.random() < 0.5 else rng.choice(members[1:])
                )
            else:
                words.append(_filler(filler_zipf.sample(rng)))
        documents.append([f"{prefix}{number:06d}", " ".join(words)])
    return documents


def document_frequencies(documents, concepts) -> list[int]:
    """Per concept: documents holding at least one of its words."""
    owner = {word: index for index, members in enumerate(concepts) for word in members}
    df = [0] * len(concepts)
    for _doc_id, text in documents:
        for index in {owner[w] for w in text.split() if w in owner}:
            df[index] += 1
    return df


def make_queries(count: int, concepts, df):
    """``count`` distinct ``{"text", "preset", "hot"}`` queries.

    The hot class is every combination of 2-4 of the :data:`HOT_CONCEPTS`
    highest measured-df concepts (50 queries, about 15% of a 330-query
    pool); the rest draw theirs by Zipf popularity from the other
    concepts.  Presets rotate win/med/max over the pool.  Sizes, df
    ranks, term order and the pool's order (which sets a query's
    popularity on serve_sharded) come from a draw fixed for the pool
    size, so the seed picks only which concept holds each df rank.
    """
    shape = random.Random(f"pool:{count}")
    by_df = sorted(range(len(concepts)), key=lambda i: (-df[i], i))
    picks = [
        list(combo)
        for size in QUERY_SIZES
        for combo in itertools.combinations(by_df[:HOT_CONCEPTS], size)
    ]
    n_hot = len(picks)
    # The other queries draw from the remaining concepts only, so the
    # hot class holds the p95 tail.
    rest = by_df[HOT_CONCEPTS:]
    concept_zipf = _Zipf(len(rest), CONCEPT_SKEW)
    seen: set[tuple[str, str]] = set()
    queries = []
    while len(queries) < count:
        position = len(queries)
        if position < n_hot:
            picked = picks[position]
            shape.shuffle(picked)
        else:
            size = shape.choice(QUERY_SIZES)
            picked = []
            while len(picked) < size:
                index = rest[concept_zipf.sample(shape)]
                if index not in picked:
                    picked.append(index)
        text = ", ".join(concepts[i][0] for i in picked)
        preset = PRESETS[position % len(PRESETS)]
        if (text, preset) in seen:
            continue
        seen.add((text, preset))
        queries.append({"text": text, "preset": preset, "hot": position < n_hot})
    shape.shuffle(queries)
    return queries


def cycles(rng: random.Random, pool: int, length: int) -> list[int]:
    """Pool indices in back-to-back seeded permutations, so every query
    is asked equally often (to within one cycle)."""
    stream: list[int] = []
    while len(stream) < length:
        order = list(range(pool))
        rng.shuffle(order)
        stream.extend(order)
    return stream[:length]


def generate(workload: str, seed: int) -> dict:
    """Every input of one run; the same arguments give the same inputs."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    concepts = concept_table()
    documents = make_documents(rng, shape["docs"], concepts)
    df = document_frequencies(documents, concepts)
    queries = make_queries(shape["pool"], concepts, df)
    inputs = {
        "workload": workload,
        "top_k": TOP_K,
        "documents": documents,
        "queries": queries,
    }
    # Pool positions in the order they are asked: the same for every seed.
    order = random.Random(f"stream:{workload}")
    if workload == "serve_sharded":
        popularity = _Zipf(len(queries), shape["popularity_skew"])
        inputs["stream"] = [popularity.sample(order) for _ in range(shape["stream"])]
    else:
        inputs["stream"] = cycles(order, len(queries), shape["stream"])
    if workload == "ingest_query":
        inputs["writes"] = make_writes(rng, shape, concepts, documents)
    return inputs


def make_writes(rng: random.Random, shape, concepts, documents) -> list[dict]:
    """The write of every ingest_query step, in order.

    Deletes retire documents of the initial corpus, each once, so no
    write can fail, and the memtable holds the same number of documents
    after every step for every seed: seals, merges and the WAL tail fall
    on the same steps.  Ingested documents get fresh ids.
    """
    live = [doc_id for doc_id, _ in documents]
    writes = []
    next_number = 0
    for step in range(shape["steps"]):
        if step % shape["delete_every"] == shape["delete_every"] - 1:
            victim = live.pop(rng.randrange(len(live)))
            writes.append({"op": "delete", "doc_id": victim})
            continue
        batch = make_documents(
            rng, shape["batch"], concepts, prefix="n", start=next_number
        )
        next_number += shape["batch"]
        writes.append({"op": "ingest", "documents": batch})
    return writes
