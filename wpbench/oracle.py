"""Exact answer check: the paper's object path as the reference.

``python3 wpbench/oracle.py --inputs FILE --log FILE --part K --parts N
--out FILE`` replays the operation log of one run on an in-memory
:class:`SearchSystem` with ``REPRO_NO_DAAT=1`` and ``REPRO_NO_KERNELS=1``
(materialize-all ranking over the object-path joins of Algorithms 1-2
and the MAX join) and writes the reference answer of every ask that
falls in part ``K`` of ``N``.  It refuses to run while either fast path
is still enabled.

:func:`compare` then checks every answer of the run against the
reference: doc ids, exact float scores, matchset locations (not carried
over HTTP) and tie order.  A degraded, partial or errored reply counts
as failed whatever it holds.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.kernels.columnar import kernels_enabled
from repro.retrieval.daat import daat_enabled
from repro.service.executor import SCORING_PRESETS
from repro.system import SearchSystem
from repro.text.document import Document


def encode(ranked) -> list:
    """``[doc_id, score, [location per query term]]`` rows."""
    return [
        [doc.doc_id, doc.score, [m.location for m in doc.matchset.matches]]
        for doc in ranked
    ]


def key_of(workload: str, entry: dict) -> int:
    """Reference key of one logged ask: the step that preceded it on
    ingest_query (the corpus changes every step), else the pool index."""
    return entry["step"] if workload == "ingest_query" else entry["q"]


def replay(inputs: dict, log: list, part: int, parts: int) -> dict:
    """Reference answers for the asks of part ``part``, by key."""
    workload = inputs["workload"]
    queries = inputs["queries"]
    top_k = inputs["top_k"]
    scorings = {name: make() for name, make in SCORING_PRESETS.items()}
    system = SearchSystem()
    system.add(*(Document(doc_id, text) for doc_id, text in inputs["documents"]))

    def ask(index: int) -> list:
        q = queries[index]
        return encode(system.ask(q["text"], top_k=top_k, scoring=scorings[q["preset"]]))

    answers: dict[int, list] = {}
    if workload != "ingest_query":
        for index in sorted({entry["q"] for entry in log}):
            if index % parts == part:
                answers[index] = ask(index)
        return answers
    asked = {entry["step"]: entry["q"] for entry in log}
    for step in range(max(asked, default=-1) + 1):
        write = inputs["writes"][step]
        if write["op"] == "ingest":
            system.add(*(Document(doc_id, text) for doc_id, text in write["documents"]))
        else:
            system.remove(write["doc_id"])
        if step in asked and step % parts == part:
            answers[step] = ask(asked[step])
    return answers


def compare(workload: str, log: list, reference: dict) -> tuple[int, int, list]:
    """(attempted, failed, first mismatches) over every logged ask."""
    failed = 0
    mismatches = []
    for entry in log:
        reason = entry.get("bad")
        if reason is None:
            expected = reference.get(key_of(workload, entry))
            if expected is None:
                reason = "no reference answer"
            else:
                if workload == "serve_sharded":
                    expected = [row[:2] for row in expected]
                if entry["answer"] != expected:
                    reason = "answer differs from the reference"
        if reason is not None:
            failed += 1
            if len(mismatches) < 5:
                mismatches.append({"entry": entry, "reason": reason})
    return len(log), failed, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="object-path reference replay")
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--log", required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--parts", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if daat_enabled() or kernels_enabled():
        print(
            "oracle: refusing to run with a fast path on; "
            "set REPRO_NO_DAAT=1 and REPRO_NO_KERNELS=1",
            file=sys.stderr,
        )
        return 3
    with open(args.inputs, encoding="utf-8") as handle:
        inputs = json.load(handle)
    with open(args.log, encoding="utf-8") as handle:
        log = json.load(handle)["log"]
    answers = replay(inputs, log, args.part, args.parts)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({str(key): value for key, value in answers.items()}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
