"""The repository benchmark: one workload, one seed, one JSON verdict.

Run from the repository root::

    python3 wpbench/run.py --workload ask_offline --seed 1 --seconds 16 --trace 0

Steps: generate the inputs from the seed (``inputs.py``); run the
workload in a child process with a fixed ``PYTHONHASHSEED``
(``program.py``); replay its operation log on the object path in two
child processes (``oracle.py``); compare every answer.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Scratch files live under ``.wpbench/`` and are removed
at the end, except the raw spans of the last traced run of each workload
(``.wpbench/last-trace-<workload>.tsv``).  See LAYERS.md for what each
metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ask_offline", "ingest_query", "serve_sharded")
PROGRAM_TIMEOUT_S = 120
REFERENCE_TIMEOUT_S = 40
REFERENCE_PARTS = 2


def child_env(**extra) -> dict:
    env = dict(os.environ)
    for name in ("REPRO_NO_DAAT", "REPRO_NO_KERNELS"):
        env.pop(name, None)
    paths = [os.path.abspath("src"), HERE]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(extra)
    return env


def run_children(commands, env, timeout_s: float) -> None:
    """Run ``commands`` concurrently; raise unless every one exits 0.

    Each child leads its own process group, so a child that overruns
    is killed together with whatever it started (shards, load
    generator)."""
    processes = [
        subprocess.Popen(command, env=env, start_new_session=True)
        for command in commands
    ]
    try:
        for process in processes:
            code = process.wait(timeout=timeout_s)
            if code != 0:
                raise RuntimeError(f"{os.path.basename(process.args[1])} exited {code}")
    finally:
        for process in processes:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="weighted-proximity benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "repro")):
        print("run.py: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    from inputs import generate
    from oracle import compare
    from program import END_TO_END, PER_LAYER

    work = os.path.abspath(
        os.path.join(".wpbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    )
    os.makedirs(work)
    phases = [time.perf_counter()]
    try:
        inputs_path = os.path.join(work, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as handle:
            json.dump(generate(args.workload, args.seed), handle)
        phases.append(time.perf_counter())
        out_path = os.path.join(work, "out.json")
        python = sys.executable
        run_children(
            [
                [
                    python,
                    os.path.join(HERE, "program.py"),
                    "--inputs", inputs_path,
                    "--out", out_path,
                    "--work", work,
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                ]
            ],
            child_env(PYTHONHASHSEED="0"),
            PROGRAM_TIMEOUT_S,
        )
        phases.append(time.perf_counter())
        parts = [os.path.join(work, f"reference-{k}.json") for k in range(REFERENCE_PARTS)]
        run_children(
            [
                [
                    python,
                    os.path.join(HERE, "oracle.py"),
                    "--inputs", inputs_path,
                    "--log", out_path,
                    "--part", str(k),
                    "--parts", str(REFERENCE_PARTS),
                    "--out", parts[k],
                ]
                for k in range(REFERENCE_PARTS)
            ],
            child_env(PYTHONHASHSEED="0", REPRO_NO_DAAT="1", REPRO_NO_KERNELS="1"),
            REFERENCE_TIMEOUT_S,
        )
        phases.append(time.perf_counter())
        with open(out_path, encoding="utf-8") as handle:
            out = json.load(handle)
        if args.trace:
            os.replace(
                os.path.join(work, "spans.tsv"),
                os.path.join(".wpbench", f"last-trace-{args.workload}.tsv"),
            )
        reference = {}
        for path in parts:
            with open(path, encoding="utf-8") as handle:
                reference.update({int(k): v for k, v in json.load(handle).items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, mismatches = compare(args.workload, out["log"], reference)
    measured = out["metrics"]
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in units.items()}
    correct = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    for mismatch in mismatches:
        print("mismatch:", json.dumps(mismatch)[:400])
    if args.trace:
        if out["unfired"]:
            correct = False
            print("heavy layers that never fired:", ", ".join(out["unfired"]))
    else:
        print(
            f"samples: closed {measured['samples']}, open {measured['open_samples']}; "
            f"open_p95_ms {measured['open_p95_ms']:.3f}; "
            f"generator_late_p95_ms {measured['generator_late_p95_ms']:.3f}; "
            f"machine_ref_ms {measured['machine_ref_ms']:.3f}; "
            f"steal_pct {measured['steal_pct']:.1f}"
            + (
                f"; hot share above p95 {measured['hot_share_above_p95']:.2f}"
                if "hot_share_above_p95" in measured
                else ""
            )
        )
    inputs_s, program_s, reference_s = (b - a for a, b in zip(phases, phases[1:]))
    print(f"wall: inputs {inputs_s:.1f} s, program {program_s:.1f} s, reference {reference_s:.1f} s")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
