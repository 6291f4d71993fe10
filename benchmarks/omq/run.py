"""The repo benchmark: five OMQ workloads, one command.

``python3 benchmarks/omq/run.py --workload W --seed N --seconds S
--trace 0|1`` runs one workload once and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — every end-to-end metric of
``BENCHMARK.json`` with tracing off, every per-layer metric in the
traced layer pass.

Without ``--workload`` it runs all five, each untraced and then traced
in a fresh process, prints every metric by name with its unit, and
writes ``result.json`` (the input of ``compare.py``) to ``--out``;
``--repeat N`` does that N times for the A/A check.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from common import HERE, ROOT, Context, import_repro, median

#: workload name -> (module, class)
WORKLOADS = {
    "compile-cold": ("compile_cold", "CompileCold"),
    "eval-tables": ("eval_tables", "EvalTables"),
    "serve-hot": ("serve", "ServeHot"),
    "serve-wide": ("serve", "ServeWide"),
    "update-standing": ("update_standing", "UpdateStanding"),
}


#: the names ISSUE 11 gave the workload-specific metrics, printed next
#: to the uniform ones the driver's contract needs
ANSWER_NAMES = {"op_p50_ms": "answer_p50_ms", "op_p95_ms": "answer_p95_ms",
                "serve.rps_2_callers": "answer_rps"}
ISSUE_NAMES = {
    "compile-cold": {"compile.chain_round_s": "compile_chain_s",
                     "compile.gadget_round_s": "compile_gadget_s"},
    "eval-tables": {"eval.round_s": "eval_round_s"},
    "serve-hot": ANSWER_NAMES,
    "serve-wide": ANSWER_NAMES,
    "update-standing": {"op_p50_ms": "update_p50_ms",
                        "op_p95_ms": "update_p95_ms",
                        "update.plain_p50_ms": "update_plain_p50_ms",
                        "standing.delta_p50_ms": "delta_p50_ms"},
}


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, corrupt: bool = False) -> Dict:
    """One run of one workload; returns the result object.  ``corrupt``
    is the self-test's switch (see ``selftest.py``)."""
    spec = load_spec()
    import_repro()
    module_name, class_name = WORKLOADS[name]
    module = importlib.import_module(module_name)
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(seed, seconds, out_dir, trace, spec["run_seconds"],
                  module.CLOCK, corrupt=corrupt)
    workload = getattr(module, class_name)(ctx)
    setup_seconds: List[float] = []
    try:
        for _ in range(module.SETUP_REPEATS):
            workload.teardown()
            setup_seconds.append(ctx.host.timed(workload.setup)[1])
        workload.verify()
        metrics = workload.layers() if trace else workload.measure()
    finally:
        workload.teardown()
        if trace:
            ctx.recorder.write(out_dir / f"spans-{name}.jsonl")
    if trace:
        print(f"-- {name}: self time per span (traced layer pass)")
        print(ctx.recorder.format_self_times())
        metrics["host.spin_ms"] = median(ctx.host.readings) * 1000.0
        # a layer this workload never enters spent no time there
        metrics = {entry["name"]: metrics.get(entry["name"]) or 0.0
                   for entry in spec["per_layer"]}
    else:
        metrics["setup_s"] = median(setup_seconds)
        metrics["peak_rss_mb"] = workload.peak_rss_mb()
    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}
    if hasattr(workload, "command"):
        print(f"server: {' '.join(workload.command)}")
    for note in ctx.tally.notes:
        print(f"FAILED {note}")
    return {"correct": ctx.tally.failed == 0,
            "attempted": ctx.tally.attempted,
            "failed": ctx.tally.failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()}}


# -- the full run: every workload, both passes -----------------------------


def run_child(name: str, seed: int, seconds: int, trace: int,
              out_dir: Path) -> Dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", str(out_dir)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if lines[:-1]:  # server command, failures, the self-time table
        print("\n".join(lines[:-1]))
    if done.returncode != 0 and not lines:
        raise RuntimeError(f"{name} (trace {trace}) exited with "
                           f"{done.returncode} and no result")
    return json.loads(lines[-1])


def full_run(seed: int, seconds: int, repeat: int, out_dir: Path,
             only: Optional[str]) -> int:
    spec = load_spec()
    names = [only] if only else [w["name"] for w in spec["workloads"]]
    report = {"seed": seed, "seconds": seconds, "repeat": repeat,
              "end_to_end": spec["end_to_end"], "workloads": {}}
    failed = 0
    for name in names:
        rows: Dict[str, Dict] = {}
        counts = {"attempted": 0, "failed": 0}
        for _ in range(repeat):
            for trace in (0, 1):
                result = run_child(name, seed, seconds, trace, out_dir)
                counts["attempted"] += result["attempted"]
                counts["failed"] += result["failed"]
                for key, cell in result["metrics"].items():
                    row = rows.setdefault(key, {
                        "unit": cell["unit"], "values": [],
                        "kind": "per_layer" if trace else "end_to_end"})
                    row["values"].append(cell["value"])
        failed += counts["failed"]
        report["workloads"][name] = {"metrics": rows, **counts}
        print(f"\n== {name}: failed {counts['failed']} of "
              f"{counts['attempted']} operations")
        idle = 0
        for key, row in rows.items():
            if not any(row["values"]):
                idle += 1  # a layer this workload never enters
                continue
            alias = ISSUE_NAMES[name].get(key)
            print(f"  {key:36} {median(row['values']):16.6g} "
                  f"{row['unit']:6} n={len(row['values'])} "
                  f"[{row['kind']}]"
                  + (f" = {alias}" if alias else ""))
        print(f"  ({idle} per-layer metrics read 0 here: layers this "
              "workload never enters)")
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "result.json", "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"\nwrote {out_dir / 'result.json'}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    # SIGTERM must unwind through the finally blocks that stop the
    # server subprocess and remove the temporary directories
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload and args.trace is not None:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.out)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    import_repro()  # fail here, not once per child
    return full_run(args.seed, args.seconds, args.repeat or 1, args.out,
                    args.workload)


if __name__ == "__main__":
    sys.exit(main())
