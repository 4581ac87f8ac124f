"""Alternating benchmark pairs of two checkouts, written as one BENCH_*.json.

Run it as a script; pytest does not collect it:

    python tests/bench_pairs.py PARENT CHANGE --out BENCH_N.json \\
        [--workloads tables sweep cli-cold] [--seeds 1 2 3] [--pairs 10] \\
        [--seconds 30] [--before TEXT] [--after TEXT]

PARENT and CHANGE are the roots of two source checkouts, best clean copies
of their committed files.  For each workload it runs `python3 bench/run.py
--workload W --seed S --seconds T --trace 0` in both checkouts, one after
the other, --pairs times: the parent first in odd pairs and the change
first in even ones, with the seeds taken in turn (pairs are counted per
workload).  Ten pairs are what a claimed gain is judged on.  Then `tables`
runs once per side with --trace 1 at seed 1 for 5 s, for the per-layer
counts of its fixed traced passes.  Progress goes to stderr.

The output holds "before", "after", "command" and "machine"; "summary", per
workload and end-to-end metric of the change's BENCHMARK.json, the q1,
median and q3 of each side and "change_wins", the pairs in which the change
is strictly better, as "k/n"; "runs", the last stdout line of every untimed
run as parsed JSON with its workload, seed, pair and side; and "traced",
the command and lines of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


TRACED = ("tables", 1, 5.0)


def _run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last stdout line of one bench/run.py, parsed."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Quartiles of each side and the change's wins, per workload and metric."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["line"]["metrics"]
        table = summary[workload] = {}
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            sides = {side: [pair[side][name]["value"] for pair in pairs.values()]
                     for side in ("parent", "change")}
            wins = sum(sign * (change - parent) > 0.0
                       for parent, change in zip(sides["parent"], sides["change"]))
            table[name] = {"parent": _quartiles(sides["parent"]),
                           "change": _quartiles(sides["change"]),
                           "change_wins": f"{wins}/{len(pairs)}"}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", default=["tables", "sweep", "cli-cold"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--before", default="the parent commit")
    parser.add_argument("--after", default="this change")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = []
    for workload in args.workloads:
        for pair in range(1, args.pairs + 1):
            seed = args.seeds[(pair - 1) % len(args.seeds)]
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                line = _run(roots[side], workload, seed, args.seconds, 0)
                runs.append({"workload": workload, "seed": seed, "pair": pair,
                             "side": side, "line": line})
                ops = line["metrics"]["ops_per_s"]["value"]
                print(f"{workload} seed {seed} pair {pair} {side}: {ops:.6g} ops/s, "
                      f"correct {line['correct']}", file=sys.stderr)
    workload, seed, seconds = TRACED
    traced = []
    for side in ("parent", "change"):
        line = _run(roots[side], workload, seed, seconds, 1)
        traced.append({"workload": workload, "seed": seed, "side": side, "traced": True,
                       "line": line})
        print(f"{workload} traced {side}: correct {line['correct']}", file=sys.stderr)

    report = {
        "before": args.before,
        "after": args.after,
        "command": (f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                    f"--trace 0 (workloads {', '.join(args.workloads)}; seeds "
                    f"{', '.join(map(str, args.seeds))} in turn; {args.pairs} pairs each)"),
        "machine": (f"{os.cpu_count()} CPUs, Python {platform.python_version()}; parent and "
                    f"change alternate, the parent first in odd pairs and the change first "
                    f"in even ones (pairs counted per workload)"),
        "summary": summarize(runs, metrics),
        "runs": runs,
        "traced": {"command": (f"python3 bench/run.py --workload {workload} --seed {seed} "
                               f"--seconds {seconds:g} --trace 1 (per-layer counts of "
                               f"the fixed traced passes)"),
                   "runs": traced},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
