"""Record the benchmark's goldens and its seed failure census.

    python3 bench/record.py

Run from the root of a source checkout, only at a commit whose outputs are
accepted as the reference: it overwrites ``bench/golden/cli.json`` (the
exit code and json record of every cli-cold command, each run as a fresh
process), ``bench/golden/tables.json`` (every recomputed value, n_roots and
reference verdict of the 30 table rows) and ``bench/census.json``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

CENSUS_SEEDS = range(1, 11)


def _write(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=False) + "\n")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads
    from run import check_all, execute

    env = workloads.cli_env(root)
    cli = {" ".join(argv): workloads.run_cli_process(argv, root, env)
           for argv in workloads.cli_commands()}
    _write(workloads.GOLDEN_DIR / "cli.json", cli)

    rows = [(t, label) for t in (1, 2, 3, 4)
            for label, _ in workloads.envtheory.repro.table_fixtures(t)]
    tables = {label: workloads.run_in_process(workloads.Op("row", {"table": t, "label": label}))
              for t, label in rows}
    _write(workloads.GOLDEN_DIR / "tables.json", tables)
    verdicts = [v for row in tables.values() for v in row["verdicts"].values()]
    print(f"tables: {sum(verdicts)}/{len(verdicts)} reference checks pass")

    census = {"seeds": list(CENSUS_SEEDS), "workloads": {}, "frontier": {}}
    for workload in workloads.WORKLOADS:
        goldens = workloads.load_goldens(workload)
        attempted = failed = 0
        for seed in CENSUS_SEEDS:
            results = list(execute(workloads.generate(workload, seed, 0),
                                   workloads.run_in_process))
            attempted += len(results)
            failed += len(check_all(results, goldens, workloads.check))
        census["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                         "fail_rate": failed / attempted}
    by_class = defaultdict(list)
    attempted = 0
    for seed in CENSUS_SEEDS:
        results = list(execute(workloads.frontier_ops(seed), workloads.run_in_process))
        attempted += len(results)
        for failure in check_all(results, {}, workloads.check):
            by_class[failure["class"]].append(
                {"seed": seed, "op": failure["op"], "problem": failure["problems"][0]})
    failed = sum(len(v) for v in by_class.values())
    census["frontier"] = {"attempted": attempted, "failed": failed,
                          "fail_rate": failed / attempted,
                          "by_class": {k: {"count": len(v), "ops": v}
                                       for k, v in sorted(by_class.items())}}
    _write(workloads.BENCH_DIR / "census.json", census)
    print(json.dumps({k: v for k, v in census["workloads"].items()}))
    print(f"frontier: {failed}/{attempted} fail; "
          + ", ".join(f"{k} {len(v)}" for k, v in sorted(by_class.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
