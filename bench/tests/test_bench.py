"""Tests of the benchmark itself: generators, comparator, oracles and tracer."""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    assert workloads.generate(workload, 7, 3) == workloads.generate(workload, 7, 3)


def _labels(ops):
    return sorted(op.label() for op in ops)


def test_passes_repeat_the_same_operations_in_a_new_order():
    for workload in workloads.WORKLOADS:
        a, b = workloads.generate(workload, 1, 0), workloads.generate(workload, 1, 1)
        assert a != b and _labels(a) == _labels(b)


def test_seed_draws_sweep_inputs_and_only_orders_fixed_mixes():
    assert _labels(workloads.generate("sweep", 7, 0)) != _labels(workloads.generate("sweep", 8, 0))
    assert workloads.frontier_ops(7) == workloads.frontier_ops(7)
    for workload in ("cli-cold", "tables"):
        a, b = workloads.generate(workload, 1, 0), workloads.generate(workload, 2, 0)
        assert a != b and _labels(a) == _labels(b)


def test_comparator_flags_drift_and_flipped_verdict():
    golden = workloads.load_golden("tables")["m5-b1"]
    assert workloads.compare(golden, copy.deepcopy(golden)) == []
    drifted = copy.deepcopy(golden)
    drifted["values"]["iet"] *= 1.0 + 1e-9
    assert workloads.compare(golden, drifted)
    flipped = copy.deepcopy(golden)
    flipped["verdicts"]["et"] = not flipped["verdicts"]["et"]
    assert workloads.compare(golden, flipped)
    roots = copy.deepcopy(golden)
    roots["n_roots"]["iet"] += 1
    assert workloads.compare(golden, roots)


def test_comparator_on_cli_records():
    golden = workloads.load_golden("cli")
    key = next(k for k in golden if k.startswith("atom --Z 2 ") and "iet" in k)
    record = golden[key]
    assert workloads.compare(record, copy.deepcopy(record)) == []
    drifted = copy.deepcopy(record)
    drifted["record"]["binding_ev"] *= 1.0 + 1e-9
    assert workloads.compare(record, drifted)
    exit_changed = copy.deepcopy(record)
    exit_changed["exit"] = 1
    assert workloads.compare(record, exit_changed)
    # Round-off residuals and Newton iteration counts are not results.
    noise = copy.deepcopy(record)
    noise["record"]["residual_a"] *= 3.0
    noise["record"]["iterations"] += 1
    assert workloads.compare(record, noise) == []


def test_reference_rows_match_their_goldens():
    goldens = workloads.load_goldens("tables")
    for label in ("b2", "k10-s1", "he"):
        table = goldens["tables"][label]["table"]
        op = workloads.Op("row", {"table": table, "label": label})
        assert workloads.check(op, workloads.run_in_process(op), goldens) == []


def test_sweep_oracles_accept_outputs_and_catch_a_wrong_energy():
    ops = workloads.sweep_ops(3)[:40]
    for op in ops:
        assert workloads.check(op, workloads.run_in_process(op), {}) == [], op.label()
    harmonic = next(op for op in ops if op.kind == "identical"
                    and op.params["law"] == "harmonic")
    out = workloads.run_in_process(harmonic)
    out["energy"] *= 1.0 + 1e-7
    assert workloads.check(harmonic, out, {})


def _module_namespaces():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "envtheory" or name.startswith("envtheory.")}


def test_tracer_restores_originals_and_leaves_outputs_unchanged():
    import envtheory.solver_nplus1 as np1
    ops = [workloads.Op("row", {"table": 4, "label": "he"})] + workloads.sweep_ops(3)[:12]
    plain = [workloads.run_in_process(op) for op in ops]
    before = _module_namespaces()
    tracer = Tracer()
    tracer.install()
    try:
        assert np1.find_roots is not before["envtheory.solver_nplus1"]["find_roots"]
        assert np1.solve_et is not before["envtheory.solver_nplus1"]["solve_et"]
        traced = [tracer.op(workloads.run_in_process)(op) for op in ops]
    finally:
        tracer.uninstall()
    after = _module_namespaces()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
    metrics = tracer.metrics(len(ops))
    assert metrics["laws.evals"][0] > 0
    assert metrics["rootscan.calls"][0] > 0
    assert metrics["solver_nplus1.calls"][0] > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    value, percentile = run.tail([float(i) for i in range(12)])
    assert value == 6.0 and percentile == pytest.approx(100.0 * 7 / 12)
