"""Golden-table plumbing: fixtures, builders, reports, reference rows.

Whether each table agrees with the stored values end to end is the
acceptance suite's question; here the subject is the machinery itself, plus
the rows whose physics is independently pinned (the harmonic columns, the
all-identical limits of the builders).
"""

import math

import pytest

from envtheory import qnum, repro
from envtheory.errors import InputError, NoBindingError
from envtheory.solver_identical import power_law_energy
from envtheory.solver_nplus1 import solve_et_np1


def test_fixture_row_counts():
    assert len(repro.table_fixtures(1)) == 7
    assert len(repro.table_fixtures(2)) == 6
    assert len(repro.table_fixtures(3)) == 10
    assert len(repro.table_fixtures(4)) == 7
    with pytest.raises(InputError):
        repro.table_fixtures(5)


def test_fixture_records_are_complete():
    for label, rec in repro.table_fixtures(1):
        assert {"beta", "exact", "et", "iet", "et_pct", "iet_pct"} <= set(rec)
    for label, rec in repro.table_fixtures(2):
        assert {"kappa", "nu_a", "lam_a", "nu_b", "lam_b", "exact",
                "et", "iet", "phi_a", "phi_b"} <= set(rec)
    for label, rec in repro.table_fixtures(3):
        assert {"m", "beta", "exact", "et", "iet", "phi_a", "phi_b"} <= set(rec)
    for label, rec in repro.table_fixtures(4):
        assert {"Z", "electrons", "nucleus", "exp", "et", "iet",
                "phi_a", "phi_b"} <= set(rec)
        assert rec["nucleus"] in ("he4", "li6", "c12", "o16")


def test_nucleus_mass_lookup():
    assert repro.nucleus_mass("he4") == 7294.30
    assert repro.nucleus_mass("o16") == 29148.95
    with pytest.raises(InputError):
        repro.nucleus_mass("u238")


def test_build_uroh_identical_limit():
    # kappa = 1 makes the third particle identical to the block, so the
    # split ground state at (q_a, q_b) = (1.5, 1.5) equals the N = 3
    # closed power-law form with T = |p|, V = r^2 at Q = q_a + q_b = 3.
    system = repro.build_uroh(1.0)
    sol = solve_et_np1(system, 1.5, 1.5)
    ref = power_law_energy(3, 3, 1.0, 1.0, 1.0, 2.0, 3.0)
    assert sol.energy == pytest.approx(ref, rel=1e-10)
    with pytest.raises(InputError):
        repro.build_uroh(0.0)


def test_build_power_identical_limit():
    # m = 1 with beta = 2 is three unit masses in a pair harmonic force
    # V = r^2/2: E = sqrt(2 N k/m) Q = 3 sqrt(3) at Q = 3.
    system = repro.build_power(1.0, 2.0)
    sol = solve_et_np1(system, 1.5, 1.5)
    assert sol.energy == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-10)
    for m in (-1.0, 0.0):
        with pytest.raises(InputError, match="m must be positive"):
            repro.build_power(m, 2.0)


def test_split_spec_aggregates():
    spec = repro.split_spec(3, 2, 0.5, 1.5, 1.5, 0.5)
    assert spec.nu == 0.5 and spec.lam == 1.5
    assert spec.nu_b == 1.5 and spec.lam_b == 0.5
    assert spec.relative_mode == (1, 0)
    for aggregates in ((0.7, 0.5, 0.5, 0.5), (0.5, 0.25, 0.5, 0.5), (0.5, 0.5, -0.5, 0.5),
                       (0.5, 0.5, 0.5, 0.25)):
        with pytest.raises(InputError, match="not reachable with integer quantum numbers"):
            repro.split_spec(3, 2, *aggregates)
    # One conversion with a filling's: a split spec with a filling's
    # aggregates and a ground relative mode is the spec of that filling.
    filling = qnum.fgs_fill(4, 3, 2, 2.0)
    assert qnum.split_spec(3, 4, filling.nu, filling.lam, 0.5, 0.5) == \
        qnum.spec_from_filling(filling)


def test_table1_reproduces_fully():
    report = repro.run_table(1)
    assert report.table == 1
    assert report.passed
    labels = [row.label for row in report.rows]
    assert labels == ["b-1", "b-0.5", "b0.1", "b0.5", "b1", "b2", "b3"]
    for row in report.rows:
        assert row.error is None
        assert {c.quantity for c in row.checks} == {"et", "iet"}
        assert set(row.extras) >= {"exact", "phi", "et_pct", "iet_pct"}


def test_table1_harmonic_row_is_exact():
    report = repro.run_table(1)
    row = {r.label: r for r in report.rows}["b2"]
    for check in row.checks:
        assert check.computed == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-9)
    assert row.extras["phi"] == pytest.approx(2.0, rel=1e-9)


def test_table2_reference_row():
    report = repro.run_table(2)
    row = {r.label: r for r in report.rows}["k0.1-s1"]
    checks = {c.quantity: c for c in row.checks}
    assert checks["et"].reference == 5.597
    assert checks["et"].computed == pytest.approx(5.597, rel=5e-4)
    assert checks["et"].passed
    assert checks["iet"].computed == pytest.approx(5.307, rel=5e-4)
    assert checks["et"].mode == "rel" and checks["phi_a"].mode == "abs"


def test_table3_harmonic_rows_are_exact():
    # beta = 2 columns print the same number for exact, plain and improved;
    # the whole pipeline must land on it with both deformations equal to 2.
    report = repro.run_table(3)
    rows = {r.label: r for r in report.rows}
    for label, reference in (("m0.2-b2", 7.5730), ("m5-b2", 4.3729)):
        checks = {c.quantity: c for c in rows[label].checks}
        assert checks["et"].computed == pytest.approx(reference, rel=5e-4)
        assert checks["iet"].computed == pytest.approx(reference, rel=5e-4)
        assert checks["phi_a"].computed == pytest.approx(2.0, abs=1e-9)
        assert checks["phi_b"].computed == pytest.approx(2.0, abs=1e-9)
        assert rows[label].passed


def test_exact_columns_are_echoed_not_checked():
    # The converged reference eigenvalues are context, not a target the
    # solver could be asked to hit; they appear in extras only.
    for table in (1, 2, 3):
        report = repro.run_table(table)
        for row in report.rows:
            assert all(c.quantity != "exact" for c in row.checks)
            assert "exact" in row.extras


def test_failed_checks_are_flagged():
    # A mismatch beyond tolerance must come out as passed=False rather
    # than being clipped or skipped; the deformation checks of table 2's
    # strong-coupling rows sit just outside the printed precision.
    report = repro.run_table(2)
    flags = {c.passed for row in report.rows for c in row.checks}
    assert flags == {True, False}
    for row in report.rows:
        for check in row.checks:
            assert check.passed == (check.error < check.tol)


def test_run_table_validation_and_determinism():
    # "1" names table 1's fixtures, but is not the table number 1.
    for table in (0, "1"):
        with pytest.raises(InputError, match="table must be 1, 2, 3 or 4"):
            repro.run_table(table)
    assert repro.run_table(2) == repro.run_table(2)


def test_run_all_covers_every_table():
    reports = repro.run_all()
    assert [r.table for r in reports] == [1, 2, 3, 4]


def test_flat_rows_structure():
    flat = repro.run_table(1).flat_rows()
    assert len(flat) == 14
    expected_keys = {"table", "row", "quantity", "computed", "reference",
                     "error", "tol", "mode", "passed"}
    for record in flat:
        assert set(record) == expected_keys
        assert record["table"] == 1
    assert {r["quantity"] for r in flat} == {"et", "iet"}


def test_report_serialization():
    # A report serialises through its fields and flat_rows(): one record per
    # check, the table and the row label followed by the check's _asdict().
    report = repro.run_table(1)
    assert report.table == 1 and report.passed is True
    assert len(report.rows) == 7
    first = report.rows[0]
    assert first.label == "b-1" and first.error is None
    assert first.checks[0].quantity == "et"
    flat = report.flat_rows()
    assert flat[0] == {"table": 1, "row": "b-1", **first.checks[0]._asdict()}
    assert list(flat[0]) == ["table", "row", "quantity", "computed", "reference",
                             "error", "tol", "mode", "passed"]


def test_a_row_that_raised_is_one_failed_flat_record(monkeypatch):
    # run_table records a row's error and goes on; flat_rows lists that row
    # as one failed "error" record with NaN numbers.
    first = repro.table_fixtures(1)[0][1]
    row = repro._ROWS[1]

    def first_fails(rec, tols):
        if rec is first:
            raise NoBindingError("no minimum")
        return row(rec, tols)

    monkeypatch.setitem(repro._ROWS, 1, first_fails)
    report = repro.run_table(1)
    assert report.rows[0].error == "no minimum" and not report.passed
    failed, passed = report.flat_rows()[:2]
    assert list(failed) == list(passed)
    assert {k: v for k, v in failed.items() if not isinstance(v, float)} == {
        "table": 1, "row": "b-1", "quantity": "error", "mode": "none", "passed": False}
    assert all(math.isnan(failed[k]) for k in ("computed", "reference", "error", "tol"))
    assert passed == {"table": 1, "row": report.rows[1].label,
                      **report.rows[1].checks[0]._asdict()}
