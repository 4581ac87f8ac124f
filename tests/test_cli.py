"""Command-line interface: records, formats, exit codes, definition files."""

import csv
import io
import json
import math

import pytest

from envtheory import cli, laws
from envtheory.cli import main

HO_IDENTICAL = """
[system]
type = identical
N = 3
D = 3

[kinetic]
kind = power
coefficient = 0.5
exponent = 2

[potential]
kind = harmonic
strength = 0.5
"""

LINEAR_IDENTICAL = """
[system]
type = identical
N = 3
D = 3

[kinetic]
kind = power
coefficient = 0.5
exponent = 2

[potential]
kind = power
coefficient = 1
exponent = 1
"""

HO_SPLIT = """
[system]
type = nplusone
Na = 2
D = 3

[kinetic-a]
kind = power
coefficient = 0.5
exponent = 2

[kinetic-b]
kind = power
coefficient = 0.16666666666666666
exponent = 2

[potential-aa]
kind = harmonic
strength = 1

[potential-ab]
kind = harmonic
strength = 0.7
"""

REPULSIVE_SPLIT = """
[system]
type = nplusone
Na = 2
D = 3

[kinetic-a]
kind = power
coefficient = 0.5
exponent = 2

[kinetic-b]
kind = power
coefficient = 0.5
exponent = 2

[potential-aa]
kind = power
coefficient = 1
exponent = -1

[potential-ab]
kind = power
coefficient = 1
exponent = -1
"""

SUM_POTENTIAL = """
[system]
type = identical
N = 3
D = 3

[kinetic]
kind = power
coefficient = 0.5
exponent = 2

[potential]
kind = sum
terms = lin quad

[potential.lin]
kind = power
coefficient = 1
exponent = 1

[potential.quad]
weight = 0.5
kind = harmonic
strength = 1
"""


def _write(tmp_path, text, name="system.def"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _run_json(capsys, *argv):
    rc, out, err = _run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def test_solve_identical_json(tmp_path, capsys):
    path = _write(tmp_path, HO_IDENTICAL)
    record = _run_json(capsys, "solve-identical", path, "--output", "json")
    assert record["command"] == "solve-identical"
    assert record["type"] == "identical"
    assert record["N"] == 3
    assert record["q"] == 3.0
    assert record["energy"] == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-11)
    assert record["variational"] == "exact"
    assert record["potential"] == "harmonic(0.5)"
    assert record["state_mode"] == "bgs"


def test_record_floats_carry_twelve_significant_digits(tmp_path, capsys):
    path = _write(tmp_path, HO_IDENTICAL)
    record = _run_json(capsys, "solve-identical", path, "--output", "json")
    for value in record.values():
        if isinstance(value, float):
            assert value == float(f"{value:.12g}")


def test_record_roundtrip_revalidates(tmp_path, capsys):
    # The record carries enough state to re-check the compact set from
    # scratch: equation of motion and quantization both hold at the
    # reported (rho0, p0).
    path = _write(tmp_path, HO_IDENTICAL)
    record = _run_json(capsys, "solve-identical", path, "--output", "json")
    rho0, p0, q = record["rho0"], record["p0"], record["q"]
    N, c2 = 3, 3.0
    lhs = N * p0 * p0                   # N T'(p0) p0 for T = p^2/2
    rhs = c2 * 1.0 * rho0 * rho0        # C2 V'(rho0) rho0 for V = r^2/2
    assert lhs == pytest.approx(rhs, rel=1e-8)
    assert math.sqrt(c2) * rho0 * p0 == pytest.approx(q, rel=1e-8)


def test_csv_and_json_payloads_agree(tmp_path, capsys):
    path = _write(tmp_path, HO_IDENTICAL)
    record = _run_json(capsys, "solve-identical", path, "--output", "json")
    rc, out, _ = _run(capsys, "solve-identical", path, "--output", "csv")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    parsed = rows[0]
    assert set(parsed) == set(record)
    for key, value in record.items():
        if isinstance(value, bool):
            assert parsed[key] == str(value)
        elif isinstance(value, (int, float)):
            assert float(parsed[key]) == value
        else:
            assert parsed[key] == str(value)


def test_pretty_output_lists_keys(tmp_path, capsys):
    path = _write(tmp_path, HO_IDENTICAL)
    rc, out, _ = _run(capsys, "solve-identical", path)
    assert rc == 0
    assert "energy" in out
    assert "5.19615242271" in out


def test_iet_subcommand_forces_improved_method(tmp_path, capsys):
    path = _write(tmp_path, LINEAR_IDENTICAL)
    et = _run_json(capsys, "solve-identical", path, "--output", "json")
    iet = _run_json(capsys, "iet-identical", path, "--output", "json")
    assert et["method"] == "et" and iet["method"] == "iet"
    assert iet["phi"] == pytest.approx(math.sqrt(3.0), rel=1e-9)
    assert iet["energy"] < et["energy"]


def test_dosm_method_reports_mode_constants(tmp_path, capsys):
    text = HO_IDENTICAL + "\n[state]\nmethod = dosm\n"
    path = _write(tmp_path, text)
    record = _run_json(capsys, "solve-identical", path, "--output", "json")
    assert record["phi"] == pytest.approx(2.0, rel=1e-9)
    assert record["mu"] == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert record["energy"] == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-9)
    assert "k" in record and "energy_orbital" in record


def test_explicit_modes_and_energy_unit(tmp_path, capsys):
    text = HO_IDENTICAL + ("\n[state]\nmode = explicit\nmodes = 1,0 0,2\n"
                           "energy_unit = 2\n")
    path = _write(tmp_path, text)
    record = _run_json(capsys, "solve-identical", path, "--output", "json")
    assert record["nu"] == 2.0 and record["lam"] == 3.0
    assert record["q"] == 7.0
    assert record["energy_converted"] == pytest.approx(2.0 * record["energy"])
    assert record["modes"] == "1,0 0,2"


def test_solve_np1_against_oscillator(tmp_path, capsys):
    path = _write(tmp_path, HO_SPLIT)
    record = _run_json(capsys, "solve-np1", path, "--output", "json")
    w_a = math.sqrt(2.0 * 2.7)
    w_b = math.sqrt(2.0 * 2.0 * 0.7 * 5.0 / 6.0)
    assert record["energy"] == pytest.approx(1.5 * (w_a + w_b), rel=1e-9)
    assert record["q_a"] == 1.5 and record["q_b"] == 1.5
    assert record["Na"] == 2


def test_np1_dosm_record(tmp_path, capsys):
    text = HO_SPLIT + "\n[state]\nmethod = dosm\n"
    path = _write(tmp_path, text)
    record = _run_json(capsys, "solve-np1", path, "--output", "json")
    for key in ("mu_a", "mu_b", "k_a", "k_b", "k_c", "A", "B"):
        assert key in record
    assert record["phi_a"] == pytest.approx(2.0, rel=1e-8)
    assert record["phi_b"] == pytest.approx(2.0, rel=1e-8)


def test_sum_potential_definition(tmp_path, capsys):
    path = _write(tmp_path, SUM_POTENTIAL)
    record = _run_json(capsys, "solve-identical", path, "--output", "json")
    assert record["potential"] == "weighted-sum"
    assert record["energy"] > 0.0


def test_type_mismatch_is_an_input_error(tmp_path, capsys):
    path = _write(tmp_path, HO_IDENTICAL)
    rc, out, err = _run(capsys, "solve-np1", path, "--output", "json")
    assert rc == 2
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "InputError"
    assert record["exit"] == 2
    assert "\n" not in err.strip()


def test_missing_file_exits_two(capsys):
    rc, _, err = _run(capsys, "solve-identical", "/nonexistent/no.def")
    assert rc == 2
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_unknown_law_kind_exits_two(tmp_path, capsys):
    text = HO_IDENTICAL.replace("kind = harmonic", "kind = morse")
    path = _write(tmp_path, text)
    rc, _, err = _run(capsys, "solve-identical", path)
    assert rc == 2
    assert "morse" in json.loads(err)["message"]


def test_unknown_keys_are_rejected(tmp_path, capsys):
    text = HO_IDENTICAL + "depth = 3\n"
    path = _write(tmp_path, text)
    rc, _, err = _run(capsys, "solve-identical", path)
    assert rc == 2
    assert "depth" in json.loads(err)["message"]


def test_solver_failure_exits_one(tmp_path, capsys):
    path = _write(tmp_path, REPULSIVE_SPLIT)
    rc, out, err = _run(capsys, "solve-np1", path)
    assert rc == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "NoBindingError"
    assert record["exit"] == 1


CRITICAL_PAIR = """
[system]
type = identical
N = 2
D = 2

[kinetic]
kind = power
coefficient = 1
exponent = 1

[potential]
kind = coulomb
strength = 2
"""


def test_a_vanishing_power_balance_exits_one(tmp_path, capsys):
    # T = |p| against V = -2/r at Q = 1: the motion residual is zero at every
    # rho0, so there is no solution to report (it used to exit 0 with E = 0
    # and n_roots = 273, one per zero grid sample).
    path = _write(tmp_path, CRITICAL_PAIR)
    rc, out, err = _run(capsys, "solve-identical", path)
    assert rc == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "NoRootError"
    assert record["exit"] == 1


@pytest.mark.parametrize("terms", [
    "terms = g\n\n[potential.g]\nkind = coulomb\nstrength = 2",
    "terms = g h\n\n[potential.g]\nkind = coulomb\nstrength = 1\n\n"
    "[potential.h]\nkind = coulomb\nstrength = 1",
], ids=["one-term", "two-terms"])
def test_a_vanishing_balance_written_as_a_sum_exits_one(tmp_path, capsys, terms):
    # The same pair with V as a sum law: the scanned residual is rounding
    # noise around zero (it used to exit 0 with E = 0 and n_roots = 70).
    text = CRITICAL_PAIR.replace("kind = coulomb\nstrength = 2", "kind = sum\n" + terms)
    rc, out, err = _run(capsys, "solve-identical", _write(tmp_path, text))
    assert rc == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "NoRootError"
    assert record["exit"] == 1


def test_residual_gate_uses_tol(tmp_path, capsys):
    path = _write(tmp_path, HO_IDENTICAL)
    rc, _, err = _run(capsys, "solve-identical", path, "--tol", "1e-30")
    assert rc == 1
    assert json.loads(err)["error"] == "NonConvergenceError"


def test_quiet_suppresses_output_not_status(tmp_path, capsys):
    path = _write(tmp_path, HO_IDENTICAL)
    rc, out, err = _run(capsys, "solve-identical", path, "--quiet")
    assert rc == 0 and out == "" and err == ""


def test_atom_defaults_to_bundled_nucleus(capsys):
    record = _run_json(capsys, "atom", "--Z", "2", "--electrons", "2",
                       "--output", "json")
    assert record["nucleus_mass"] == 7294.30
    assert record["binding_ev"] == pytest.approx(33.0, abs=0.5)
    assert record["method"] == "et"
    assert record["filling"] == "0,0:2"


def test_atom_without_bundled_mass_needs_flag(capsys):
    rc, _, err = _run(capsys, "atom", "--Z", "4", "--electrons", "2")
    assert rc == 2
    assert "nucleus-mass" in json.loads(err)["message"]
    record = _run_json(capsys, "atom", "--Z", "4", "--electrons", "2",
                       "--nucleus-mass", "16425", "--output", "json")
    assert record["binding_ev"] > 0.0


def test_fgs_record(capsys):
    record = _run_json(capsys, "fgs", "--n", "8", "--dim", "3", "--d", "2",
                       "--output", "json")
    assert record["nu"] == 3.5
    assert record["lam"] == 9.5
    assert record["q_phi"] == 16.5
    assert record["q_closed"] == 16.5
    assert record["closed_matches"] is True
    assert record["q_approx"] == pytest.approx(16.5, rel=0.25)


def test_fgs_noninteger_phi_has_no_closed_form(capsys):
    record = _run_json(capsys, "fgs", "--n", "8", "--d", "2", "--phi", "1.5",
                       "--output", "json")
    assert "q_closed" not in record
    assert record["q_phi"] == pytest.approx(1.5 * 3.5 + 9.5)


def test_critical_coupling_reference(capsys):
    record = _run_json(capsys, "critical-coupling", "--shape", "gaussian",
                       "--n", "2", "--output", "json")
    assert record["q"] == 1.5
    assert record["u_star"] == pytest.approx(1.0, rel=1e-9)
    assert record["g"] == pytest.approx(2.25 * math.e, rel=1e-9)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_critical_coupling_boson_quantum_number(capsys, dim):
    record = _run_json(capsys, "critical-coupling", "--shape", "gaussian",
                       "--n", "4", "--dim", str(dim), "--output", "json")
    assert record["q"] == 1.5 * dim


def test_critical_coupling_rejects_dimension_below_two(capsys):
    rc, out, err = _run(capsys, "critical-coupling", "--shape", "gaussian",
                        "--n", "3", "--dim", "1")
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "InputError", "message": "need D >= 2", "exit": 2}


def test_critical_coupling_fermion_quantum_number(capsys):
    record = _run_json(capsys, "critical-coupling", "--shape", "exponential",
                       "--n", "8", "--statistics", "fermion", "--d", "2",
                       "--output", "json")
    assert record["q"] == 16.5
    assert record["u_star"] == pytest.approx(2.0, rel=1e-9)


def test_reproduce_table1_csv_passes(capsys):
    rc, out, _ = _run(capsys, "reproduce", "--table", "1", "--output", "csv")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 14
    assert all(row["passed"] == "True" for row in rows)
    assert {row["quantity"] for row in rows} == {"et", "iet"}


def test_reproduce_table1_pretty_summary(capsys):
    rc, out, _ = _run(capsys, "reproduce", "--table", "1")
    assert rc == 0
    assert "-> 14/14 checks passed" in out


def test_reproduce_reports_failures_in_exit_code(capsys):
    rc, out, _ = _run(capsys, "reproduce", "--table", "2", "--quiet")
    assert rc == 1
    assert out == ""


def test_reproduce_json_is_parseable(capsys):
    rc, out, _ = _run(capsys, "reproduce", "--table", "1", "--output", "json")
    assert rc == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 14
    assert payload[0]["table"] == 1


def test_usage_errors_exit_two(capsys):
    rc, _, err = _run(capsys, "atom", "--Z", "2")
    assert rc == 2
    assert json.loads(err)["error"] == "InputError"
    rc, _, err = _run(capsys, "fgs", "--n", "not-a-number")
    assert rc == 2


def test_a_filling_with_too_many_levels_exits_two(capsys):
    # A billion fermions at phi = 1e-9 would list about a billion levels.
    rc, out, err = _run(capsys, "fgs", "--n", "1000000000", "--phi", "1e-9")
    assert rc == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "InputError"
    assert "levels" in record["message"]


def test_fgs_rejects_dimension_below_two(capsys):
    rc, out, err = _run(capsys, "fgs", "--n", "8", "--dim", "1")
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "InputError",
                               "message": "need N >= 2, D >= 2, d >= 1, phi > 0", "exit": 2}


@pytest.mark.parametrize("command, text", [
    ("solve-identical", LINEAR_IDENTICAL.replace("coefficient = 1\n", "coefficient = nan\n")),
    ("solve-identical", HO_IDENTICAL.replace("strength = 0.5", "strength = inf")),
    ("solve-identical", HO_IDENTICAL.replace("N = 3", "N = 3.7")),
    ("solve-identical", HO_IDENTICAL + "\n[state]\nmode = fgs\nd = 1.5\n"),
    ("solve-np1", HO_SPLIT.replace("Na = 2", "Na = 3.7")),
    ("solve-np1", HO_SPLIT.replace("D = 3", "D = inf")),
    ("solve-np1", HO_SPLIT.replace("strength = 0.7", "strength = nan")),
], ids=["nan-coefficient", "inf-strength", "fractional-N", "fractional-d",
        "fractional-Na", "inf-D", "nan-strength"])
def test_malformed_numbers_in_definitions_exit_two(tmp_path, capsys, command, text):
    path = _write(tmp_path, text)
    rc, _, err = _run(capsys, command, path)
    assert rc == 2, err
    assert json.loads(err)["error"] == "InputError"


@pytest.mark.parametrize("argv", [
    ("--Z", "nan"),
    ("--Z", "inf"),
    ("--Z", "nan", "--nucleus-mass", "7294.3"),
    ("--Z", "inf", "--nucleus-mass", "7294.3"),
    ("--Z", "2", "--nucleus-mass", "nan"),
    ("--Z", "2", "--nucleus-mass", "inf"),
], ids=["nan-Z", "inf-Z", "nan-Z-with-mass", "inf-Z-with-mass", "nan-mass",
        "inf-mass"])
def test_atom_rejects_non_finite_numbers(capsys, argv):
    rc, _, err = _run(capsys, "atom", "--electrons", "2", *argv)
    assert rc == 2, err
    assert json.loads(err)["error"] == "InputError"


def _with_potential(body):
    return HO_IDENTICAL.replace("kind = harmonic\nstrength = 0.5", body)


SUM_BODY = """kind = sum
terms = well core

[potential.well]
kind = gaussian
depth = 2

[potential.core]
weight = 0.5
kind = coulomb
strength = 1"""


@pytest.mark.parametrize("body, law", [
    ("kind = power\ncoefficient = -1.5\nexponent = 0.7", laws.power(-1.5, 0.7)),
    ("kind = coulomb\nstrength = 1.3", laws.coulomb(1.3)),
    ("kind = harmonic\nstrength = 0.5", laws.harmonic(0.5)),
    ("kind = gaussian\ndepth = 5", laws.gaussian_well(5.0)),
    ("kind = gaussian\ndepth = 5\nwidth = 1.7", laws.gaussian_well(5.0, 1.7)),
    ("kind = exponential\ndepth = 8", laws.exponential_well(8.0)),
    ("kind = exponential\ndepth = 8\nscale = 0.6", laws.exponential_well(8.0, 0.6)),
    (SUM_BODY, laws.make_weighted_sum([(1.0, laws.gaussian_well(2.0)),
                                       (0.5, laws.coulomb(1.0))])),
], ids=["power", "coulomb", "harmonic", "gaussian", "gaussian-width", "exponential",
        "exponential-scale", "sum-weight"])
def test_definition_law_kinds_match_the_library(tmp_path, body, law):
    built = cli._load_definition(_write(tmp_path, _with_potential(body))).system.potential
    for x in (0.3, 1.0, 2.5):
        assert built.value(x) == law.value(x)
        assert built.d1(x) == law.d1(x)
        assert built.d2(x) == law.d2(x)


@pytest.mark.parametrize("body, key", [
    ("kind = power\ncoefficient = 1", "exponent"),
    ("kind = coulomb\nfoo = 1", "strength"),
    ("kind = harmonic", "strength"),
    ("kind = gaussian\nwidth = 2\nfoo = 1", "depth"),
    ("kind = exponential\nscale = 2", "depth"),
], ids=["power", "coulomb", "harmonic", "gaussian", "exponential"])
def test_missing_law_key_is_named_before_unknown_keys(tmp_path, capsys, body, key):
    rc, _, err = _run(capsys, "solve-identical", _write(tmp_path, _with_potential(body)))
    assert rc == 2
    assert json.loads(err)["message"] == f"[potential] is missing {key!r}"


def test_optional_key_of_another_kind_is_unknown(tmp_path, capsys):
    body = "kind = exponential\ndepth = 1\nwidth = 1"
    rc, _, err = _run(capsys, "solve-identical", _write(tmp_path, _with_potential(body)))
    assert rc == 2
    assert json.loads(err)["message"] == "[potential] has unknown keys: ['width']"


@pytest.mark.parametrize("command, text, message", [
    ("solve-identical", HO_IDENTICAL + "\n[state]\nmethd = iet\n",
     "[state] has unknown keys: ['methd']"),
    ("solve-identical", HO_IDENTICAL + "\n[state]\nrelative = 0,0\n",
     "[state] has unknown keys: ['relative']"),
    ("solve-identical", HO_IDENTICAL.replace("N = 3\n", "N = 3\nNa = 7\n"),
     "[system] has unknown keys: ['Na']"),
    ("solve-np1", HO_SPLIT.replace("Na = 2\n", "Na = 2\nN = 7\n"),
     "[system] has unknown keys: ['N']"),
    ("solve-identical", SUM_POTENTIAL.replace("terms = lin quad\n",
                                              "terms = lin quad\ndepth = 3\n"),
     "[potential] has unknown keys: ['depth']"),
    ("solve-identical", HO_IDENTICAL.replace("N = 3\n", "foo = 1\n"),
     "[system] is missing 'N'"),
    ("solve-identical", SUM_POTENTIAL.replace("terms = lin quad\n", "depth = 3\n"),
     "[potential] sum needs a 'terms' list"),
], ids=["state-typo", "state-relative-identical", "system-Na-identical",
        "system-N-nplusone", "sum-stray-key", "system-missing-first",
        "sum-missing-first"])
def test_unknown_keys_in_system_state_and_sum_exit_two(tmp_path, capsys, command, text,
                                                       message):
    rc, out, err = _run(capsys, command, _write(tmp_path, text))
    assert rc == 2 and out == ""
    assert json.loads(err)["message"] == message


def test_split_state_accepts_relative(tmp_path, capsys):
    path = _write(tmp_path, HO_SPLIT + "\n[state]\nrelative = 1,0\n")
    record = _run_json(capsys, "solve-np1", path, "--output", "json")
    assert record["relative"] == "1,0"


@pytest.mark.parametrize("kind", ["harmonic", "sum", "gaussian"])
def test_kinetic_sections_accept_only_power(tmp_path, capsys, kind):
    text = HO_IDENTICAL.replace("[kinetic]\nkind = power", f"[kinetic]\nkind = {kind}")
    rc, _, err = _run(capsys, "solve-identical", _write(tmp_path, text))
    assert rc == 2
    assert "kinetic kind must be 'power'" in json.loads(err)["message"]


def test_definition_laws_are_built_through_the_laws_module(tmp_path, capsys, monkeypatch):
    # Constructors are looked up in envtheory.laws when a law is built, so a
    # replaced module attribute is the one called.
    calls = []
    for name in ("kinetic_power", "gaussian_well"):
        def counting(*args, _original=getattr(laws, name), _name=name):
            calls.append((_name, args))
            return _original(*args)
        monkeypatch.setattr(laws, name, counting)
    path = _write(tmp_path, _with_potential(
        "kind = sum\nterms = well\n\n[potential.well]\nkind = gaussian\ndepth = 6\nwidth = 1.2"))
    rc, _, err = _run(capsys, "solve-identical", path, "--quiet")
    assert rc == 0, err
    assert calls == [("kinetic_power", (0.5, 2.0)), ("gaussian_well", (6.0, 1.2))]


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_tol_must_be_finite_and_non_negative(tmp_path, capsys, tol):
    path = _write(tmp_path, HO_IDENTICAL)
    rc, out, err = _run(capsys, "solve-identical", path, "--tol", tol)
    assert rc == 2 and out == ""
    assert json.loads(err)["message"].startswith("argument --tol:")


@pytest.mark.parametrize("argv", [
    ("fgs", "--n", "8", "--phi", "nan"),
    ("fgs", "--n", "8", "--phi", "inf"),
    ("critical-coupling", "--shape", "gaussian", "--n", "3", "--m", "nan"),
    ("critical-coupling", "--shape", "gaussian", "--n", "3", "--q", "nan"),
    ("critical-coupling", "--shape", "gaussian", "--n", "3", "--range", "nan"),
    ("critical-coupling", "--shape", "exponential", "--n", "3", "--range", "inf"),
], ids=["fgs-nan-phi", "fgs-inf-phi", "nan-m", "nan-q", "nan-range", "inf-range"])
def test_non_finite_numbers_exit_two(capsys, argv):
    rc, out, err = _run(capsys, *argv)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "InputError"


@pytest.mark.parametrize("method", ["et", "iet", "dosm"])
@pytest.mark.parametrize("command, text", [
    ("solve-identical", HO_IDENTICAL),
    ("solve-np1", HO_SPLIT.replace("Na = 2", "Na = 3")),
], ids=["identical", "split"])
def test_explicit_modes_must_number_n_minus_one(tmp_path, capsys, command, text, method):
    # N = 3 (Na = 3) takes two internal modes; five is an input error for
    # every method, not only for the improved solve that reads them all.
    state = "\n[state]\nmode = explicit\nmodes = 0,0 0,0 0,0 0,0 0,0\n"
    path = _write(tmp_path, text + state + f"method = {method}\n")
    rc, out, err = _run(capsys, command, path)
    assert rc == 2, err
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "InputError"
    assert "5 internal modes, expected 2" in record["message"]


UROH_SPLIT = """
[system]
type = nplusone
Na = 2
D = 3

[kinetic-a]
kind = power
coefficient = 1
exponent = 1

[kinetic-b]
kind = power
coefficient = 1
exponent = 1

[potential-aa]
kind = power
coefficient = 1
exponent = 2

[potential-ab]
kind = power
coefficient = 10
exponent = 2
"""

# Complete method = dosm records, key order included: the orbital fields are
# read through the report's orbital solution, the rest off the report itself.
DOSM_IDENTICAL_RECORD = {
    "command": "solve-identical", "type": "identical", "D": 3, "state_mode": "bgs",
    "N": 3, "kinetic": "power(0.5, 2)", "potential": "power(1, 1)",
    "modes": "0,0 0,0", "method": "dosm", "nu": 1.0, "lam": 1.0,
    "energy": 6.72293660011, "energy_orbital": 3.12012573458,
    "rho0": 0.693361274351, "p0": 0.832683177656, "mu": 0.333333333333,
    "k": 12.9802461328, "phi": 1.73205080757}
DOSM_SPLIT_RECORD = {
    "command": "solve-np1", "type": "nplusone", "D": 3, "state_mode": "bgs",
    "Na": 2, "kinetic_a": "power(1, 1)", "kinetic_b": "power(1, 1)",
    "potential_aa": "power(1, 2)", "potential_ab": "power(10, 2)",
    "relative": "0,0", "modes": "0,0", "method": "dosm", "nu_a": 0.5,
    "lam_a": 0.5, "nu_b": 0.5, "lam_b": 0.5, "energy": 16.292704507,
    "energy_orbital": 7.38029734957, "p_a": 1.23259656629,
    "r_aa": 0.405647730714, "P0": 1.84252469238, "R0": 0.271366783885,
    "mu_a": 0.769418385167, "mu_b": 1.15253272839, "k_a": 40.3009339966,
    "k_b": 129.61053366, "k_c": -12.8583468523, "A": 48.6028422354,
    "B": 106.621157385, "phi_a": 1.81914590711, "phi_b": 1.80619392589}


@pytest.mark.parametrize("text, expected", [
    (LINEAR_IDENTICAL, DOSM_IDENTICAL_RECORD),
    (UROH_SPLIT, DOSM_SPLIT_RECORD),
], ids=["identical", "split"])
def test_dosm_record_is_pinned(tmp_path, capsys, text, expected):
    path = _write(tmp_path, text + "\n[state]\nmethod = dosm\n")
    record = _run_json(capsys, expected["command"], path, "--output", "json")
    assert record.pop("definition") == path
    assert list(record) == list(expected)
    for key, value in expected.items():
        if isinstance(value, float):
            assert record[key] == pytest.approx(value, rel=1e-10), key
        else:
            assert record[key] == value, key
