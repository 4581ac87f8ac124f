"""Golden-table reproduction.

Loads the bundled reference tables, rebuilds the four benchmark Hamiltonian
families, recomputes every row with both the plain and the improved method,
and reports per-row comparisons against the stored reference values.  The
stored numbers are quoted to the precision of their source tabulation, so
each table carries its own tolerance.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from importlib import resources

from . import laws
from .errors import EnvTheoryError, InputError
from .kvfile import parse_sections
from .qnum import QuantumSpec, ground_spec
from .records import Record
from .solver_identical import IdenticalSystem, solve_et, solve_iet
from .solver_nplus1 import (NPlusOneSystem, atom_report, solve_et_np1,
                            solve_iet_np1)

__all__ = [
    "Check",
    "RowReport",
    "TableReport",
    "TOLERANCES",
    "build_uroh",
    "build_power",
    "split_spec",
    "table_fixtures",
    "nucleus_mass",
    "run_table",
    "run_all",
]

# Per-table tolerances, set by the precision of the reference tabulation:
# 5-6 digits for table 1, 3-4 decimals for tables 2 and 3, integer eV and
# two-decimal deformation parameters for table 4.
TOLERANCES = {
    1: {"energy_rel": 5e-5},
    2: {"energy_rel": 5e-4, "phi_abs": 0.005},
    3: {"energy_rel": 5e-4, "phi_abs": 0.005},
    4: {"energy_abs": 1.0, "phi_abs": 0.01},
}

_fixture_cache: dict[str, dict[str, str]] | None = None


def _fixtures() -> dict[str, dict[str, str]]:
    global _fixture_cache
    if _fixture_cache is None:
        text = resources.files("envtheory").joinpath("data/reference_tables.txt").read_text()
        _fixture_cache = parse_sections(text)
    return _fixture_cache


def table_fixtures(table: int) -> list[tuple[str, dict[str, str]]]:
    """The stored rows of one table, as (label, record) pairs in file order."""
    prefix = f"table{table}."
    rows = [(name[len(prefix):], record)
            for name, record in _fixtures().items() if name.startswith(prefix)]
    if not rows:
        raise InputError(f"no fixtures for table {table}")
    return rows


def nucleus_mass(symbol: str) -> float:
    """Nucleus mass in electron-mass units, looked up by isotope symbol."""
    masses = _fixtures().get("masses", {})
    if symbol not in masses:
        raise InputError(f"unknown nucleus {symbol!r}; known: {sorted(masses)}")
    return float(masses[symbol])


def build_uroh(kappa: float) -> NPlusOneSystem:
    """Two massless ultrarelativistic particles plus a third one.

    T_a = T_b = |p|, V_aa = r^2 and V_ab = kappa r^2; kappa = 1 is the
    all-identical limit.
    """
    if kappa <= 0.0:
        raise InputError("kappa must be positive")
    return NPlusOneSystem(
        N_a=2, D=3,
        kinetic_a=laws.kinetic_power(1.0, 1.0),
        kinetic_b=laws.kinetic_power(1.0, 1.0),
        potential_aa=laws.potential_power(1.0, 2.0),
        potential_ab=laws.potential_power(kappa, 2.0),
    )


def build_power(m: float, beta: float) -> NPlusOneSystem:
    """Two unit-mass particles plus a third of mass m, power-law potentials.

    T_a = p^2/2, T_b = p^2/(2m), V_aa = V_ab = sgn(beta) r^beta / 2; m = 1
    is the all-identical limit.
    """
    if m <= 0.0:
        raise InputError("m must be positive")
    pot = laws.potential_power(0.5, beta)
    return NPlusOneSystem(
        N_a=2, D=3,
        kinetic_a=laws.kinetic_power(0.5, 2.0),
        kinetic_b=laws.kinetic_power(0.5 / m, 2.0),
        potential_aa=pot,
        potential_ab=pot,
    )


def split_spec(D: int, N_a: int, nu_a: float, lam_a: float,
               nu_b: float, lam_b: float) -> QuantumSpec:
    """Spec with the given aggregates, quanta concentrated on the first mode."""
    n_sum = nu_a - 0.5 * (N_a - 1)
    l_sum = lam_a - 0.5 * (D - 2) * (N_a - 1)
    n_b = nu_b - 0.5
    l_b = lam_b - 0.5 * (D - 2)
    parts = (n_sum, l_sum, n_b, l_b)
    if any(abs(p - round(p)) > 1e-9 or round(p) < 0 for p in parts):
        raise InputError(f"aggregates {(nu_a, lam_a, nu_b, lam_b)} are not "
                         f"reachable with integer quantum numbers")
    modes = [(round(n_sum), round(l_sum))] + [(0, 0)] * (N_a - 2)
    return QuantumSpec(D=D, internal_modes=tuple(modes),
                       relative_mode=(round(n_b), round(l_b)))


class Check(Record, namedtuple("Check", "quantity computed reference error tol mode passed")):
    """One compared quantity; ``mode`` says whether ``error`` is relative or absolute."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"quantity": self.quantity, "computed": self.computed,
                "reference": self.reference, "error": self.error,
                "tol": self.tol, "mode": self.mode, "passed": self.passed}


class RowReport(Record, namedtuple("RowReport", "label checks extras error")):
    """One recomputed row: its checks, its extras, or the error that stopped it.

    Each report gets its own ``extras`` dict when none is given.
    """

    __slots__ = ()

    def __new__(cls, label: str, checks: tuple[Check, ...] = (), extras: dict | None = None,
                error: str | None = None) -> RowReport:
        return tuple.__new__(cls, (label, checks, {} if extras is None else extras, error))

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"row": self.label, "passed": self.passed, "error": self.error,
                "checks": [c.to_dict() for c in self.checks], "extras": self.extras}


class TableReport(Record, namedtuple("TableReport", "table rows")):
    """The row reports of one recomputed table."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {"table": self.table, "passed": self.passed,
                "rows": [r.to_dict() for r in self.rows]}

    def flat_rows(self) -> list[dict]:
        """One record per compared quantity, convenient for csv output."""
        out = []
        for row in self.rows:
            if row.error is not None:
                out.append({"table": self.table, "row": row.label,
                            "quantity": "error", "computed": math.nan,
                            "reference": math.nan, "error": math.nan,
                            "tol": math.nan, "mode": "none", "passed": False})
            for check in row.checks:
                record = {"table": self.table, "row": row.label}
                record.update(check.to_dict())
                out.append(record)
        return out


def _rel(quantity: str, computed: float, reference: float, tol: float) -> Check:
    error = abs(computed - reference) / abs(reference)
    return Check(quantity, computed, reference, error, tol, "rel", error < tol)


def _abs(quantity: str, computed: float, reference: float, tol: float) -> Check:
    error = abs(computed - reference)
    return Check(quantity, computed, reference, error, tol, "abs", error < tol)


def _pct(computed: float, exact: float) -> float:
    return 100.0 * abs(computed - exact) / abs(exact)


def _table1_row(rec: dict, tols: dict) -> tuple[tuple[Check, ...], dict]:
    beta, exact = float(rec["beta"]), float(rec["exact"])
    system = IdenticalSystem(3, 3, laws.kinetic_power(0.5, 2.0),
                             laws.potential_power(0.5, beta))
    et = solve_et(system, 3.0)
    iet = solve_iet(system, ground_spec(3, 3))
    checks = (_rel("et", et.energy, float(rec["et"]), tols["energy_rel"]),
              _rel("iet", iet.energy, float(rec["iet"]), tols["energy_rel"]))
    extras = {"exact": exact, "phi": iet.phi,
              "et_pct": _pct(et.energy, exact), "et_pct_ref": float(rec["et_pct"]),
              "iet_pct": _pct(iet.energy, exact), "iet_pct_ref": float(rec["iet_pct"])}
    return checks, extras


def _split_row(build, keys, rec: dict, tols: dict) -> tuple[tuple[Check, ...], dict]:
    system = build(*(float(rec[k]) for k in keys))
    # Rows without explicit quantum numbers are ground states.
    nu_a, lam_a = float(rec.get("nu_a", 0.5)), float(rec.get("lam_a", 0.5))
    nu_b, lam_b = float(rec.get("nu_b", 0.5)), float(rec.get("lam_b", 0.5))
    exact = float(rec["exact"])
    et = solve_et_np1(system, 2.0 * nu_a + lam_a, 2.0 * nu_b + lam_b)
    iet = solve_iet_np1(system, split_spec(3, 2, nu_a, lam_a, nu_b, lam_b))
    checks = (_rel("et", et.energy, float(rec["et"]), tols["energy_rel"]),
              _rel("iet", iet.energy, float(rec["iet"]), tols["energy_rel"]),
              _abs("phi_a", iet.phi_a, float(rec["phi_a"]), tols["phi_abs"]),
              _abs("phi_b", iet.phi_b, float(rec["phi_b"]), tols["phi_abs"]))
    extras = {"exact": exact,
              "et_pct": _pct(et.energy, exact), "et_pct_ref": float(rec["et_pct"]),
              "iet_pct": _pct(iet.energy, exact), "iet_pct_ref": float(rec["iet_pct"])}
    return checks, extras


def _table4_row(rec: dict, tols: dict) -> tuple[tuple[Check, ...], dict]:
    Z, n_e = float(rec["Z"]), int(rec["electrons"])
    mass = nucleus_mass(rec["nucleus"])
    et = atom_report(Z, n_e, mass, "et")
    iet = atom_report(Z, n_e, mass, "iet")
    checks = (_abs("et", et.binding_ev, float(rec["et"]), tols["energy_abs"]),
              _abs("iet", iet.binding_ev, float(rec["iet"]), tols["energy_abs"]),
              _abs("phi_a", iet.phi_a, float(rec["phi_a"]), tols["phi_abs"]),
              _abs("phi_b", iet.phi_b, float(rec["phi_b"]), tols["phi_abs"]))
    extras = {"exp": float(rec["exp"]), "nucleus_mass": mass,
              "nu_a": iet.nu_a, "lam_a": iet.lam_a}
    return checks, extras


# The row function of each table: it recomputes one stored row and returns
# its checks and extras.
_ROWS = {
    1: _table1_row,
    2: partial(_split_row, build_uroh, ("kappa",)),
    3: partial(_split_row, build_power, ("m", "beta")),
    4: _table4_row,
}


def run_table(table: int) -> TableReport:
    """Recompute one table; solver errors mark rows failed but the run continues."""
    if table not in _ROWS:
        raise InputError("table must be 1, 2, 3 or 4")
    rows = []
    for label, rec in table_fixtures(table):
        try:
            rows.append(RowReport(label, *_ROWS[table](rec, TOLERANCES[table])))
        except EnvTheoryError as exc:
            rows.append(RowReport(label, error=str(exc)))
    return TableReport(table, tuple(rows))


def run_all() -> list[TableReport]:
    return [run_table(t) for t in (1, 2, 3, 4)]
