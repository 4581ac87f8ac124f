"""Command-line entry point.

Every successful run prints one structured record (json, csv or an aligned
human view) echoing the inputs alongside the energy, the solver variables,
the deformation parameters when applicable, the residuals and the iteration
counts.  Numbers are serialized with 12 significant digits.  Errors produce a
single-line json record on stderr; input problems exit with status 2, solver
problems with status 1.

The solver subcommands read a system definition file, line-oriented
``key = value`` with ``[section]`` headers and ``#`` comments:

    [system]
    type = identical        # or nplusone
    N = 3                   # nplusone uses Na instead
    D = 3

    [kinetic]               # nplusone: [kinetic-a] and [kinetic-b]
    kind = power            # the only kinetic kind
    coefficient = 0.5
    exponent = 2

    [potential]             # nplusone: [potential-aa] and [potential-ab]
    kind = power            # power | coulomb | harmonic | gaussian
                            #       | exponential | sum
    coefficient = 0.5       # signed: negative coefficients are attractive
    exponent = 2

    [state]
    mode = bgs              # bgs | fgs | explicit
    # d = 2                 # fgs only: single-particle level degeneracy
    # modes = 1,0 0,0       # explicit only: internal (n,l) pairs
    # relative = 0,0        # explicit relative (n,l), split systems only
    # method = et           # et | iet | dosm; iet-* subcommands force iet
    # energy_unit = 27.21   # optional nonzero factor, adds an energy_converted field

A ``sum`` potential lists its members in ``terms`` and describes each one in
a dotted subsection:

    [potential]
    kind = sum
    terms = well tail

    [potential.well]
    weight = 1
    kind = gaussian
    depth = 2
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple

from . import laws, repro
from .errors import EnvTheoryError, InputError, NonConvergenceError, require_finite
from .kvfile import parse_sections
from .qnum import (MAX_FILL_LEVELS, QuantumSpec, _check_fit, bgs, fgs_approx, fgs_closed,
                   fgs_fill, global_q, ground_spec, spec_from_filling)
from .solver_identical import IdenticalSystem, dosm_identical, solve_et, solve_iet
from .solver_nplus1 import (NPlusOneSystem, atom_report, dosm_np1,
                            solve_et_np1, solve_iet_np1)
from .critical import critical_g, u_star
from .records import Record

__all__ = ["main"]

# Default isotopes for the Z values covered by the bundled tables.
_NUCLEUS_BY_Z = {2: "he4", 3: "li6", 6: "c12", 8: "o16"}
# Fields of an N_a+1 solution that every record of one prints, in this order.
_NP1_FIELDS = ("p_a", "r_aa", "P0", "R0", "residual_a", "residual_b", "iterations",
               "n_roots")


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors become InputError, for uniform error records."""

    def error(self, message):
        raise InputError(message)


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _clean(record: dict) -> dict:
    """Drop None values and round floats to 12 significant digits."""
    out = {}
    for key, value in record.items():
        if value is None:
            continue
        if not isinstance(value, float):
            out[key] = value
        else:
            out[key] = _sig12(value)
    return out


def _emit_rows(rows: list[dict], args) -> None:
    if args.quiet:
        return
    rows = [_clean(r) for r in rows]
    if args.output == "json":
        payload = rows[0] if len(rows) == 1 else rows
        print(json.dumps(payload))
    elif args.output == "csv":
        import csv

        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    else:
        width = max(len(k) for row in rows for k in row)
        for row in rows:
            for key, value in row.items():
                text = f"{value:.12g}" if isinstance(value, float) else str(value)
                print(f"{key:<{width}}  {text}")


def _emit_record(record: dict, args) -> int:
    """Print the one record of a command; a number in it that is not finite is refused."""
    for key, value in record.items():
        if isinstance(value, float):
            require_finite(key, value)
    _emit_rows([record], args)
    return 0


def _check_residuals(record: dict, tol: float) -> None:
    residuals = [v for k, v in record.items() if k.startswith("residual")]
    worst = max(residuals, default=0.0)
    if not worst <= tol:
        raise NonConvergenceError(
            f"solution residual {worst:.3g} exceeds --tol {tol:.3g}",
            residuals=tuple(residuals))


def _law_echo(law: laws.Law) -> str:
    if not law.params:
        return law.kind
    return f"{law.kind}({', '.join(f'{p:.12g}' for p in law.params)})"


# ---------------------------------------------------------------- definitions

def _num(section: dict, name: str, key: str, default=None) -> float:
    if key not in section:
        if default is None:
            raise InputError(f"[{name}] is missing {key!r}")
        return default
    try:
        value = float(section[key])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InputError(f"[{name}] {key} = {section[key]!r} is not a finite number")
    return value


def _int(section: dict, name: str, key: str, default=None) -> int:
    value = _num(section, name, key, default)
    if not value.is_integer():
        raise InputError(f"[{name}] {key} = {section[key]!r} is not an integer")
    return int(value)


def _reject_unknown(section: dict, name: str, allowed) -> None:
    unknown = sorted(set(section).difference(allowed))
    if unknown:
        raise InputError(f"[{name}] has unknown keys: {unknown}")


# Law kinds of a definition file other than ``sum``: the name of the ``laws``
# constructor and its (key, default) pairs; a None default marks a required
# key.  Names, not functions, so that a replaced ``laws`` attribute (the way
# bench/tracer.py counts law evaluations) is the one called.
_LAW_KINDS = {
    "power": ("power", (("coefficient", None), ("exponent", None))),
    "coulomb": ("coulomb", (("strength", None),)),
    "harmonic": ("harmonic", (("strength", None),)),
    "gaussian": ("gaussian_well", (("depth", None), ("width", 1.0))),
    "exponential": ("exponential_well", (("depth", None), ("scale", 1.0))),
}


def _build_law(sections: dict, name: str, kinetic: bool) -> laws.Law:
    if name not in sections:
        raise InputError(f"definition is missing the [{name}] section")
    section = dict(sections[name])
    kind = section.pop("kind", None)
    if kind is None:
        raise InputError(f"[{name}] is missing 'kind'")
    if kinetic and kind != "power":
        raise InputError(f"[{name}] kinetic kind must be 'power', got {kind!r}")
    if kind == "sum":
        terms = section.get("terms", "").split()
        if not terms:
            raise InputError(f"[{name}] sum needs a 'terms' list")
        members = []
        for term in terms:
            sub = f"{name}.{term}"
            if sub not in sections:
                raise InputError(f"sum term [{sub}] is missing")
            weight = _num(sections[sub], sub, "weight", 1.0)
            inner = {sub: {k: v for k, v in sections[sub].items() if k != "weight"}}
            inner.update({k: v for k, v in sections.items() if k.startswith(sub + ".")})
            members.append((weight, _build_law(inner, sub, kinetic=False)))
        _reject_unknown(section, name, ("terms",))
        return laws.make_weighted_sum(members)
    if kind not in _LAW_KINDS:
        raise InputError(f"[{name}] unknown law kind {kind!r}")
    constructor, keys = _LAW_KINDS[kind]
    values = [_num(section, name, key, default) for key, default in keys]
    law = getattr(laws, "kinetic_power" if kinetic else constructor)(*values)
    _reject_unknown(section, name, (key for key, _ in keys))
    return law


def _parse_mode(text: str, where: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"{where}: expected 'n,l', got {text!r}")
    try:
        n, l = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"{where}: expected integers in {text!r}") from None
    return n, l


# System kinds of a definition file: the [system] key of the particle count,
# the law sections in the order the system class takes them, and the class.
# Each law is echoed under its section name with '-' read as '_'.
_SYSTEM_KINDS = {
    "identical": ("N", ("kinetic", "potential"), IdenticalSystem),
    "nplusone": ("Na", ("kinetic-a", "kinetic-b", "potential-aa", "potential-ab"),
                 NPlusOneSystem),
}


class _Definition(Record, namedtuple("_Definition", "kind system spec method unit echo")):
    """A loaded definition file: the system, its state, and the inputs to echo."""

    __slots__ = ()


def _load_definition(path: str) -> _Definition:
    with open(path, encoding="utf-8") as handle:
        sections = parse_sections(handle.read())
    if "system" not in sections:
        raise InputError("definition is missing the [system] section")
    sys_sec = sections["system"]
    kind = sys_sec.get("type")
    if kind not in _SYSTEM_KINDS:
        raise InputError(f"[system] type must be 'identical' or 'nplusone', got {kind!r}")
    count_key, law_sections, system_class = _SYSTEM_KINDS[kind]
    D = _int(sys_sec, "system", "D")

    state = sections.get("state", {})
    mode = state.get("mode", "bgs")
    method = state.get("method", "et")
    if method not in ("et", "iet", "dosm"):
        raise InputError(f"[state] method must be et, iet or dosm, got {method!r}")
    unit = _num(state, "state", "energy_unit") if "energy_unit" in state else None
    if unit == 0.0:
        raise InputError("[state] energy_unit must be nonzero")

    N = _int(sys_sec, "system", count_key)
    if N - 1 > MAX_FILL_LEVELS:
        raise InputError(f"[system] {count_key} = {N} needs {N - 1} internal modes; "
                         f"a definition may have at most {MAX_FILL_LEVELS}")
    built = [_build_law(sections, name, name.startswith("kinetic")) for name in law_sections]
    system = system_class(N, D, *built)
    echo = {"definition": path, "type": kind, "D": D, "state_mode": mode, count_key: N}
    echo.update((name.replace("-", "_"), _law_echo(law))
                for name, law in zip(law_sections, built))
    relative = None if kind == "identical" else \
        _parse_mode(state.get("relative", "0,0"), "[state] relative")
    if mode == "bgs":
        spec = ground_spec(N, D)._replace(relative_mode=relative)
    elif mode == "fgs":
        d = _int(state, "state", "d", 1.0)
        spec = spec_from_filling(fgs_fill(N, D, d, 2.0), relative_mode=relative)
        echo["d"] = d
    elif mode == "explicit":
        if "modes" not in state:
            raise InputError("[state] explicit mode needs 'modes'")
        modes = tuple(_parse_mode(m, "[state] modes") for m in state["modes"].split())
        spec = QuantumSpec(D=D, internal_modes=modes, relative_mode=relative)
    else:
        raise InputError(f"[state] unknown mode {mode!r}")
    _check_fit(spec, D, N, split=relative is not None)
    if relative is not None:
        echo["relative"] = f"{relative[0]},{relative[1]}"
    echo["modes"] = " ".join(f"{n},{l}" for n, l in spec.internal_modes)
    _reject_unknown(sys_sec, "system", ("type", "D", count_key))
    _reject_unknown(state, "state", ("mode", "method", "energy_unit")
                    + {"fgs": ("d",), "explicit": ("modes",)}.get(mode, ())
                    + (() if relative is None else ("relative",)))
    return _Definition(kind, system, spec, method, unit, echo)


# ---------------------------------------------------------------- subcommands

def _run_identical(system: IdenticalSystem, spec: QuantumSpec, method: str) -> dict:
    record = {"nu": spec.nu, "lam": spec.lam}
    if method == "dosm":
        report = dosm_identical(system, spec.lam)
        orbital = report.orbital
        record.update(energy=report.level(spec.nu), energy_orbital=orbital.energy,
                      rho0=orbital.rho0, p0=orbital.p0, mu=report.mu, k=report.k,
                      phi=report.phi)
        return record
    if method == "iet":
        solution = solve_iet(system, spec)
    else:
        solution = solve_et(system, global_q(spec, 2.0))
    record.update(q=solution.q, energy=solution.energy, rho0=solution.rho0,
                  p0=solution.p0, residual_motion=solution.residual_motion,
                  residual_quantization=solution.residual_quantization,
                  n_roots=solution.n_roots, variational=solution.variational,
                  phi=solution.phi)
    return record


def _run_np1(system: NPlusOneSystem, spec: QuantumSpec, method: str) -> dict:
    record = {"nu_a": spec.nu, "lam_a": spec.lam, "nu_b": spec.nu_b, "lam_b": spec.lam_b}
    if method == "dosm":
        report = dosm_np1(system, spec.lam, spec.lam_b)
        orbital = report.orbital
        record.update(energy=report.level(spec.nu, spec.nu_b),
                      energy_orbital=orbital.energy,
                      p_a=orbital.p_a, r_aa=orbital.r_aa, P0=orbital.P0, R0=orbital.R0,
                      mu_a=report.mu_a, mu_b=report.mu_b, k_a=report.k_a,
                      k_b=report.k_b, k_c=report.k_c, A=report.A, B=report.B,
                      phi_a=report.phi_a, phi_b=report.phi_b)
        return record
    if method == "iet":
        solution = solve_iet_np1(system, spec)
    else:
        solution = solve_et_np1(system, global_q(spec, 2.0), 2.0 * spec.nu_b + spec.lam_b)
    record.update(q_a=solution.q_a, q_b=solution.q_b, energy=solution.energy,
                  **{key: getattr(solution, key) for key in _NP1_FIELDS},
                  phi_a=solution.phi_a, phi_b=solution.phi_b)
    return record


def _cmd_solver(args) -> int:
    definition = _load_definition(args.definition)
    expect = "identical" if args.command.endswith("-identical") else "nplusone"
    if definition.kind != expect:
        raise InputError(f"{args.command} needs a definition of type {expect!r}, "
                         f"got {definition.kind!r}")
    method = "iet" if args.command.startswith("iet-") else definition.method
    runner = _run_identical if expect == "identical" else _run_np1
    record = {"command": args.command, **definition.echo, "method": method}
    record.update(runner(definition.system, definition.spec, method))
    if definition.unit is not None:
        record["energy_converted"] = record["energy"] * definition.unit
    _check_residuals(record, args.tol)
    return _emit_record(record, args)


def _cmd_atom(args) -> int:
    mass = args.nucleus_mass
    if mass is None:
        key = _NUCLEUS_BY_Z.get(args.Z)
        if key is None:
            raise InputError(f"no bundled nucleus mass for Z = {args.Z}; "
                             f"pass --nucleus-mass")
        mass = repro.nucleus_mass(key)
    result = atom_report(args.Z, args.electrons, mass, args.method)
    record = {
        "command": "atom", "Z": result.Z, "electrons": result.n_electrons,
        "nucleus_mass": result.nucleus_mass, "method": result.method,
        "filling": " ".join(f"{n},{l}:{occ}" for n, l, occ in result.filling_levels),
        "nu_a": result.nu_a, "lam_a": result.lam_a,
        "phi_a": result.phi_a, "phi_b": result.phi_b,
        "energy": result.energy, "binding_ev": result.binding_ev,
        **{key: getattr(result.solution, key) for key in _NP1_FIELDS},
    }
    _check_residuals(record, args.tol)
    return _emit_record(record, args)


def _cmd_fgs(args) -> int:
    filling = fgs_fill(args.n, args.dim, args.d, args.phi)
    record = {
        "command": "fgs", "N": args.n, "D": args.dim, "d": args.d,
        "phi": args.phi,
        "levels": " ".join(f"{n},{l}:{occ}" for n, l, occ in filling.levels),
        "nu": filling.nu, "lam": filling.lam, "q_phi": filling.q_phi,
        "q_approx": fgs_approx(args.n, args.dim, args.d, args.phi),
    }
    if args.phi in (1.0, 2.0):
        closed = fgs_closed(args.n, args.dim, args.d, int(args.phi))
        record["q_closed"] = closed
        record["closed_matches"] = math.isclose(closed, filling.q_phi,
                                                rel_tol=0.0, abs_tol=1e-9)
    return _emit_record(record, args)


def _cmd_critical(args) -> int:
    if args.shape == "gaussian":
        well = laws.gaussian_well(1.0, args.range)
    else:
        well = laws.exponential_well(1.0, args.range)
    shape = laws.make_weighted_sum([(-1.0, well)])
    if args.q is not None:
        Q = args.q
    elif args.statistics == "boson":
        Q = bgs(args.n, args.dim).q_phi
    else:
        Q = fgs_fill(args.n, args.dim, args.d, 2.0).q_phi
    record = {
        "command": "critical-coupling", "shape": args.shape, "range": args.range,
        "m": args.m, "N": args.n, "D": args.dim, "statistics": args.statistics,
        "d": args.d, "q": Q, "u_star": u_star(shape),
        "g": critical_g(shape, args.m, args.n, Q),
    }
    return _emit_record(record, args)


def _cmd_reproduce(args) -> int:
    tables = (1, 2, 3, 4) if args.table == "all" else (int(args.table),)
    reports = [repro.run_table(t) for t in tables]
    if args.output in ("json", "csv"):
        _emit_rows([row for rep in reports for row in rep.flat_rows()], args)
    elif not args.quiet:
        for rep in reports:
            tols = ", ".join(f"{k} {v:g}" for k, v in repro.TOLERANCES[rep.table].items())
            print(f"table {rep.table}  ({tols})")
            for row in rep.rows:
                if row.error is not None:
                    print(f"  {row.label:<10} FAIL  {row.error}")
                    continue
                for check in row.checks:
                    verdict = "pass" if check.passed else "FAIL"
                    print(f"  {row.label:<10} {check.quantity:<6} "
                          f"computed {check.computed:<16.10g} "
                          f"reference {check.reference:<12g} "
                          f"{check.mode} error {check.error:<10.3g} {verdict}")
            n_checks = sum(len(r.checks) for r in rep.rows)
            n_pass = sum(c.passed for r in rep.rows for c in r.checks)
            print(f"  -> {n_pass}/{n_checks} checks passed")
    return 0 if all(rep.passed for rep in reports) else 1


def _tolerance(text: str) -> float:
    """The --tol value: a finite number >= 0, which a residual can meet."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--output", choices=("pretty", "json", "csv"),
                        default="pretty", help="record format (default pretty)")
    common.add_argument("--tol", type=_tolerance, default=1e-8,
                        help="largest acceptable solution residual (default 1e-8)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the record; exit status still reports the outcome")

    parser = _Parser(prog="envtheory",
                     description="Approximate eigenvalues of N-body Hamiltonians "
                                 "by reduction to compact equation sets.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, help_text in (
            ("solve-identical", "solve an identical-N definition file"),
            ("iet-identical", "same, forcing the improved method"),
            ("solve-np1", "solve an Na+1 definition file"),
            ("iet-np1", "same, forcing the improved method")):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("definition", help="path to a system definition file")
        p.set_defaults(handler=_cmd_solver)

    p = sub.add_parser("atom", parents=[common],
                       help="binding energy of Z-charged nucleus plus electrons")
    p.add_argument("--Z", type=float, required=True, help="nuclear charge")
    p.add_argument("--electrons", type=int, required=True, help="electron count")
    p.add_argument("--method", choices=("et", "iet"), default="et")
    p.add_argument("--nucleus-mass", type=float, default=None,
                   help="nucleus mass in electron masses "
                        "(default: bundled isotope for Z in {2,3,6,8})")
    p.set_defaults(handler=_cmd_atom)

    p = sub.add_parser("fgs", parents=[common],
                       help="fermionic ground-state filling and its quantum number")
    p.add_argument("--n", type=int, required=True, help="particle count")
    p.add_argument("--dim", type=int, default=3, help="dimension (default 3)")
    p.add_argument("--d", type=int, default=1, help="level degeneracy (default 1)")
    p.add_argument("--phi", type=float, default=2.0,
                   help="level key weight phi*n + l (default 2)")
    p.set_defaults(handler=_cmd_fgs)

    p = sub.add_parser("critical-coupling", parents=[common],
                       help="smallest coupling g binding N particles in -g v(r)")
    p.add_argument("--shape", choices=("gaussian", "exponential"), required=True)
    p.add_argument("--range", type=float, default=1.0,
                   help="width or scale of the shape (default 1)")
    p.add_argument("--m", type=float, default=1.0, help="particle mass (default 1)")
    p.add_argument("--n", type=int, required=True, help="particle count")
    p.add_argument("--q", type=float, default=None,
                   help="global quantum number (default: ground state)")
    p.add_argument("--statistics", choices=("boson", "fermion"), default="boson")
    p.add_argument("--d", type=int, default=1,
                   help="level degeneracy for fermions (default 1)")
    p.add_argument("--dim", type=int, default=3, help="dimension (default 3)")
    p.set_defaults(handler=_cmd_critical)

    p = sub.add_parser("reproduce", parents=[common],
                       help="recompute the bundled reference tables")
    p.add_argument("--table", choices=("1", "2", "3", "4", "all"), default="all")
    p.set_defaults(handler=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (EnvTheoryError, OSError) as exc:
        code = 2 if isinstance(exc, (InputError, OSError)) else 1
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit": code}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
