"""Workloads of the envtheory benchmark: seeded inputs, runners and checks.

Three closed-loop workloads, one client running one operation at a time:

* ``cli-cold``: one operation is one fresh ``python -m envtheory.cli``
  process.  The command mix is fixed; the seed only orders it.
* ``tables``: one operation is one reference row of the paper's tables,
  recomputed in process with the public calls ``envtheory.repro`` makes.
  The seed only orders the 30 rows.
* ``sweep``: warm in-process operations drawn by the seeded generator from
  a stated physical domain and checked against oracles.

Inputs are plain data (``Op``).  Runners build every law and system at
call time through attribute lookups on the ``envtheory`` modules, so the
names the tracer patches see every call.  Checks run after the timed
section and use no patched name.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import envtheory
import envtheory.cli

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
WORKLOADS = ("cli-cold", "tables", "sweep")

# Goldens hold values at 12 or more significant digits; a drift above this
# relative size counts as a changed result.
REL_TOL = 1e-10
# Largest acceptable solver residual; the CLI's default --tol.
RESIDUAL_TOL = 1e-8
# Oracle agreement for closed forms evaluated independently of the solvers.
ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One operation: a kind and the plain-data inputs it runs on."""

    kind: str
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        return f"{self.kind} {json.dumps(self.params, sort_keys=True)}"


# ------------------------------------------------------------------ generators

def _rng(workload: str, seed: int, pass_index: int | str) -> random.Random:
    # String seeds are hashed with sha512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _strata(rng: random.Random, n: int, lo: float, hi: float,
            log: bool = False) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled.

    Stratifying the parameters that set an operation's cost keeps the cost
    of a pass nearly the same for every seed.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    draws = [a + (b - a) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(draws)
    return [math.exp(x) for x in draws] if log else draws


def _int_strata(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [min(hi, int(x)) for x in _strata(rng, n, lo, hi + 1)]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def cli_commands() -> list[list[str]]:
    """The cli-cold command mix, as argv lists for ``envtheory.cli``."""
    commands = [["fgs", "--n", "8", "--dim", "3", "--d", "2"]]
    for Z in (2, 3, 6, 8):
        for method in ("et", "iet"):
            commands.append(["atom", "--Z", str(Z), "--electrons", str(Z),
                             "--method", method])
    commands.append(["critical-coupling", "--shape", "gaussian", "--n", "3"])
    commands.append(["solve-identical", "bench/defs/gaussian.def"])
    commands.append(["iet-np1", "bench/defs/ion.def"])
    commands.append(["reproduce", "--table", "1"])
    commands.append(["reproduce", "--table", "4"])
    return [argv + ["--output", "json"] for argv in commands]


def table_rows() -> list[tuple[int, str]]:
    """(table, label) of every reference row, in file order."""
    golden = load_golden("tables")
    return [(record["table"], label) for label, record in golden.items()]


# Law kinds of the identical-particle part of the sweep domain.
IDENTICAL_LAWS = ("gaussian", "exponential", "sum", "yukawa", "power", "harmonic")
# N_a+1 families of the sweep domain: harmonic splits have a closed form;
# "ion" is a repulsive block bound by an attractive Coulomb cross potential.
NP1_FAMILIES = ("harmonic", "ion")
# Stratified blocks of 40 operations in one sweep pass.
SWEEP_BLOCKS = 4


def _identical_params(rng: random.Random, law: str, N: int) -> dict:
    """Law constants for N identical particles in D = 3, bosonic ground state.

    Wells get a depth of 2 to 8 times the critical coupling of their shape
    (the closed form in ``envtheory.critical``), so every draw binds.
    """
    m = _log_uniform(rng, 0.5, 2.0)
    bind = 4.5 / (N * m)  # 2 Q^2 / (N (N-1)^2 m) at Q = 3(N-1)/2
    factor = rng.uniform(2.0, 8.0)
    if law == "gaussian":
        w = rng.uniform(0.5, 2.0)
        return {"m": m, "width": w, "depth": factor * math.e / w ** 2 * bind}
    if law == "exponential":
        s = rng.uniform(0.5, 2.0)
        return {"m": m, "scale": s, "depth": factor * math.e ** 2 / (4.0 * s * s) * bind}
    if law == "sum":
        w = rng.uniform(0.5, 2.0)
        return {"m": m, "width": w, "depth": factor * math.e / w ** 2 * bind,
                "tail": _log_uniform(rng, 0.01, 0.1)}
    if law == "yukawa":
        a = rng.uniform(0.5, 2.0)
        return {"m": m, "range": a, "strength": factor * math.e / a * bind}
    if law == "power":
        alpha = rng.uniform(1.0, 2.0)
        beta = rng.uniform(0.5 - alpha, 3.0)
        if abs(beta) < 0.05:
            beta = 0.05
        return {"F": 0.5 / m, "alpha": alpha, "G": _log_uniform(rng, 0.2, 5.0),
                "beta": beta}
    if law == "harmonic":
        return {"m": m, "k": _log_uniform(rng, 0.2, 5.0)}
    raise ValueError(f"unknown law {law!r}")


def _np1_params(rng: random.Random, family: str) -> dict:
    if family == "harmonic":
        return {"m_a": _log_uniform(rng, 0.2, 5.0), "m_b": _log_uniform(rng, 0.2, 5.0),
                "k_aa": _log_uniform(rng, 0.2, 5.0), "k_ab": _log_uniform(rng, 0.2, 5.0)}
    if family == "ion":
        return {"m_b": _log_uniform(rng, 20.0, 5000.0), "repulsion": rng.uniform(0.5, 1.5),
                "charge_per_particle": rng.uniform(0.7, 1.5)}
    if family == "screened":
        return {"m_b": _log_uniform(rng, 0.2, 5.0), "repulsion": rng.uniform(0.2, 1.0),
                "strength": rng.uniform(5.0, 30.0), "range": rng.uniform(0.5, 2.0)}
    raise ValueError(f"unknown family {family!r}")


def _nucleus_mass(rng: random.Random, Z: int) -> float:
    # About two nucleons per proton, in electron masses.
    return 1822.888 * (2 * Z + rng.uniform(0.0, 2.0))


def _sweep_block(rng: random.Random) -> list[Op]:
    """One stratified block of the sweep domain."""
    ops = []
    for law in IDENTICAL_LAWS:
        for method in ("et", "iet"):
            for N in _int_strata(rng, 2, 2, 50):
                ops.append(Op("identical", {"law": law, "method": method, "N": N,
                                            **_identical_params(rng, law, N)}))
    for family in NP1_FAMILIES:
        for method in ("et", "iet"):
            for N_a in _int_strata(rng, 2, 2, 8):
                ops.append(Op("np1", {"family": family, "method": method, "N_a": N_a,
                                      **_np1_params(rng, family)}))
    for Z in _int_strata(rng, 2, 2, 9):
        ops.append(Op("atom", {"Z": Z, "mass": _nucleus_mass(rng, Z)}))
    for shape in ("gaussian", "exponential"):
        ops.append(Op("critical", {"shape": shape, "range": rng.uniform(0.5, 2.0),
                                   "m": _log_uniform(rng, 0.5, 2.0),
                                   "N": rng.randint(2, 50)}))
    for N in _strata(rng, 2, 1e3, 1e5, log=True):
        for phi in (rng.choice((1.0, 2.0)), rng.uniform(0.3, 3.0)):
            ops.append(Op("fgs", {"N": int(N), "d": rng.choice((1, 2)), "phi": phi}))
    return ops


def sweep_ops(seed: int) -> list[Op]:
    """The sweep's operations for a seed: SWEEP_BLOCKS stratified blocks."""
    rng = _rng("sweep", seed, "blocks")
    return [op for _ in range(SWEEP_BLOCKS) for op in _sweep_block(rng)]


def frontier_ops(seed: int) -> list[Op]:
    """The part of the sweep domain where solves are known to fail at the seed.

    The rule: improved-method atoms with Z >= 10; N_a+1 systems with a
    repulsive block and an attractive Yukawa cross potential; and identical
    power laws with alpha + beta < 0.5, sampled where they fail (improved
    method, alpha + beta in [0.2, 0.4], N >= 20: phi drifts from
    sqrt(alpha + beta) by more than 1e-9).  Timed sweep passes leave this
    region out, because a benchmark operation must not fail; the traced run
    solves it and counts every failure by error class.
    """
    rng = _rng("frontier", seed, 0)
    ops = [Op("atom", {"Z": Z, "mass": _nucleus_mass(rng, Z)}) for Z in (10, 11, 12)]
    for N in _int_strata(rng, 4, 20, 50):
        params = _identical_params(rng, "power", N)
        params["beta"] = rng.uniform(0.2, 0.4) - params["alpha"]
        ops.append(Op("identical", {"law": "power", "method": "iet", "N": N, **params}))
    for N_a in _int_strata(rng, 8, 2, 8):
        params = _np1_params(rng, "screened")
        for method in ("et", "iet"):
            ops.append(Op("np1", {"family": "screened", "method": method,
                                  "N_a": N_a, **params}))
    return ops


def generate(workload: str, seed: int, pass_index: int) -> list[Op]:
    """Operations of one pass; the same arguments always give the same list.

    Every pass of a run holds the same operations in a new order, so each
    operation repeats and its fastest repetition can be told from machine
    noise.
    """
    if workload == "cli-cold":
        ops = [Op("cli", {"argv": argv}) for argv in cli_commands()]
    elif workload == "tables":
        ops = [Op("row", {"table": t, "label": label}) for t, label in table_rows()]
    elif workload == "sweep":
        ops = sweep_ops(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _rng(workload, seed, pass_index).shuffle(ops)
    return ops


# --------------------------------------------------------------------- runners

def _yukawa(strength: float, a: float):
    g = strength
    return envtheory.laws.custom(
        value=lambda r: -g * math.exp(-r / a) / r,
        d1=lambda r: g * math.exp(-r / a) * (1.0 + r / a) / r ** 2,
        d2=lambda r: -g * math.exp(-r / a) * (2.0 + 2.0 * r / a + r * r / (a * a)) / r ** 3,
        kind="yukawa")


def identical_system(p: dict):
    laws = envtheory.laws
    law = p["law"]
    if law == "power":
        kinetic = laws.kinetic_power(p["F"], p["alpha"])
        potential = laws.potential_power(p["G"], p["beta"])
    else:
        kinetic = laws.kinetic_power(0.5 / p["m"], 2.0)
        if law == "gaussian":
            potential = laws.gaussian_well(p["depth"], p["width"])
        elif law == "exponential":
            potential = laws.exponential_well(p["depth"], p["scale"])
        elif law == "sum":
            potential = laws.make_weighted_sum(
                [(1.0, laws.gaussian_well(p["depth"], p["width"])),
                 (1.0, laws.potential_power(p["tail"], 2.0))])
        elif law == "yukawa":
            potential = _yukawa(p["strength"], p["range"])
        else:
            potential = laws.harmonic(p["k"])
    return envtheory.IdenticalSystem(p["N"], 3, kinetic, potential)


def np1_system(p: dict):
    laws = envtheory.laws
    N_a, family = p["N_a"], p["family"]
    if family == "harmonic":
        return envtheory.NPlusOneSystem(
            N_a, 3, laws.kinetic_power(0.5 / p["m_a"], 2.0),
            laws.kinetic_power(0.5 / p["m_b"], 2.0),
            laws.potential_power(p["k_aa"], 2.0), laws.potential_power(p["k_ab"], 2.0))
    repulsion = laws.power(p["repulsion"], -1.0)
    if family == "ion":
        cross = laws.coulomb(p["charge_per_particle"] * N_a)
    else:
        cross = _yukawa(p["strength"], p["range"])
    return envtheory.NPlusOneSystem(
        N_a, 3, laws.kinetic_power(0.5, 2.0), laws.kinetic_power(0.5 / p["m_b"], 2.0),
        repulsion, cross)


def _critical_shape(p: dict):
    laws = envtheory.laws
    well = (laws.gaussian_well(1.0, p["range"]) if p["shape"] == "gaussian"
            else laws.exponential_well(1.0, p["range"]))
    return laws.make_weighted_sum([(-1.0, well)])


def _et_record(solution) -> dict:
    return {"energy": solution.energy, "rho0": solution.rho0, "p0": solution.p0,
            "q": solution.q, "residual_motion": solution.residual_motion,
            "residual_quantization": solution.residual_quantization,
            "n_roots": solution.n_roots, "phi": solution.phi}


def _np1_record(solution) -> dict:
    return {"energy": solution.energy, "p_a": solution.p_a, "r_aa": solution.r_aa,
            "P0": solution.P0, "R0": solution.R0, "q_a": solution.q_a,
            "q_b": solution.q_b, "residual_a": solution.residual_a,
            "residual_b": solution.residual_b, "n_roots": solution.n_roots,
            "iterations": solution.iterations, "phi_a": solution.phi_a,
            "phi_b": solution.phi_b}


def _atom_record(result) -> dict:
    record = _np1_record(result.solution)
    record.update(binding_ev=result.binding_ev, nu_a=result.nu_a, lam_a=result.lam_a,
                  filling=[list(level) for level in result.filling_levels])
    return record


def _run_identical(p: dict) -> dict:
    system = identical_system(p)
    if p["method"] == "et":
        return _et_record(envtheory.solve_et(system, 1.5 * (p["N"] - 1)))
    return _et_record(envtheory.solve_iet(system, envtheory.ground_spec(p["N"], 3)))


def _run_np1(p: dict) -> dict:
    system = np1_system(p)
    if p["method"] == "et":
        return _np1_record(envtheory.solve_et_np1(system, 1.5 * (p["N_a"] - 1), 1.5))
    return _np1_record(envtheory.solve_iet_np1(
        system, envtheory.split_ground_spec(p["N_a"], 3)))


def _run_fgs(p: dict) -> dict:
    filling = envtheory.fgs_fill(p["N"], 3, p["d"], p["phi"])
    return {"q_phi": filling.q_phi, "nu": filling.nu, "lam": filling.lam,
            "levels": [list(level) for level in filling.levels]}


def _run_critical(p: dict) -> dict:
    Q = 1.5 * (p["N"] - 1)
    return {"g": envtheory.critical_g(_critical_shape(p), p["m"], p["N"], Q)}


def _row_fixture(p: dict) -> dict:
    return dict(envtheory.repro.table_fixtures(p["table"]))[p["label"]]


def _verdict(computed: float, reference: float, tol: float, mode: str) -> bool:
    """The reference check of ``envtheory.repro``: error below tolerance."""
    error = abs(computed - reference)
    if mode == "rel":
        error /= abs(reference)
    return error < tol


def _run_row(p: dict) -> dict:
    """Recompute one reference row with the calls ``repro.run_table`` makes."""
    repro = envtheory.repro
    table, rec = p["table"], _row_fixture(p)
    tols = repro.TOLERANCES[table]
    values, n_roots, verdicts = {}, {}, {}
    if table == 1:
        system = envtheory.IdenticalSystem(
            3, 3, envtheory.laws.kinetic_power(0.5, 2.0),
            envtheory.laws.potential_power(0.5, float(rec["beta"])))
        et = envtheory.solve_et(system, 3.0)
        iet = envtheory.solve_iet(system, envtheory.ground_spec(3, 3))
        values.update(et=et.energy, iet=iet.energy, phi=iet.phi)
        checked = (("et", "energy_rel", "rel"), ("iet", "energy_rel", "rel"))
    elif table in (2, 3):
        if table == 2:
            system = repro.build_uroh(float(rec["kappa"]))
        else:
            system = repro.build_power(float(rec["m"]), float(rec["beta"]))
        nu_a, lam_a = float(rec.get("nu_a", 0.5)), float(rec.get("lam_a", 0.5))
        nu_b, lam_b = float(rec.get("nu_b", 0.5)), float(rec.get("lam_b", 0.5))
        et = envtheory.solve_et_np1(system, 2.0 * nu_a + lam_a, 2.0 * nu_b + lam_b)
        iet = envtheory.solve_iet_np1(system, repro.split_spec(3, 2, nu_a, lam_a,
                                                               nu_b, lam_b))
        values.update(et=et.energy, iet=iet.energy, phi_a=iet.phi_a, phi_b=iet.phi_b)
        checked = (("et", "energy_rel", "rel"), ("iet", "energy_rel", "rel"),
                   ("phi_a", "phi_abs", "abs"), ("phi_b", "phi_abs", "abs"))
    else:
        Z, n_e = float(rec["Z"]), int(rec["electrons"])
        mass = repro.nucleus_mass(rec["nucleus"])
        et = envtheory.atom_report(Z, n_e, mass, "et")
        iet = envtheory.atom_report(Z, n_e, mass, "iet")
        values.update(et=et.binding_ev, iet=iet.binding_ev, phi_a=iet.phi_a,
                      phi_b=iet.phi_b, nu_a=iet.nu_a, lam_a=iet.lam_a)
        et, iet = et.solution, iet.solution
        checked = (("et", "energy_abs", "abs"), ("iet", "energy_abs", "abs"),
                   ("phi_a", "phi_abs", "abs"), ("phi_b", "phi_abs", "abs"))
    n_roots.update(et=et.n_roots, iet=iet.n_roots)
    for name, tol_key, mode in checked:
        verdicts[name] = _verdict(values[name], float(rec[name]), tols[tol_key], mode)
    return {"table": table, "values": values, "n_roots": n_roots, "verdicts": verdicts}


def run_in_process(op: Op) -> dict:
    """Run one operation in this process and return its output record."""
    p = op.params
    if op.kind == "identical":
        return _run_identical(p)
    if op.kind == "np1":
        return _run_np1(p)
    if op.kind == "atom":
        return _atom_record(envtheory.atom_report(p["Z"], p["Z"], p["mass"], "iet"))
    if op.kind == "critical":
        return _run_critical(p)
    if op.kind == "fgs":
        return _run_fgs(p)
    if op.kind == "row":
        return _run_row(p)
    if op.kind == "cli":
        return run_cli_in_process(p["argv"])
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _cli_record(code: int, stdout: str) -> dict:
    text = stdout.strip()
    return {"exit": code, "record": json.loads(text) if text else None}


def run_cli_in_process(argv: list[str]) -> dict:
    """``envtheory.cli.main(argv)`` with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = envtheory.cli.main(list(argv))
    return _cli_record(code, out.getvalue())


def run_cli_process(argv: list[str], root: Path, env: dict) -> dict:
    """One cold ``python -m envtheory.cli`` process, waited for to the end."""
    proc = subprocess.run([sys.executable, "-m", "envtheory.cli", *argv], cwd=root,
                          env=env, capture_output=True, text=True, timeout=120)
    return _cli_record(proc.returncode, proc.stdout)


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


# ---------------------------------------------------------------------- checks

def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def _uncompared(key: str) -> bool:
    # Residuals are round-off and are gated by the CLI's --tol instead;
    # Newton iteration counts and a check's error magnitude are not results
    # (the verdict and the computed value beside it are compared).
    return key.startswith("residual") or key in ("iterations", "error")


def compare(expected, actual, path: str = "") -> list[str]:
    """Differences between two json-like values.

    Numbers may drift by REL_TOL relative; integers, strings, booleans
    (verdicts) and the set of keys must match exactly.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(expected)}"]
        problems = []
        for key in expected:
            if not _uncompared(key):
                problems += compare(expected[key], actual[key], f"{path}.{key}")
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: {actual!r} != {expected!r}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{path}[{i}]")]
    numbers = (int, float)
    if (isinstance(expected, numbers) and isinstance(actual, numbers)
            and not isinstance(expected, bool) and not isinstance(actual, bool)):
        if isinstance(expected, int) and isinstance(actual, int):
            same = expected == actual
        else:
            same = abs(actual - expected) <= REL_TOL * max(abs(actual), abs(expected))
        return [] if same else [f"{path}: {actual!r} != {expected!r}"]
    return [] if actual == expected and type(actual) is type(expected) else \
        [f"{path}: {actual!r} != {expected!r}"]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _residuals_ok(out: dict) -> list[str]:
    return [f"{k} = {v:.3g} > {RESIDUAL_TOL:g}" for k, v in out.items()
            if k.startswith("residual") and not v <= RESIDUAL_TOL]


def _check_identical(p: dict, out: dict) -> list[str]:
    problems = _residuals_ok(out)
    system = identical_system(p)
    N = p["N"]
    c2 = 0.5 * N * (N - 1)
    energy = N * system.kinetic.value(out["p0"]) + c2 * system.potential.value(out["rho0"])
    if not _close(energy, out["energy"], 1e-12):
        problems.append(f"energy {out['energy']!r} != N T(p0) + C2 V(rho0) = {energy!r}")
    q = out["q"]
    if p["method"] == "et" and q != 1.5 * (N - 1):
        problems.append(f"q {q!r} is not the ground-state 3(N-1)/2")
    if p["method"] == "iet" and not _close(q, out["phi"] * 0.5 * (N - 1) + 0.5 * (N - 1), 1e-12):
        problems.append(f"q {q!r} != phi nu + lam")
    if p["law"] == "power":
        want = envtheory.power_law_energy(N, 3, p["F"], p["alpha"], p["G"], p["beta"], q)
        if not _close(out["energy"], want, ORACLE_TOL):
            problems.append(f"energy {out['energy']!r} != power_law_energy {want!r}")
        if p["method"] == "iet" and not abs(out["phi"] - math.sqrt(p["alpha"] + p["beta"])) <= ORACLE_TOL:
            problems.append(f"phi {out['phi']!r} != sqrt(alpha + beta)")
    if p["law"] == "harmonic":
        want = math.sqrt(2.0 * N * p["k"] / p["m"]) * q
        if not _close(out["energy"], want, ORACLE_TOL):
            problems.append(f"energy {out['energy']!r} != harmonic exact {want!r}")
        if p["method"] == "iet" and not abs(out["phi"] - 2.0) <= ORACLE_TOL:
            problems.append(f"phi {out['phi']!r} != 2 for a harmonic law")
    return problems


def _check_np1_geometry(system, out: dict) -> list[str]:
    """Quantization conditions and the energy formula at the returned point."""
    problems = _residuals_ok(out)
    N_a = system.N_a
    c2 = 0.5 * N_a * (N_a - 1)
    p_a, P0, r_aa, R0 = out["p_a"], out["P0"], out["r_aa"], out["R0"]
    if not _close(math.sqrt(c2) * p_a * r_aa, out["q_a"], 1e-12):
        problems.append("sqrt(C2) p_a r_aa != q_a")
    if not _close(P0 * R0, out["q_b"], 1e-12):
        problems.append("P0 R0 != q_b")
    pap = math.sqrt(p_a ** 2 + P0 ** 2 / N_a ** 2)
    r0p = math.sqrt(R0 ** 2 + 0.5 * (N_a - 1) / N_a * r_aa ** 2)
    energy = (N_a * system.kinetic_a.value(pap) + system.kinetic_b.value(P0)
              + c2 * system.potential_aa.value(r_aa) + N_a * system.potential_ab.value(r0p))
    if not _close(energy, out["energy"], 1e-12):
        problems.append(f"energy {out['energy']!r} != five-equation energy {energy!r}")
    return problems


def _check_np1(p: dict, out: dict) -> list[str]:
    problems = _check_np1_geometry(np1_system(p), out)
    if p["family"] == "harmonic":
        N_a, m_a, m_b = p["N_a"], p["m_a"], p["m_b"]
        w_a = math.sqrt(2.0 * (N_a * p["k_aa"] + p["k_ab"]) / m_a)
        w_b = math.sqrt(2.0 * N_a * p["k_ab"] * (N_a * m_a + m_b) / (N_a * m_a * m_b))
        want = w_a * out["q_a"] + w_b * out["q_b"]
        if not _close(out["energy"], want, ORACLE_TOL):
            problems.append(f"energy {out['energy']!r} != harmonic exact {want!r}")
        if p["method"] == "iet" and not (abs(out["phi_a"] - 2.0) <= ORACLE_TOL
                                         and abs(out["phi_b"] - 2.0) <= ORACLE_TOL):
            problems.append("phi_a, phi_b != 2 for a harmonic split")
    return problems


def _check_atom(p: dict, out: dict) -> list[str]:
    Z = p["Z"]
    laws = envtheory.laws
    system = envtheory.NPlusOneSystem(Z, 3, laws.kinetic_power(0.5, 2.0),
                                      laws.kinetic_power(0.5 / p["mass"], 2.0),
                                      laws.power(1.0, -1.0), laws.coulomb(Z))
    problems = _check_np1_geometry(system, out)
    unit = envtheory.solver_nplus1.ATOMIC_UNIT_EV
    if not (out["energy"] < 0.0 and _close(out["binding_ev"], -out["energy"] * unit, 1e-12)):
        problems.append("binding_ev is not -energy in eV")
    occupancy = sum(occ for _, _, occ in out["filling"])
    if occupancy != Z or any(occ > 2 * (2 * l + 1) for _, l, occ in out["filling"]):
        problems.append(f"filling {out['filling']} does not hold {Z} electrons")
    n_sum = sum(n * occ for n, _, occ in out["filling"])
    l_sum = sum(l * occ for _, l, occ in out["filling"])
    if out["nu_a"] != n_sum + 0.5 * (Z - 1) or out["lam_a"] != l_sum + 0.5 * (Z - 1):
        problems.append("nu_a, lam_a do not match the filling")
    return problems


def _check_critical(p: dict, out: dict) -> list[str]:
    # u* solves 2 v + u v' = 0: the width for a gaussian, twice the scale
    # for an exponential shape.
    r, N, m = p["range"], p["N"], p["m"]
    u, v = (r, math.exp(-1.0)) if p["shape"] == "gaussian" else (2.0 * r, math.exp(-2.0))
    Q = 1.5 * (N - 1)
    want = 1.0 / (u * u * v) * 2.0 / (N * (N - 1) ** 2) * Q * Q / m
    return [] if _close(out["g"], want, ORACLE_TOL) else [f"g {out['g']!r} != closed form {want!r}"]


def _check_fgs(p: dict, out: dict) -> list[str]:
    """Brute-force checks of a filling, plus the closed form at phi = 1, 2."""
    N, d, phi, levels = p["N"], p["d"], p["phi"], out["levels"]
    problems = []
    if sum(occ for _, _, occ in levels) != N:
        problems.append("occupancies do not sum to N")
    n_sum = sum(n * occ for n, _, occ in levels)
    l_sum = sum(l * occ for _, l, occ in levels)
    if out["nu"] != n_sum + 0.5 * (N - 1) or out["lam"] != l_sum + 0.5 * (N - 1):
        problems.append("nu, lam do not match the filling")
    if not _close(out["q_phi"], phi * out["nu"] + out["lam"], 1e-12):
        problems.append("q_phi != phi nu + lam")
    top = max(phi * n + l for n, l, _ in levels)
    filled = {(n, l): occ for n, l, occ in levels}
    n = 0
    while phi * n < top - 1e-9:
        l = 0
        while phi * n + l < top - 1e-9:
            if filled.get((n, l)) != d * (2 * l + 1):
                problems.append(f"level ({n}, {l}) below the Fermi key is not full")
                return problems
            l += 1
        n += 1
    if phi in (1.0, 2.0):
        closed = envtheory.fgs_closed(N, 3, d, int(phi))
        if not _close(out["q_phi"], closed, 1e-12):
            problems.append(f"q_phi {out['q_phi']!r} != fgs_closed {closed!r}")
    return problems


def check(op: Op, out: dict, goldens: dict) -> list[str]:
    """Problems with one operation's output; empty when it is correct."""
    p = op.params
    if op.kind == "cli":
        return compare(goldens["cli"][" ".join(p["argv"])], out)
    if op.kind == "row":
        return compare(goldens["tables"][p["label"]], out)
    if op.kind == "identical":
        return _check_identical(p, out)
    if op.kind == "np1":
        return _check_np1(p, out)
    if op.kind == "atom":
        return _check_atom(p, out)
    if op.kind == "critical":
        return _check_critical(p, out)
    if op.kind == "fgs":
        return _check_fgs(p, out)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def load_goldens(workload: str) -> dict:
    if workload == "cli-cold":
        return {"cli": load_golden("cli")}
    if workload == "tables":
        return {"tables": load_golden("tables")}
    return {}
