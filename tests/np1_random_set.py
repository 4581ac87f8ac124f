"""Improved N_a+1 solves on nine fixed sets of 600 random systems.

Run it as a script; pytest does not collect it:

    PYTHONPATH=src python tests/np1_random_set.py > after.txt
    PYTHONPATH=src python tests/np1_random_set.py --diff before.txt after.txt

The first form prints one line per system, "set/index outcome", where the
outcome is "min E r_aa R0 iterations orbital" for a returned point where
the Hessian of E, read off one record of the solver's own surface
(_surface_at), is positive definite, "saddle E r_aa R0 iterations
orbital" for any other returned point, or the error class and message;
iterations are the deformed descent's, orbital those of the orbital solve
it starts from.  The second compares two such listings: minima gained and
lost, failure classes moved, and minima whose energy moved beyond 1e-8
relative, each by set/index; the iterations of both descents summed over
the returned solves; and the NonConvergenceError count of sets 1-3 and of
sets 4-9 on both sides.  It exits with status 1 where a minimum is lost.

Sets 1, 2 and 4-9 are each drawn from random.Random(n), n the set's
number; every draw, strengths included, comes from that generator, so a
listing depends only on the solver.  Each system has N_a in 2-8 and D = 3;
its kinetic laws are F p^alpha with F in [0.2, 5] (T_b: [0.01, 5]) and
alpha in [1, 2].  V_aa is one of a power law of either sign (exponent in
[-1.5, -0.1] or [0.1, 2]), Coulomb, Gaussian, exponential, Yukawa,
harmonic, or Gaussian plus harmonic; V_ab is drawn the same way with
attractive powers only.
Every internal and the relative (n, l) is drawn from 0-2.

Set 3 is drawn from random.Random(3) and holds homogeneous systems only:
T_a and T_b share one exponent alpha in [1, 2], and V_aa and V_ab share one
exponent beta, drawn from [-1.5, -0.1], [0.1, 2], -1 or 2.  V_aa is
attractive or repulsive, V_ab attractive (Coulomb at beta = -1, harmonic at
beta = 2); strengths and N_a are drawn as in sets 1 and 2.  Sets 1, 2 and
4-9 draw no homogeneous system.  The nine sets take about 3 s.
"""

from __future__ import annotations

import math
import random
import sys

from envtheory import laws
from envtheory.errors import EnvTheoryError
from envtheory.qnum import QuantumSpec
from envtheory.solver_nplus1 import NPlusOneSystem, _surface_at, dosm_np1, solve_iet_np1

SIZE = 600
KINDS = ("power", "coulomb", "gaussian", "exponential", "yukawa", "harmonic",
         "gaussian+harmonic")


def _yukawa(g: float, a: float) -> laws.Law:
    """-g exp(-r/a)/r."""
    return laws.custom(lambda r: -g * math.exp(-r / a) / r,
                       lambda r: g * math.exp(-r / a) * (1.0 + r / a) / r ** 2,
                       lambda r: -g * math.exp(-r / a) * (2.0 + 2.0 * r / a
                                                          + r * r / (a * a)) / r ** 3,
                       kind="yukawa")


def _potential(rng: random.Random, attractive: bool) -> laws.Law:
    kind = rng.choice(KINDS)
    strength, scale = rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)
    depth = rng.uniform(1.0, 30.0)
    if kind == "power":
        exponent = rng.choice((rng.uniform(-1.5, -0.1), rng.uniform(0.1, 2.0)))
        sign = 1.0 if attractive else rng.choice((-1.0, 1.0))
        return laws.power(sign * math.copysign(strength, exponent), exponent)
    if kind == "coulomb":
        return laws.coulomb(strength)
    if kind == "gaussian":
        return laws.gaussian_well(depth, scale)
    if kind == "exponential":
        return laws.exponential_well(depth, scale)
    if kind == "yukawa":
        return _yukawa(strength, scale)
    if kind == "harmonic":
        return laws.harmonic(strength)
    return laws.make_weighted_sum([(1.0, laws.gaussian_well(depth, scale)),
                                   (1.0, laws.harmonic(strength))])


def _mode(rng: random.Random) -> tuple[int, int]:
    return rng.randint(0, 2), rng.randint(0, 2)


def random_set(seed: int) -> list[tuple[NPlusOneSystem, QuantumSpec]]:
    """The SIZE (system, spec) pairs of one set, in index order from 1."""
    rng = random.Random(seed)
    out = []
    for _ in range(SIZE):
        N_a = rng.randint(2, 8)
        kinetic_a = laws.kinetic_power(rng.uniform(0.2, 5.0), rng.uniform(1.0, 2.0))
        kinetic_b = laws.kinetic_power(rng.uniform(0.01, 5.0), rng.uniform(1.0, 2.0))
        system = NPlusOneSystem(N_a, 3, kinetic_a, kinetic_b, _potential(rng, False),
                                _potential(rng, True))
        spec = QuantumSpec(3, tuple(_mode(rng) for _ in range(N_a - 1)), _mode(rng))
        out.append((system, spec))
    return out


def _homogeneous_potential(rng: random.Random, beta: float, attractive: bool) -> laws.Law:
    strength = rng.uniform(0.2, 5.0)
    if attractive and beta == -1.0:
        return laws.coulomb(strength)
    if attractive and beta == 2.0:
        return laws.harmonic(strength)
    sign = 1.0 if attractive else -1.0
    return laws.power(sign * math.copysign(strength, beta), beta)


def homogeneous_set(seed: int) -> list[tuple[NPlusOneSystem, QuantumSpec]]:
    """The SIZE (system, spec) pairs of one homogeneous set, in index order from 1."""
    rng = random.Random(seed)
    out = []
    for _ in range(SIZE):
        N_a = rng.randint(2, 8)
        alpha = rng.uniform(1.0, 2.0)
        beta = rng.choice((rng.uniform(-1.5, -0.1), rng.uniform(0.1, 2.0), -1.0, 2.0))
        kinetic_a = laws.kinetic_power(rng.uniform(0.2, 5.0), alpha)
        kinetic_b = laws.kinetic_power(rng.uniform(0.01, 5.0), alpha)
        potential_aa = _homogeneous_potential(rng, beta, rng.choice((True, False)))
        system = NPlusOneSystem(N_a, 3, kinetic_a, kinetic_b, potential_aa,
                                _homogeneous_potential(rng, beta, True))
        spec = QuantumSpec(3, tuple(_mode(rng) for _ in range(N_a - 1)), _mode(rng))
        out.append((system, spec))
    return out


# The draw of each set, by its seed.
SETS = {1: random_set, 2: random_set, 3: homogeneous_set,
        **{seed: random_set for seed in range(4, 10)}}


def outcome(system: NPlusOneSystem, spec: QuantumSpec) -> str:
    try:
        solution = solve_iet_np1(system, spec)
    except EnvTheoryError as exc:
        return f"{type(exc).__name__} {exc}"
    # The orbital solve solve_iet_np1 made, run again: the same descent.
    orbital = dosm_np1(system, spec.lam, spec.lam_b).orbital
    record = _surface_at(system, solution.q_a, solution.q_b)(solution.r_aa, solution.R0)
    h11, h12, h22 = record[5] + record[8], record[6] + record[9], record[7] + record[10]
    minimum = h11 > 0.0 and h11 * h22 - h12 * h12 > 0.0
    return (f"{'min' if minimum else 'saddle'} {solution.energy!r} {solution.r_aa!r} "
            f"{solution.R0!r} {solution.iterations} {orbital.iterations}")


def _read(path: str) -> dict[str, list[str]]:
    with open(path) as handle:
        return {key: rest.split(" ") for key, rest in
                (line.rstrip("\n").split(" ", 1) for line in handle)}


def diff(before_path: str, after_path: str) -> int:
    """Print the comparison of two listings; return the number of minima lost."""
    before, after = _read(before_path), _read(after_path)
    moved = {"minimum gained": [], "minimum lost": [], "failure class moved": [],
             "energy moved": []}
    iterations = [[0, 0], [0, 0]]  # [deformed, orbital] before and after
    for key, old in before.items():
        new = after[key]
        for i, fields in enumerate((old, new)):
            if fields[0] in ("min", "saddle"):
                iterations[i][0] += int(fields[4])
                iterations[i][1] += int(fields[5])
        if (old[0] == "min") != (new[0] == "min"):
            moved["minimum gained" if new[0] == "min" else "minimum lost"].append(
                f"{key} ({old[0]} -> {new[0]})")
        elif old[0] == "min":
            e_old, e_new = float(old[1]), float(new[1])
            if abs(e_new - e_old) > 1e-8 * abs(e_old):
                moved["energy moved"].append(f"{key} ({e_old:.9g} -> {e_new:.9g})")
        elif old[0] != new[0]:
            moved["failure class moved"].append(f"{key} ({old[0]} -> {new[0]})")
    for what, keys in moved.items():
        print(f"{what}: {len(keys)}" + (": " + ", ".join(keys) if keys else ""))
    minima = [sum(f[0] == "min" for f in side.values()) for side in (before, after)]
    print(f"minima: {minima[0]} -> {minima[1]}")
    for label, seeds in (("1-3", range(1, 4)), ("4-9", range(4, 10))):
        stalls = [sum(f[0] == "NonConvergenceError" for key, f in side.items()
                      if int(key.split("/")[0]) in seeds) for side in (before, after)]
        print(f"NonConvergenceError on sets {label}: {stalls[0]} -> {stalls[1]}")
    (deformed, orbital), (deformed_after, orbital_after) = iterations
    print(f"iterations of returned solves: deformed {deformed} -> {deformed_after}, "
          f"orbital {orbital} -> {orbital_after}")
    return len(moved["minimum lost"])


def main() -> None:
    if sys.argv[1:2] == ["--diff"]:
        sys.exit(1 if diff(*sys.argv[2:4]) else 0)
    for seed, draw in SETS.items():
        for index, (system, spec) in enumerate(draw(seed), start=1):
            print(f"{seed}/{index} {outcome(system, spec)}", flush=True)


if __name__ == "__main__":
    main()
