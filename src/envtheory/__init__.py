"""Approximate eigenvalues of N-body Hamiltonians via compact equation sets.

The package solves systems of N identical particles, and of N_a identical
particles plus one distinct, for arbitrary kinetic and potential laws given
with their first two derivatives.  The plain method reduces the N-body
problem to a few coupled transcendental equations in collective variables;
the improved variant deforms the global quantum number with parameters
extracted from quantizing small radial oscillations around the purely
orbital motion.  Supporting modules cover quantum-number bookkeeping (ground
states for bosons and fermions), coupled-oscillator normal modes and
critical coupling strengths of short-range wells.
"""

from .coupled_osc import OscPair, level, normal_modes
from .critical import critical_g, u_star
from .errors import (DegenerateOrbitalError, EnvTheoryError, InputError,
                     NoBindingError, NonConvergenceError, NoRootError,
                     UnstableModeError, UnstableOrbitalError,
                     UnsupportedRegimeError)
from .laws import (Law, coulomb, custom, exponential_well, gaussian_well,
                   harmonic, kinetic_power, make_weighted_sum, potential_power,
                   power, power_parameters)
from .qnum import (GroundStateResult, QuantumSpec, bgs, fgs_approx, fgs_closed,
                   fgs_fill, global_q, ground_spec, level_degeneracy,
                   spec_from_filling, split_ground_spec)
from .solver_identical import (DosmIdenticalReport, EtSolution, IdenticalSystem,
                               dosm_identical, pair_count, phi_identical,
                               power_law_energy, solve_et, solve_iet)
from .solver_nplus1 import (AtomResult, DosmNp1Report, NPlusOneSystem,
                            Np1Solution, atom_report, dosm_np1, phi_pair,
                            solve_atom, solve_et_np1, solve_iet_np1)
from .repro import run_all, run_table

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "EnvTheoryError", "InputError", "NoRootError",
    "NonConvergenceError", "UnstableOrbitalError", "UnstableModeError",
    "DegenerateOrbitalError", "NoBindingError", "UnsupportedRegimeError",
    # laws
    "Law", "power", "kinetic_power", "potential_power", "coulomb",
    "harmonic", "gaussian_well", "exponential_well", "make_weighted_sum",
    "custom", "power_parameters",
    # quantum numbers
    "QuantumSpec", "GroundStateResult", "global_q", "level_degeneracy", "bgs",
    "fgs_fill", "fgs_closed", "fgs_approx", "ground_spec", "split_ground_spec",
    "spec_from_filling",
    # identical systems
    "IdenticalSystem", "EtSolution", "DosmIdenticalReport", "pair_count",
    "solve_et", "power_law_energy", "dosm_identical", "phi_identical",
    "solve_iet",
    # split systems
    "NPlusOneSystem", "Np1Solution", "DosmNp1Report", "AtomResult",
    "solve_et_np1", "dosm_np1", "phi_pair", "solve_iet_np1", "atom_report",
    "solve_atom",
    # oscillator pairs and critical couplings
    "OscPair", "normal_modes", "level", "u_star", "critical_g",
    # table reproduction
    "run_table", "run_all",
]
