"""The package's records: immutable named tuples with type-strict equality.

Every system, spec, solution and report is a ``namedtuple`` subclass with
the ``records.Record`` mixin.  These tests pin what the frozen dataclasses
they replaced guaranteed: read-only fields, keyword construction with
defaults, the ``repr`` text, equality only within one class, hashing as the
tuple of the fields, and validation that also runs on ``_replace``.
"""

import math
from collections import namedtuple

import pytest

from envtheory import cli, laws, repro
from envtheory.coupled_osc import OscPair
from envtheory.errors import InputError
from envtheory.qnum import GroundStateResult, QuantumSpec, bgs, fgs_fill
from envtheory.records import Record
from envtheory.solver_identical import (DosmIdenticalReport, EtSolution, IdenticalSystem,
                                        dosm_identical, solve_et)
from envtheory.solver_nplus1 import (AtomResult, DosmNp1Report, NPlusOneSystem,
                                     Np1Solution, atom_report, dosm_np1, solve_et_np1)

HARMONIC = IdenticalSystem(3, 3, laws.kinetic_power(0.5, 2.0), laws.potential_power(0.5, 2.0))
SPLIT = repro.build_power(2.0, 1.0)
SPEC = QuantumSpec(3, ((0, 0),), (0, 0))
CHECK = repro.Check("et", 1.5, 1.5, 0.0, 5e-5, "rel", True)
ROW = repro.RowReport("b1", (CHECK,), {"exact": 1.5})


def _records():
    """One record of each of the 14 classes, built by the package where it can."""
    return {
        QuantumSpec: SPEC,
        GroundStateResult: fgs_fill(5, 3, 2, 1.5),
        OscPair: OscPair(1.0, 2.0, 3.0, 4.0, 0.5),
        IdenticalSystem: HARMONIC,
        EtSolution: solve_et(HARMONIC, 3.0),
        DosmIdenticalReport: dosm_identical(HARMONIC, 1.0),
        NPlusOneSystem: SPLIT,
        Np1Solution: solve_et_np1(SPLIT, 1.5, 1.5),
        DosmNp1Report: dosm_np1(SPLIT, 0.5, 0.5),
        AtomResult: atom_report(2.0, 2, repro.nucleus_mass("he4"), "et"),
        repro.Check: CHECK,
        repro.RowReport: ROW,
        repro.TableReport: repro.TableReport(1, (ROW,)),
        cli._Definition: cli._Definition("identical", HARMONIC, SPEC, "et", None,
                                         {"N": 3}),
    }


RECORDS = _records()


def test_every_record_class_is_covered():
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("envtheory.")}
    assert set(RECORDS) == package and len(package) == 14
    assert all(type(record) is cls for cls, record in RECORDS.items())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_an_immutable_named_tuple_equal_only_to_its_own_class(cls):
    record = RECORDS[cls]
    assert isinstance(record, Record) and isinstance(record, tuple)
    # Fields are read-only and no attribute can be added.
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    # A copy through keywords is equal, and equal records hash alike.
    copy = cls(**dict(zip(cls._fields, record)))
    assert copy == record and not copy != record
    assert record._replace() == record
    # Never equal to a plain tuple, a subclass, or another record class with
    # the same fields and values, from either side.
    twin = type("Twin", (Record, namedtuple(cls.__name__, cls._fields)), {"__slots__": ()})
    sub = type("Sub", (cls,), {"__slots__": ()})
    for other in (tuple(record), twin(*record), tuple.__new__(sub, record)):
        assert record != other and other != record
        assert not record == other and not other == record
    assert record != None and record != tuple(record)[:1]  # noqa: E711
    # Hashing is that of the tuple of the fields, as for a frozen dataclass:
    # a record that holds a dict, at any depth, cannot be hashed.
    try:
        expected = hash(tuple(record))
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(copy) == expected


def test_a_solution_is_built_by_keyword_with_its_defaults_and_keeps_its_repr():
    solution = EtSolution(energy=1.5, rho0=2.0, p0=0.5, q=3.0, residual_motion=0.0,
                          residual_quantization=0.0, n_roots=1, all_roots=((1.5, 2.0),))
    assert repr(solution) == (
        "EtSolution(energy=1.5, rho0=2.0, p0=0.5, q=3.0, residual_motion=0.0, "
        "residual_quantization=0.0, n_roots=1, all_roots=((1.5, 2.0),), "
        "variational='unknown', phi=None)")
    assert solution._replace(phi=1.25).phi == 1.25 and solution.phi is None
    np1 = Np1Solution(*range(13))
    assert (np1.phi_a, np1.phi_b) == (None, None)
    assert QuantumSpec(D=3, internal_modes=((1, 0),)).relative_mode is None
    assert OscPair(mu_a=1.0, mu_b=1.0, k_a=1.0, k_b=1.0).k_c == 0.0
    assert repr(OscPair(1.0, 2.0, 3.0, 4.0)) == \
        "OscPair(mu_a=1.0, mu_b=2.0, k_a=3.0, k_b=4.0, k_c=0.0)"
    row = repro.RowReport("x", error="failed")
    assert repr(row) == "RowReport(label='x', checks=(), extras={}, error='failed')"
    assert bgs(3, 3) == GroundStateResult(N=3, D=3, phi=2.0, statistics="boson", d=None,
                                          levels=((0, 0, 3),), nu=1.0, lam=1.0, q_phi=3.0)


@pytest.mark.parametrize("record, bad", [
    (SPEC, {"D": 1}),
    (SPEC, {"internal_modes": ()}),
    (SPEC, {"internal_modes": ((0, -1),)}),
    (SPEC, {"relative_mode": (0.5, 0)}),
    (OscPair(1.0, 2.0, 3.0, 4.0), {"mu_a": 0.0}),
    (OscPair(1.0, 2.0, 3.0, 4.0), {"mu_b": -1.0}),
    (HARMONIC, {"N": 1}),
    (HARMONIC, {"D": 1}),
    (SPLIT, {"N_a": 1}),
    (SPLIT, {"D": 1}),
], ids=lambda v: type(v).__name__ if isinstance(v, tuple) else str(v))
def test_validated_records_check_construction_and_replace(record, bad):
    fields = dict(zip(record._fields, record), **bad)
    with pytest.raises(InputError):
        type(record)(**fields)
    with pytest.raises(InputError):
        type(record)(*fields.values())
    with pytest.raises(InputError):
        record._replace(**bad)
    with pytest.raises(InputError):
        type(record)._make(fields.values())


def test_row_reports_do_not_share_their_extras():
    first, second = repro.RowReport("a"), repro.RowReport("b")
    assert first.extras == {} and first.extras is not second.extras
    first.extras["x"] = 1.0
    assert second.extras == {} and repro.RowReport("c").extras == {}
    assert repro.RowReport("d", extras=None).extras == {}


def test_replace_keeps_the_class_and_changes_only_the_named_fields():
    solution = RECORDS[Np1Solution]
    deformed = solution._replace(phi_a=1.5, phi_b=math.sqrt(2.0))
    assert type(deformed) is Np1Solution and deformed != solution
    assert deformed[:13] == solution[:13]
    with pytest.raises(ValueError):
        solution._replace(unknown=1.0)
