"""The value records: named tuples with the field order, defaults and
methods the package documents, and a torus spec checked at construction."""

import pickle

import pytest

from lllkit import (
    ConditionReport,
    CountReport,
    InstanceParams,
    LandscapeType,
    RunTrace,
    TailEstimate,
    TapeCode,
    TorusSpec,
    Window,
)
from conftest import RunState

FIELDS = {
    RunState: ("step", "assignment", "counters"),
    InstanceParams: ("d", "delta", "beta", "trivially_satisfiable"),
    ConditionReport: ("variant", "delta", "threshold_lo", "worst_margin", "all_pass"),
    LandscapeType: ("d", "delta", "beta", "n1", "n2", "p"),
    Window: ("center", "radius", "vertices"),
    TapeCode: ("part_ids", "payload", "witness", "b"),
    CountReport: ("kind", "params", "count", "bound", "passed"),
    TailEstimate: ("n_grid", "trials", "exceed_counts", "phat", "ci_half", "slope", "slope_se",
                   "cap_exceeded"),
    TorusSpec: ("dimension", "side", "translates", "colors"),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_field_order(cls):
    assert cls._fields == FIELDS[cls]


def test_defaults_and_repr():
    assert repr(InstanceParams(1, 2, 3, False)) == "InstanceParams(d=1, delta=2, beta=3, trivially_satisfiable=False)"
    assert LandscapeType(1, 2, 1, 3, 2, 1).fits_within(LandscapeType(1, 3, 1, 3, 2, 2))


def test_run_trace_starts_empty():
    trace = RunTrace(None, None, (0, 1))
    assert (trace.resampled, trace.final, trace.h_final, trace.status) == ([], (), (), "ok")
    assert trace.k == 0 and trace.max_resamples == 0
    assert RunTrace(None, None, ()).resampled is not trace.resampled


@pytest.mark.parametrize("args, message", [
    ((0, 4, ((0,),), 1), "must be positive"),
    ((1, 0, ((0,),), 1), "must be positive"),
    ((1, 4, (), 1), "nonempty"),
    ((1, 4, ((0, 1),), 1), "wrong dimension"),
    ((2, 4, ((0, 0), (1,)), 1), "wrong dimension"),
    ((1, 4, ((0,), (4,)), 1), "collide modulo 4"),
    ((2, 3, ((0, 1), (3, -2)), 1), "collide modulo 3"),
    ((1, 4, ((0,),), 0), "at least 1"),
    ((1, 4, ((0,), (1,)), 3), "no surjection onto 3 colors from 2 translates"),
    ((17, 1, ((0,) * 17,), 1), "dimension 17 is above the cap of 16"),
    ((2, 257, ((0, 0),), 1), "more than 65536 points"),
    ((1, 65536, tuple((i,) for i in range(5)), 1), "more than 262144 reads"),
])
def test_torus_spec_rejected_at_construction(args, message):
    with pytest.raises(ValueError, match=message):
        TorusSpec(*args)
    with pytest.raises(ValueError, match=message):
        TorusSpec(**dict(zip(FIELDS[TorusSpec], args)))
    with pytest.raises(ValueError, match=message):
        TorusSpec._make(args)
    with pytest.raises(ValueError, match=message):
        TorusSpec(2, 5, ((0, 0), (1, 0)), 1)._replace(**dict(zip(FIELDS[TorusSpec], args)))


def test_torus_spec_is_a_value():
    spec = TorusSpec(2, 8, ((0, 0), (0, 1)), 2)
    same = TorusSpec(dimension=2, side=8, translates=((0, 0), (0, 1)), colors=2)
    assert spec == same and hash(spec) == hash(same) and len({spec, same}) == 1
    assert spec != TorusSpec(2, 9, ((0, 0), (0, 1)), 2)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert repr(spec) == "TorusSpec(dimension=2, side=8, translates=((0, 0), (0, 1)), colors=2)"

