import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from satdefsim.scheduler import ScanTask
from satdefsim.workload import (
    Arrival,
    InstanceState,
    Priority,
    TaskInstance,
    admit,
    generate_arrivals,
)

from conftest import make_instance, make_spec


class TestGenerateArrivals:
    def test_periodic_interval_30(self):
        spec = make_spec(arrival=Arrival(kind="periodic", interval=30), priority=Priority.HIGH, firm=True)
        out = generate_arrivals([spec], 90, seed=0)
        assert [i.req for i in out] == [0, 30, 60]

    def test_poisson_mean_count(self):
        # 100 seeds at rate 0.3 over 2000 slots: mean 600 within 3 sigma of the mean
        spec = make_spec(rate=0.3)
        counts = [len(generate_arrivals([spec], 2000, seed=s)) for s in range(100)]
        tol = 3 * np.sqrt(600 * 100) / 100
        assert abs(np.mean(counts) - 600) <= tol

    def test_zero_rate_yields_nothing(self):
        spec = make_spec(rate=0.0)
        assert generate_arrivals([spec], 500, seed=1) == []

    def test_empty_specs(self):
        assert generate_arrivals([], 100, seed=0) == []

    def test_reproducible(self):
        specs = [make_spec(tid="a", rate=0.5), make_spec(tid="b", arrival=Arrival(kind="periodic", interval=7))]
        a = [(i.req, i.spec.id) for i in generate_arrivals(specs, 300, seed=42)]
        b = [(i.req, i.spec.id) for i in generate_arrivals(specs, 300, seed=42)]
        assert a == b

    def test_sorted_high_priority_first_on_ties(self):
        lo = make_spec(tid="zlow", arrival=Arrival(kind="periodic", interval=10), priority=Priority.LOW)
        hi = make_spec(tid="ahigh", arrival=Arrival(kind="periodic", interval=10), priority=Priority.HIGH)
        out = generate_arrivals([lo, hi], 20, seed=0)
        assert [i.spec.id for i in out[:2]] == ["ahigh", "zlow"]
        reqs = [i.req for i in out]
        assert reqs == sorted(reqs)

    def test_deadline_set_from_start(self):
        spec = make_spec(arrival=Arrival(kind="periodic", interval=30), deadline=15, processing=8)
        inst = generate_arrivals([spec], 40, seed=0)[1]
        assert inst.deadline == 30 + 15


class TestAdmit:
    def test_boundary_admitted(self):
        inst = make_instance(processing=5, deadline=5)
        inst.deadline = 20
        inst.remaining = 5
        assert admit(inst, 15) == InstanceState.ADMITTED

    def test_one_past_boundary_dropped(self):
        inst = make_instance(processing=5, deadline=5)
        inst.deadline = 20
        inst.remaining = 5
        assert admit(inst, 16) == InstanceState.DROPPED

    def test_non_queued_is_contract_violation(self):
        inst = make_instance()
        admit(inst, 0)
        with pytest.raises(ValueError):
            admit(inst, 0)

    @given(deadline=st.integers(5, 60), t=st.integers(0, 60), remaining=st.integers(1, 10))
    def test_admission_rule_property(self, deadline, t, remaining):
        inst = make_instance(processing=remaining, deadline=remaining)
        inst.deadline = deadline
        inst.remaining = remaining
        state = admit(inst, t)
        assert (state == InstanceState.ADMITTED) == (deadline - t >= remaining)


class TestValidation:
    def test_demand_out_of_range(self):
        with pytest.raises(ValueError):
            make_spec(demand=(0.5, 1.2))

    def test_nan_demand_rejected(self):
        # the scheduler's float-tuple capacity checks assume ordered values
        with pytest.raises(ValueError):
            make_spec(demand=(0.5, float("nan")))
        with pytest.raises(ValueError):
            ScanTask(demand=np.array([float("nan"), 0.1]), power_weight=0.1, duration=2)

    def test_demand_is_a_float_tuple(self):
        spec = make_spec(demand=(0.05, 0.15))
        assert spec.demand == (0.05, 0.15)
        assert all(type(v) is float for v in spec.demand)
        assert dataclasses.replace(spec, demand=np.array([0.2, 0.3])).demand == (0.2, 0.3)
        scan = ScanTask(demand=np.array([0.15, 0.05]), power_weight=0.1, duration=2)
        assert scan.demand == (0.15, 0.05) and all(type(v) is float for v in scan.demand)

    def test_priority_stored_as_member(self):
        # the slot solver partitions by identity with the Priority members
        assert make_spec(priority="high").priority is Priority.HIGH
        assert make_spec(priority=Priority.LOW).priority is Priority.LOW
        with pytest.raises(ValueError):
            make_spec(priority="urgent")

    def test_deadline_below_processing(self):
        with pytest.raises(ValueError):
            make_spec(processing=6, deadline=5)

    def test_periodic_interval_positive(self):
        with pytest.raises(ValueError):
            Arrival(kind="periodic", interval=0)

    def test_unknown_arrival_kind(self):
        with pytest.raises(ValueError):
            Arrival(kind="sporadic")

    def test_run_without_work_raises(self):
        inst = make_instance(processing=1, deadline=2)
        inst.run_one_slot()
        assert inst.state == InstanceState.COMPLETED
        with pytest.raises(RuntimeError):
            inst.run_one_slot()


def test_stability_fraction_uses_rate_times_processing():
    spec = make_spec(rate=0.3, processing=18, deadline=50)
    assert spec.stability_fraction == pytest.approx(5.4)
    periodic = make_spec(arrival=Arrival(kind="periodic", interval=10))
    assert periodic.stability_fraction == 0.0


def test_instance_copies_keep_every_field():
    """Instances have slots, not a ``__dict__``: a shallow copy, a deep
    copy and a pickle round trip keep every field, and an unknown
    attribute cannot be set."""
    inst = make_instance(uid=7, req=3, processing=4, deadline=9)
    admit(inst, 3)
    inst.run_one_slot()
    fields = [f.name for f in dataclasses.fields(TaskInstance)]
    want = [getattr(inst, name) for name in fields]
    assert want == [7, inst.spec, 3, 12, 3, InstanceState.ADMITTED, 1]
    shallow = copy.copy(inst)
    assert shallow.spec is inst.spec
    for other in (shallow, copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
        assert other is not inst
        assert [getattr(other, name) for name in fields] == want
        assert other.state is InstanceState.ADMITTED
    assert not hasattr(inst, "__dict__")
    with pytest.raises(AttributeError):
        inst.priority = Priority.HIGH
