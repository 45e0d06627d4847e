"""Unit tests for the Estelle schedulers (round planning semantics)."""

import pytest

from repro.estelle import Module, ModuleAttribute, Specification, transition
from repro.runtime import (
    CentralisedScheduler,
    DecentralisedScheduler,
    HardCodedDispatch,
    TableDrivenDispatch,
    scheduler_by_name,
)
from tests.helpers import build_ping_pong_spec, build_worker_spec


class ParentWithWork(Module):
    """A systemprocess whose own transition competes with its children."""

    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("busy", "quiet")
    INITIAL_STATE = "busy"

    def initialise(self):
        super().initialise()
        self.create_child(BusyChild, "c1")
        self.create_child(BusyChild, "c2")

    @transition(from_state="busy", to_state="quiet", cost=1.0)
    def own_work(self):
        pass


class BusyChild(Module):
    ATTRIBUTE = ModuleAttribute.PROCESS
    STATES = ("busy",)

    @transition(from_state="busy", provided=lambda m: m.variables.get("steps", 0) < 3, cost=1.0)
    def child_work(self):
        self.variables["steps"] = self.variables.get("steps", 0) + 1


class ActivityParent(Module):
    """systemactivity parent: its children must be mutually exclusive."""

    ATTRIBUTE = ModuleAttribute.SYSTEMACTIVITY
    STATES = ("s",)

    def initialise(self):
        super().initialise()
        self.create_child(BusyActivity, "a1")
        self.create_child(BusyActivity, "a2")


class BusyActivity(Module):
    ATTRIBUTE = ModuleAttribute.ACTIVITY
    STATES = ("busy",)

    @transition(from_state="busy", provided=lambda m: m.variables.get("steps", 0) < 3, cost=1.0)
    def work(self):
        self.variables["steps"] = self.variables.get("steps", 0) + 1


def plan(spec, scheduler=None, dispatch=None):
    scheduler = scheduler or DecentralisedScheduler()
    dispatch = dispatch or TableDrivenDispatch()
    return scheduler.plan_round(spec, dispatch)


class TestSelectionSemantics:
    def test_parent_precedence(self):
        spec = Specification("t")
        spec.add_system_module(ParentWithWork, "sys")
        spec.validate()
        first = plan(spec)
        assert [f.module.path for f in first.firings] == ["t/sys"]
        # Fire the parent's transition; afterwards the children may run.
        first.firings[0].result.transition.fire(first.firings[0].module)
        second = plan(spec)
        assert sorted(f.module.path for f in second.firings) == ["t/sys/c1", "t/sys/c2"]

    def test_process_children_run_in_parallel(self):
        spec = build_worker_spec(workers=4, steps=2)
        round_plan = plan(spec)
        assert len(round_plan.firings) == 4
        # 1 system module + 4 workers examined, whichever scheduler walks
        assert round_plan.examined_modules == 5
        assert plan(spec, scheduler=CentralisedScheduler()).examined_modules == 5

    def test_activity_children_mutually_exclusive(self):
        spec = Specification("t")
        spec.add_system_module(ActivityParent, "sys")
        spec.validate()
        round_plan = plan(spec)
        assert len(round_plan.firings) == 1
        assert round_plan.firings[0].module.path.startswith("t/sys/a")

    def test_system_modules_independent(self):
        spec = build_ping_pong_spec()
        # Initially only the pinger can fire (the ponger has no input yet),
        # but both system modules must have been examined.
        round_plan = plan(spec)
        assert {f.module.path for f in round_plan.firings} == {"ping-pong/pinger"}
        assert round_plan.examined_modules == 2

    def test_empty_plan_when_quiescent(self):
        spec = build_worker_spec(workers=1, steps=0)
        round_plan = plan(spec)
        assert round_plan.empty


class TestOverheadAccounting:
    def test_examined_costs_include_dispatch_scanning(self):
        spec = build_worker_spec(workers=2, steps=1)
        dispatch = HardCodedDispatch(scan_cost=0.5)
        round_plan = DecentralisedScheduler().plan_round(spec, dispatch)
        assert all(cost >= 0.0 for cost in round_plan.examined_costs.values())
        worker_paths = [p for p in round_plan.examined_costs if "worker-" in p]
        assert all(round_plan.examined_costs[p] == pytest.approx(0.5) for p in worker_paths)


class TestFactory:
    def test_by_name(self):
        assert isinstance(scheduler_by_name("centralised"), CentralisedScheduler)
        assert isinstance(scheduler_by_name("decentralised"), DecentralisedScheduler)
        with pytest.raises(ValueError):
            scheduler_by_name("anarchic")
