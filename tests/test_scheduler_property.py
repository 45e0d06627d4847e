"""Property test: schedulers select identical firings on randomized trees.

For a sweep of seeded random module trees — random depth, random
process/activity attributes (within Estelle's containment rules), random
token budgets and priority usage — every computation round must satisfy:

* ``CentralisedScheduler`` and ``DecentralisedScheduler`` produce the same
  plan (the paper's claim: the decentralised scheduler changes *where* the
  selection cost is paid, never *what* is selected);
* both plans match an **independent reference implementation** of the
  Estelle selection rules written out longhand below (parent precedence,
  process parallelism, activity exclusivity, priority order);
* the hard-coded and table-driven dispatch strategies agree on the chosen
  transitions.

The sweep also self-checks its coverage: across all seeds it must actually
have exercised the corner cases (a parent pre-empting an enabled child, an
activity parent suppressing a sibling subtree), so a future change to the
tree generator cannot silently hollow the test out.
"""

import random

import pytest

from repro.estelle import Module, ModuleAttribute, Specification, transition
from repro.runtime import (
    CentralisedScheduler,
    DecentralisedScheduler,
    HardCodedDispatch,
    IncrementalRoundPlanner,
    TableDrivenDispatch,
)

# -- building blocks ----------------------------------------------------------------


def _tick_guard(m):
    return m.variables.get("tokens", 0) > 0


def _bonus_guard(m):
    return m.variables.get("bonus", 0) > 0


class TokenNode(Module):
    """Base body: attribute variants subclass below (transitions inherit)."""

    ATTRIBUTE = ModuleAttribute.PROCESS
    STATES = ("run",)
    INITIAL_STATE = "run"

    @transition(from_state="run", provided=_tick_guard, cost=1.0, name="tick")
    def tick(self):
        self.variables["tokens"] -= 1

    # Higher priority (lower number) than tick: while bonus tokens remain,
    # the selection must choose bonus_tick even though tick is also enabled.
    @transition(
        from_state="run", provided=_bonus_guard, priority=-1, cost=1.0, name="bonus_tick"
    )
    def bonus_tick(self):
        self.variables["bonus"] -= 1


class SystemProcessNode(TokenNode):
    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS


class SystemActivityNode(TokenNode):
    ATTRIBUTE = ModuleAttribute.SYSTEMACTIVITY


class ProcessNode(TokenNode):
    ATTRIBUTE = ModuleAttribute.PROCESS


class ActivityNode(TokenNode):
    ATTRIBUTE = ModuleAttribute.ACTIVITY


def _child_classes(parent_attribute):
    if parent_attribute.children_parallel:
        return (ProcessNode, ActivityNode)
    return (ActivityNode,)


def build_random_tree(seed: int) -> Specification:
    rng = random.Random(seed)
    spec = Specification(f"random-tree-{seed}")

    def populate(parent: Module, depth: int) -> None:
        if depth >= 3:
            return
        for index in range(rng.randint(0, 3)):
            child_class = rng.choice(_child_classes(parent.attribute))
            child = parent.create_child(
                child_class,
                f"c{depth}_{index}",
                tokens=rng.randint(0, 3),
                bonus=rng.randint(0, 2),
            )
            populate(child, depth + 1)

    for index in range(rng.randint(1, 3)):
        root_class = rng.choice((SystemProcessNode, SystemActivityNode))
        system = spec.add_system_module(
            root_class,
            f"sys{index}",
            tokens=rng.randint(0, 3),
            bonus=rng.randint(0, 2),
        )
        populate(system, 0)
    spec.validate()
    return spec


# -- the independent reference ------------------------------------------------------


def reference_plan(spec: Specification):
    """The Estelle selection rules, written out independently of the
    scheduler module: returns [(module, chosen transition)] in walk order."""
    chosen = []

    def first_enabled(module):
        candidates = sorted(module.declared_transitions(), key=lambda t: t.priority)
        for candidate in candidates:
            if candidate.enabled(module):
                return candidate
        return None

    def walk(module) -> bool:
        fired = first_enabled(module)
        if fired is not None:
            # Parent precedence: the module fires, its whole subtree is done.
            chosen.append((module, fired))
            return True
        children = list(module.children.values())
        if module.attribute.children_parallel:
            any_fired = False
            for child in children:
                any_fired |= walk(child)
            return any_fired
        # activity / systemactivity: at most one child subtree fires.
        for child in children:
            if walk(child):
                return True
        return False

    for system in spec.system_modules():
        walk(system)
    return chosen


# -- the property sweep -------------------------------------------------------------


SEEDS = range(24)


class TestSchedulerSelectionProperty:
    def test_schedulers_and_reference_agree_on_random_trees(self):
        corners = {"parent_preempted_child": 0, "activity_suppressed_sibling": 0}

        for seed in SEEDS:
            spec = build_random_tree(seed)
            schedulers = (CentralisedScheduler(), DecentralisedScheduler())
            dispatches = (TableDrivenDispatch(), HardCodedDispatch())

            # Activity exclusivity serializes sibling subtrees, so deep
            # activity-heavy trees need many rounds to drain their tokens.
            for round_index in range(400):
                reference = reference_plan(spec)
                plans = [
                    scheduler.plan_round(spec, dispatch)
                    for scheduler in schedulers
                    for dispatch in dispatches
                ]
                reference_pairs = [
                    (module.path, chosen.name) for module, chosen in reference
                ]
                for plan in plans:
                    plan_pairs = [
                        (firing.module.path, firing.result.transition.name)
                        for firing in plan.firings
                    ]
                    assert plan_pairs == reference_pairs, (
                        f"seed {seed}, round {round_index}: scheduler plan "
                        f"{plan_pairs} != reference {reference_pairs}"
                    )

                self._count_corners(spec, reference, corners)
                if not reference:
                    break
                # Advance the system by firing the reference plan.
                for module, chosen in reference:
                    chosen.fire(module)
            else:
                pytest.fail(f"seed {seed} did not quiesce within 400 rounds")

        # The sweep must have met both precedence corners at least once.
        assert corners["parent_preempted_child"] > 0, corners
        assert corners["activity_suppressed_sibling"] > 0, corners

    @staticmethod
    def _count_corners(spec, reference, corners):
        fired_paths = {module.path for module, _ in reference}
        for module, _ in reference:
            for descendant in module.walk():
                if descendant is module:
                    continue
                if descendant.has_enabled_transition():
                    corners["parent_preempted_child"] += 1
        for module in spec.modules():
            if module.attribute.children_parallel:
                continue
            enabled_children = [
                child
                for child in module.children.values()
                if any(
                    node.has_enabled_transition() or node.path in fired_paths
                    for node in child.walk()
                )
            ]
            fired_children = [
                child
                for child in module.children.values()
                if any(node.path in fired_paths for node in child.walk())
            ]
            if len(enabled_children) > 1 and len(fired_children) == 1:
                corners["activity_suppressed_sibling"] += 1

    def test_incremental_planner_matches_rescan_on_random_mutation_sequences(self):
        """ISSUE 3: the incremental planner's round plans must be identical
        to a from-scratch ``plan_round`` rescan after *arbitrary* tracked
        mutation sequences — partial firings (sparse dirty sets), dynamic
        child creation and release (structure rebuilds) included.

        Three identically-seeded specification replicas run in lockstep: one
        is rescanned every round (the reference), one is planned by the fused
        planner (generated selectors), one by the interpreted incremental
        planner (table-driven re-evaluation, fused walk).
        """
        total_reused = 0
        structure_mutations = 0

        for seed in range(12):
            spec_rescan = build_random_tree(seed)
            spec_fused = build_random_tree(seed)
            spec_interp = build_random_tree(seed)
            fused = IncrementalRoundPlanner(spec_fused)
            interp = IncrementalRoundPlanner(
                spec_interp, dispatch=TableDrivenDispatch(), fused=False
            )
            scheduler = DecentralisedScheduler()
            dispatch = TableDrivenDispatch()
            rng = random.Random(10_000 + seed)
            child_counter = 0

            for round_index in range(200):
                rescan = scheduler.plan_round(spec_rescan, dispatch)
                reference = [
                    (f.module.path, f.result.transition.name) for f in rescan.firings
                ]
                for label, plan in (
                    ("fused", fused.plan_round()),
                    ("interpreted", interp.plan_round()),
                ):
                    pairs = [
                        (f.module.path, f.result.transition.name)
                        for f in plan.firings
                    ]
                    assert pairs == reference, (
                        f"seed {seed}, round {round_index}, {label} planner: "
                        f"{pairs} != rescan {reference}"
                    )
                if not reference:
                    break

                # Mutate: fire a random non-empty subset of the plan (token
                # guards are module-local, so any subset stays enabled) ...
                subset = [p for p in reference if rng.random() < 0.5] or [
                    rng.choice(reference)
                ]
                for spec in (spec_rescan, spec_fused, spec_interp):
                    for path, transition_name in subset:
                        module = spec.find(path)
                        type(module)._transition_declarations[transition_name].fire(
                            module
                        )
                # ... and occasionally change the tree shape, identically on
                # all three replicas.
                if round_index < 30 and rng.random() < 0.15:
                    parent_path = rng.choice(
                        [m.path for m in spec_rescan.modules()]
                    )
                    child_class = rng.choice(
                        _child_classes(spec_rescan.find(parent_path).attribute)
                    )
                    tokens, bonus = rng.randint(0, 2), rng.randint(0, 1)
                    name = f"late{child_counter}"
                    child_counter += 1
                    structure_mutations += 1
                    for spec in (spec_rescan, spec_fused, spec_interp):
                        spec.find(parent_path).create_child(
                            child_class, name, tokens=tokens, bonus=bonus
                        )

            total_reused += fused.stats.reused

        # Self-check: the sweep must actually have exercised cache reuse and
        # structure rebuilds, or the property is hollow.
        assert total_reused > 0
        assert structure_mutations > 0

    def test_planner_rebuilds_equal_structure_epoch_bumps_under_init_release(self):
        """ISSUE 5: randomized *release* sequences join the creates.  After
        every topology change (init or release) the incremental planner must
        (a) produce a plan identical to a from-scratch rescan, and (b) have
        rebuilt its fused program exactly once per observed structure-epoch
        bump — ``stats.rebuilds == structure_epoch + 1`` (the +1 is the
        initial program build), which holds because this sweep performs at
        most one topology change between consecutive plans.

        ISSUE 12: a rebuild carries the surviving modules' selections over,
        so the plan after an epoch re-evaluates exactly the modules a tracked
        mutation point touched plus the newcomers — (c) ``stats.evaluated``
        grows by that count, which is below the module count whenever an
        untouched module survived."""
        total_creates = 0
        total_releases = 0
        epochs_with_carry_over = 0
        for seed in range(8):
            spec_rescan = build_random_tree(seed)
            spec_fused = build_random_tree(seed)
            fused = IncrementalRoundPlanner(spec_fused)
            scheduler = DecentralisedScheduler()
            dispatch = TableDrivenDispatch()
            rng = random.Random(77_000 + seed)
            dynamic: list = []  # (parent path, child name) of live dynamic kids
            child_counter = 0
            topology_changes = 0
            # Paths the mutations since the previous plan touched (None
            # before the first plan, which evaluates everything).
            touched = None
            changed = False

            for round_index in range(120):
                rescan = scheduler.plan_round(spec_rescan, dispatch)
                evaluated_before = fused.stats.evaluated
                plan = fused.plan_round()
                if touched is not None:
                    evaluated = fused.stats.evaluated - evaluated_before
                    assert evaluated == len(touched), (
                        f"seed {seed}, round {round_index}: evaluated "
                        f"{evaluated} modules, mutations touched {sorted(touched)}"
                    )
                    if changed and evaluated < len(fused.program.modules):
                        epochs_with_carry_over += 1
                reference = [
                    (f.module.path, f.result.transition.name)
                    for f in rescan.firings
                ]
                pairs = [
                    (f.module.path, f.result.transition.name)
                    for f in plan.firings
                ]
                assert pairs == reference, (
                    f"seed {seed}, round {round_index}: planner {pairs} "
                    f"!= rescan {reference} after {topology_changes} changes"
                )
                # The planner-stats assertion: one rebuild per epoch bump.
                assert fused.tracker.structure_epoch == topology_changes
                assert fused.stats.rebuilds == topology_changes + 1

                if not reference and not dynamic:
                    break
                # Fire a random non-empty subset of the plan on both replicas.
                touched = set()
                changed = False
                if reference:
                    subset = [p for p in reference if rng.random() < 0.5] or [
                        rng.choice(reference)
                    ]
                    touched.update(path for path, _ in subset)
                    for spec in (spec_rescan, spec_fused):
                        for path, transition_name in subset:
                            module = spec.find(path)
                            type(module)._transition_declarations[
                                transition_name
                            ].fire(module)
                # Exactly one topology change between plans: create or
                # release, identically on both replicas.
                roll = rng.random()
                if roll < 0.25:
                    parent_path = rng.choice(
                        [m.path for m in spec_rescan.modules()]
                    )
                    child_class = rng.choice(
                        _child_classes(spec_rescan.find(parent_path).attribute)
                    )
                    tokens, bonus = rng.randint(0, 2), rng.randint(0, 1)
                    name = f"dyn{child_counter}"
                    child_counter += 1
                    topology_changes += 1
                    for spec in (spec_rescan, spec_fused):
                        spec.find(parent_path).create_child(
                            child_class, name, tokens=tokens, bonus=bonus
                        )
                    dynamic.append((parent_path, name))
                    total_creates += 1
                    touched.update((parent_path, f"{parent_path}/{name}"))
                    changed = True
                elif roll < 0.45 and dynamic:
                    parent_path, name = dynamic.pop(
                        rng.randrange(len(dynamic))
                    )
                    released_root = f"{parent_path}/{name}"
                    # Entries nested under the released subtree disappear
                    # with it (so later picks always name attached children).
                    dynamic = [
                        (p, n)
                        for p, n in dynamic
                        if p != released_root
                        and not p.startswith(released_root + "/")
                    ]
                    topology_changes += 1
                    total_releases += 1
                    for spec in (spec_rescan, spec_fused):
                        spec.find(parent_path).release_child(name)
                    touched = {
                        path
                        for path in touched
                        if path != released_root
                        and not path.startswith(released_root + "/")
                    } | {parent_path}
                    changed = True

            assert topology_changes > 0, f"seed {seed} never changed topology"

        # Self-check: the sweep must actually have exercised both kinds of
        # topology change, or the property is hollow.
        assert total_creates > 0 and total_releases > 0, (
            total_creates,
            total_releases,
        )
        assert epochs_with_carry_over > 0

    def test_priority_order_respected_within_a_module(self):
        """While bonus tokens remain, bonus_tick (priority -1) must win."""
        spec = Specification("priorities")
        spec.add_system_module(SystemProcessNode, "sys", tokens=2, bonus=2)
        spec.validate()
        names = []
        for _ in range(10):
            reference = reference_plan(spec)
            plan = DecentralisedScheduler().plan_round(spec, TableDrivenDispatch())
            assert [
                (f.module.path, f.result.transition.name) for f in plan.firings
            ] == [(m.path, t.name) for m, t in reference]
            if not reference:
                break
            for module, chosen in reference:
                names.append(chosen.name)
                chosen.fire(module)
        assert names == ["bonus_tick", "bonus_tick", "tick", "tick"]
