"""Co-efficient modules: registration, mapping resolution, guarded injection."""

import random

import pytest

from coagent.bdi.beliefs import BeliefBase
from coagent.bdi.config import AgentConfiguration, ConfigurationCorruption, Step
from coagent.bdi.events import TOP, EventCategory, TriggeringEvent, pattern
from coagent.bdi.expressions import TRUE, Expr
from coagent.bdi.interpreter import post_external_event, run_cycle, select_event
from coagent.bdi.plans import Act, Believe, Plan, PlanLibrary, Subgoal
from coagent.coefficiency import (
    CoefficientModule,
    EventMappingEntry,
    EventTemplate,
    MappingError,
    ModuleRegistrationError,
    Placement,
    eval_guard,
    register_module,
    resolve_mapping,
    select_event_coefficient,
)

from tests.conftest import instantiate, random_program
from tests.helpers import assert_lockstep


def entry(
    observe_subject="load",
    observe_category="belief-updated",
    inject_subject="publishCapacity",
    placement=Placement.NEW_INTENTION,
    guard=TRUE,
    payload=None,
):
    return EventMappingEntry(
        observe=pattern(observe_category, observe_subject),
        inject=EventTemplate(EventCategory.GOAL_ADDED, inject_subject, payload or {}),
        placement=placement,
        guard=guard,
    )


def agent(plans=(), beliefs=None):
    return AgentConfiguration(
        "a",
        beliefs=BeliefBase(dict(beliefs or {})),
        plans=PlanLibrary(list(plans)),
        actions={"ping"},
    )


class TestRegisterModule:
    def test_plans_merge_with_prefixed_names(self):
        plan = Plan("react", pattern("goal-added", "g"), (Act("ping", {}),))
        cfg = agent()
        register_module(cfg, CoefficientModule("m1", plans=[plan]))
        assert "m1.react" in cfg.plans
        assert len(cfg.plans) == 1

    def test_plans_and_mapping_guards_spell_module_beliefs_bare(self):
        # One naming rule: registration renames a module's beliefs in its
        # plans and in its mapping guards alike.  A guard that spells the
        # host key reads the same belief, since that name is not renamed.
        cfg = agent()
        register_module(
            cfg,
            CoefficientModule(
                "m",
                beliefs={"on": True},
                plans=[Plan("p", pattern("goal-added", "g"), (Act("ping", {}),), Expr("on"))],
                mapping=[
                    entry(inject_subject="bare", guard=Expr("on")),
                    entry(inject_subject="prefixed", guard=Expr("m__on")),
                ],
            ),
        )
        assert cfg.beliefs.get("m__on") is True and cfg.beliefs.get("on") is None
        assert cfg.plans.by_id["m.p"].context.source == "m__on"
        assert [entry.guard.source for entry in cfg.mapping["m"]] == ["m__on", "m__on"]
        post_external_event(cfg, TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {}))
        cfg.step = Step.SEL_EV
        select_event_coefficient(cfg)
        assert [event.te.subject for event in cfg.circumstance.events] == ["bare"]

    def test_duplicate_module_id_rejected(self):
        cfg = agent()
        register_module(cfg, CoefficientModule("m1"))
        with pytest.raises(ModuleRegistrationError):
            register_module(cfg, CoefficientModule("m1"))

    def test_namespace_collision_rejected(self):
        collider = Plan("m1.react", pattern("goal-added", "g"), (Act("ping", {}),))
        cfg = agent([collider])
        mod = CoefficientModule(
            "m1", plans=[Plan("react", pattern("goal-added", "g"), (Act("ping", {}),))]
        )
        with pytest.raises(ModuleRegistrationError):
            register_module(cfg, mod)

    def test_a_plan_id_declared_twice_in_a_module_is_rejected_before_the_host_changes(self):
        cfg = agent([Plan("host", pattern("goal-added", "h"), (Act("ping", {}),))])
        library = cfg.plans
        mod = CoefficientModule(
            "m",
            beliefs={"y": 1},
            plans=[Plan("p", pattern("goal-added", "g"), (Act("ping", {}),))] * 2,
        )
        with pytest.raises(ModuleRegistrationError, match="'m.p' collides"):
            register_module(cfg, mod)
        assert cfg.plans is library and list(library.by_id) == ["host"]
        assert "m__y" not in cfg.beliefs and not cfg.modules

    @pytest.mark.parametrize("exported", ["subject", ""])
    def test_an_empty_or_reserved_belief_key_is_refused_before_the_host_changes(self, exported):
        cfg = agent([Plan("host", pattern("goal-added", "h"), (Act("ping", {}),))])
        library = cfg.plans
        mod = CoefficientModule(
            "m",
            beliefs={"a": 1, exported: 2},
            plans=[Plan("p", pattern("goal-added", "g"), (Act("ping", {}),))],
            mapping=[entry()],
            exports=frozenset({exported}),
        )
        with pytest.raises(ModuleRegistrationError, match="empty or a reserved name"):
            register_module(cfg, mod)
        assert cfg.beliefs.as_dict() == {}
        assert cfg.plans is library and list(library.by_id) == ["host"]
        assert not cfg.modules and not cfg.mapping and cfg.select_event_override is None

    def test_an_unexported_reserved_belief_key_is_refused(self):
        # Spelled bare, "subject" is the observed event's subject, so no
        # module belief may take it, prefixed or not.
        cfg = agent()
        with pytest.raises(ModuleRegistrationError) as refused:
            register_module(cfg, CoefficientModule("m", beliefs={"subject": 1}))
        assert str(refused.value) == "module 'm' belief 'subject' is empty or a reserved name"
        assert cfg.beliefs.as_dict() == {} and not cfg.modules

    @pytest.mark.parametrize("exports", [{"sen"}, {"seen", ""}, {"p", "q"}])
    def test_an_export_that_names_no_belief_or_plan_is_refused_before_the_host_changes(
        self, exports
    ):
        cfg = agent()
        library = cfg.plans
        mod = CoefficientModule(
            "m",
            beliefs={"seen": 0},
            plans=[Plan("p", pattern("goal-added", "g"), (Act("ping", {}),))],
            exports=frozenset(exports),
        )
        with pytest.raises(ModuleRegistrationError) as refused:
            register_module(cfg, mod)
        (name,) = exports - {"seen", "p"}
        assert str(refused.value) == (
            f"module 'm' export {name!r} names none of its beliefs or plans"
        )
        assert cfg.beliefs.as_dict() == {} and cfg.plans is library and not cfg.modules

    def test_registration_leaves_a_shared_library_as_it_was(self):
        library = PlanLibrary([Plan("work", pattern("goal-added", "g"), (Act("ping", {}),))])
        actions = frozenset({"ping"})
        first, second = (
            AgentConfiguration(name, plans=library, actions=actions) for name in ("a", "b")
        )
        before = second.snapshot_json()
        goal = TriggeringEvent(EventCategory.GOAL_ADDED, "g", {})
        assert library.relevant(goal) == ["work"]  # an index entry to keep
        module = CoefficientModule(
            "m", plans=[Plan("extra", pattern("goal-added", "g"), (Act("ping", {}),))]
        )
        register_module(first, module)
        assert list(first.plans.by_id) == ["work", "m.extra"]
        assert first.plans.relevant(goal) == ["work", "m.extra"]
        assert second.plans is library and list(library.by_id) == ["work"]
        assert library.relevant(goal) == ["work"]
        assert second.circumstance.actions is actions
        # The unregistered host runs as it would have alone.
        alone = AgentConfiguration("b", plans=PlanLibrary(library.by_id.values()), actions=actions)
        assert second.snapshot_json() == before
        for cfg in (second, alone):
            post_external_event(cfg, goal)
            for _ in range(3):
                run_cycle(cfg)
        assert second.snapshot_json() == alone.snapshot_json()

    def test_unregistered_hosts_share_empty_module_values_registration_replaces(self):
        # Before registration every host holds one empty module table,
        # mapping and hook value; registering gives one host new values.
        first, second = AgentConfiguration("a"), AgentConfiguration("b")
        assert first.modules is second.modules == {}
        assert first.mapping is second.mapping == {}
        assert first.observation_hooks is second.observation_hooks == ()
        register_module(first, CoefficientModule("m", mapping=[entry()]))
        assert list(first.modules) == list(first.mapping) == ["m"]
        assert len(first.observation_hooks) == 1
        assert second.modules == second.mapping == {} and second.observation_hooks == ()
        assert AgentConfiguration("c").modules == {}

    def test_hosts_of_one_library_each_get_the_module_plans(self):
        library = PlanLibrary([Plan("work", pattern("goal-added", "g"), (Act("ping", {}),))])
        other = PlanLibrary(library.by_id.values())
        hosts = [AgentConfiguration(name, plans=library) for name in "abcd"]
        elsewhere = AgentConfiguration("e", plans=other)
        plan = Plan("extra", pattern("goal-added", "g"), (Act("ping", {}),))
        module, twin = (CoefficientModule("m", beliefs={"y": 1}, plans=[plan]) for _ in "12")
        for host in hosts[:2]:
            register_module(host, module)
        merged = hosts[0].plans
        assert list(hosts[1].plans.by_id) == list(merged.by_id)
        register_module(elsewhere, module)
        assert list(elsewhere.plans.by_id) == list(merged.by_id) == ["work", "m.extra"]
        register_module(hosts[2], twin)  # an equal module, not this one
        assert list(hosts[2].plans.by_id) == ["work", "m.extra"]
        assert list(library.by_id) == ["work"] and list(other.by_id) == ["work"]
        # A belief clash is the host's own: refused before the host changes,
        # also right after the module gave a library for the host's.
        register_module(AgentConfiguration("f", plans=library), module)
        hosts[3].beliefs.set("m__y", 0)
        with pytest.raises(ModuleRegistrationError, match="'m__y' collides"):
            register_module(hosts[3], module)
        assert hosts[3].plans is library and not hosts[3].modules

    def test_a_module_without_plans_keeps_the_host_library(self):
        cfg = agent([Plan("work", pattern("goal-added", "g"), (Act("ping", {}),))])
        library = cfg.plans
        register_module(cfg, CoefficientModule("m", mapping=[entry()]))
        assert cfg.plans is library

    def test_two_modules_concatenate_mappings_in_registration_order(self):
        # Oracle: inspect the merged mapping directly.
        first = CoefficientModule("m1", mapping=[entry(observe_subject="a")])
        second = CoefficientModule("m2", mapping=[entry(observe_subject="b")])
        cfg = agent()
        register_module(cfg, first)
        register_module(cfg, second)
        assert list(cfg.mapping) == ["m1", "m2"]
        assert [e.observe.subject for es in cfg.mapping.values() for e in es] == ["a", "b"]

    def test_module_beliefs_are_namespaced_and_references_rewritten(self):
        mod = CoefficientModule(
            "m1",
            beliefs={"counter": 0},
            plans=[
                Plan(
                    "bump",
                    pattern("goal-added", "bump"),
                    (Believe("counter", Expr("counter + 1")),),
                    context=Expr("counter < 2"),
                )
            ],
        )
        cfg = agent()
        register_module(cfg, mod)
        assert cfg.beliefs.get("m1__counter") == 0
        post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "bump", {}))
        run_cycle(cfg)
        assert cfg.beliefs.get("m1__counter") == 1

    def test_exported_names_stay_unprefixed(self):
        mod = CoefficientModule(
            "m1",
            plans=[Plan("shared", pattern("goal-added", "g"), (Act("ping", {}),))],
            exports=frozenset({"shared"}),
        )
        cfg = agent()
        register_module(cfg, mod)
        assert "shared" in cfg.plans

    def test_a_template_expression_that_reads_a_belief_is_refused(self):
        # A template sees no beliefs, so a bare name in it is always
        # undefined; the observed event's subject and payload it may read.
        EventTemplate(EventCategory.GOAL_ADDED, "go", {"s": Expr("subject + payload.x")})
        with pytest.raises(MappingError) as refused:
            EventTemplate(
                EventCategory.GOAL_ADDED, "go", {"s": Expr("subject"), "v": Expr("b + a > subject")}
            )
        assert str(refused.value) == (
            "payload 'v' reads beliefs ['a', 'b']; a template reads only the observed event"
        )

    def test_observation_only_categories_rejected_as_injection(self):
        with pytest.raises(MappingError):
            EventTemplate(EventCategory.PLAN_STARTED, "x", {})
        with pytest.raises(MappingError):
            EventTemplate(EventCategory.PLAN_FINISHED, "x", {})


class TestResolveMapping:
    def test_empty_mapping_resolves_nothing(self):
        te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {})
        assert resolve_mapping([], te) is None

    def test_match_instantiates_template(self):
        # Oracle: pattern-match independently, then check the instantiation.
        mapping = [
            entry(
                guard=Expr("deployed < capacity"),
                payload={"was": Expr("payload.old")},
            )
        ]
        te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {"old": 2, "new": 3})
        assert mapping[0].observe.matches(te)
        resolved = resolve_mapping(mapping, te)
        assert resolved is not None
        te_d = resolved.inject.instantiate(te)
        assert te_d == TriggeringEvent(EventCategory.GOAL_ADDED, "publishCapacity", {"was": 2})
        assert resolved.placement is Placement.NEW_INTENTION
        assert resolved.guard is mapping[0].guard

    def test_first_declared_entry_wins(self):
        mapping = [entry(inject_subject="first"), entry(inject_subject="second")]
        te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {})
        te_d = resolve_mapping(mapping, te).inject.instantiate(te)
        assert te_d.subject == "first"

    def test_unresolvable_template_fields_are_omitted(self):
        mapping = [entry(payload={"x": Expr("payload.missing"), "y": Expr("1")})]
        te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {})
        te_d = resolve_mapping(mapping, te).inject.instantiate(te)
        assert te_d.payload == {"y": 1}


class TestEvalGuard:
    def test_absent_guard_is_true(self):
        cfg = agent()
        te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {})
        assert eval_guard(TRUE, te, cfg) is True

    def test_guard_over_beliefs(self):
        cfg = agent(beliefs={"deployed": 3, "capacity": 5})
        te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {})
        assert eval_guard(Expr("deployed < capacity"), te, cfg) is True
        cfg.beliefs.set("deployed", 5)
        assert eval_guard(Expr("deployed < capacity"), te, cfg) is False

    def test_guard_referencing_absent_belief_is_false(self):
        # Totality rule oracle: comparisons over absent references are false.
        cfg = agent()
        te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {})
        assert eval_guard(Expr("missing < 5"), te, cfg) is False

    def test_guard_sees_event_bindings(self):
        cfg = agent()
        te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {"old": 10, "new": 30})
        guard = Expr("abs(payload.new - payload.old) / payload.old >= 0.5")
        assert eval_guard(guard, te, cfg) is True


def observed_agent(guard=TRUE, placement=Placement.NEW_INTENTION):
    """Agent with one mapping entry observing belief-updated(load)."""
    cfg = agent(
        plans=[Plan("h", pattern("goal-added", "publishCapacity"), (Act("ping", {}),))],
        beliefs={"deployed": 1, "capacity": 5},
    )
    register_module(
        cfg,
        CoefficientModule(
            "obs", mapping=[entry(guard=guard, placement=placement)]
        ),
    )
    return cfg


class TestSelectEventCoefficient:
    """The three outcomes of the extended selection rule, plus the empty case."""

    def test_observed_event_with_true_guard_injects_exactly_one(self):
        cfg = observed_agent(guard=Expr("deployed < capacity"))
        te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {"old": 1, "new": 2})
        post_external_event(cfg, te)
        queue_before = len(cfg.circumstance.events)
        cfg.step = Step.SEL_EV
        select_event_coefficient(cfg)
        # Original selected and removed; exactly one injected event appended.
        assert cfg.temp.epsilon is not None and cfg.temp.epsilon.te == te
        assert cfg.step is Step.REL_PL
        assert len(cfg.circumstance.events) == queue_before  # -1 selected, +1 injected
        (injected,) = cfg.circumstance.events
        assert injected.te.subject == "publishCapacity"
        assert injected.intention is TOP  # new-intention placement

    def test_current_intention_placement_pairs_with_selected_events_intention(self):
        cfg = observed_agent(placement=Placement.CURRENT_INTENTION)
        # Fabricate a live intention and pair the observed event with it.
        intention = cfg.new_intention()
        from coagent.bdi.plans import PlanRecord

        intention.stack.append(
            PlanRecord("h", TriggeringEvent(EventCategory.GOAL_ADDED, "publishCapacity", {}))
        )
        te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {})
        cfg.append_event(te, intention.intention_id)
        cfg.step = Step.SEL_EV
        select_event_coefficient(cfg)
        (injected,) = cfg.circumstance.events
        assert injected.intention == intention.intention_id

    def test_current_intention_placement_with_top_event_degenerates_to_top(self):
        cfg = observed_agent(placement=Placement.CURRENT_INTENTION)
        post_external_event(cfg, TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {}))
        cfg.step = Step.SEL_EV
        select_event_coefficient(cfg)
        (injected,) = cfg.circumstance.events
        assert injected.intention is TOP

    def test_observed_event_with_false_guard_removes_selected_only(self):
        cfg = observed_agent(guard=Expr("deployed > capacity"))
        te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {})
        post_external_event(cfg, te)
        cfg.step = Step.SEL_EV
        select_event_coefficient(cfg)
        assert cfg.circumstance.events == []  # removal, no injection
        assert cfg.temp.epsilon is not None and cfg.temp.epsilon.te == te
        assert cfg.step is Step.REL_PL

    def test_unobserved_event_is_step_identical_to_plain_selection(self):
        te = TriggeringEvent(EventCategory.GOAL_ADDED, "unrelated", {})
        with_modules = observed_agent()
        plain = observed_agent()
        plain.modules.clear()
        plain.mapping.clear()
        plain.select_event_override = None
        for cfg in (with_modules, plain):
            post_external_event(cfg, te)
            cfg.step = Step.SEL_EV
        select_event_coefficient(with_modules)
        select_event(plain)
        assert with_modules.snapshot_json() == plain.snapshot_json()

    def test_empty_queue_behaves_like_plain_selection(self):
        cfg = observed_agent()
        cfg.step = Step.SEL_EV
        select_event_coefficient(cfg)
        assert cfg.step is Step.SEL_INT

    @pytest.mark.parametrize("step", [Step.PROC_MSG, Step.SEL_INT, Step.CLR_INT])
    def test_empty_queue_at_another_step_is_corruption(self, step):
        # The empty-queue shortcut is taken at SelEv only; elsewhere plain
        # selection's step check raises.
        cfg = observed_agent()
        cfg.step = step
        with pytest.raises(ConfigurationCorruption, match="expected step SelEv"):
            select_event_coefficient(cfg)
        assert cfg.step is step

    def test_injected_event_waits_in_queue_not_processed_immediately(self):
        cfg = observed_agent()
        post_external_event(cfg, TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {}))
        cfg.step = Step.SEL_EV
        select_event_coefficient(cfg)
        # The injected goal is in the queue; processing it requires later cycles.
        (injected,) = cfg.circumstance.events
        assert injected.te.subject == "publishCapacity"
        assert cfg.temp.epsilon.te.subject == "load"

    def test_injected_event_traverses_normal_pipeline(self):
        # Reasoner authority: the injection becomes an intention only through
        # the ordinary relevant/applicable pipeline.
        cfg = observed_agent()
        post_external_event(cfg, TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {}))
        run_cycle(cfg)  # selects `load`, injects the goal, drops `load`
        assert cfg.circumstance.intentions == {}
        run_cycle(cfg)  # the injected goal is now selected and adopted
        started = [o for o in cfg.observations if o["kind"] == "plan-started"]
        assert [o["te"]["subject"] for o in started] == ["h"]

    def test_non_interference_selected_event_unchanged_by_modules(self):
        # The injection never alters which event is processed.
        te1 = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {"k": 1})
        te2 = TriggeringEvent(EventCategory.GOAL_ADDED, "other", {})
        cfg = observed_agent()
        post_external_event(cfg, te1)
        post_external_event(cfg, te2)
        cfg.step = Step.SEL_EV
        select_event_coefficient(cfg)
        assert cfg.temp.epsilon.te == te1  # FIFO choice, exactly as plain SelEv


class TestObservationStreamMatching:
    def test_plan_lifecycle_events_trigger_injection(self):
        # plan-started is matchable as an observed pattern even though it
        # never enters the event queue.
        cfg = agent(
            plans=[Plan("work", pattern("goal-added", "g"), (Act("ping", {}),))],
        )
        module = CoefficientModule(
            "audit",
            mapping=[
                EventMappingEntry(
                    observe=pattern("plan-started", "work"),
                    inject=EventTemplate(EventCategory.GOAL_ADDED, "audit.note", {}),
                    placement=Placement.NEW_INTENTION,
                )
            ],
        )
        register_module(cfg, module)
        post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}))
        run_cycle(cfg)
        subjects = [event.te.subject for event in cfg.circumstance.events]
        assert "audit.note" in subjects

    def test_plan_finished_observation_matches_too(self):
        cfg = agent(plans=[Plan("work", pattern("goal-added", "g"), (Act("ping", {}),))])
        module = CoefficientModule(
            "audit",
            mapping=[
                EventMappingEntry(
                    observe=pattern("plan-finished", "work"),
                    inject=EventTemplate(EventCategory.GOAL_ADDED, "audit.done", {}),
                )
            ],
        )
        register_module(cfg, module)
        post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}))
        run_cycle(cfg)
        subjects = [event.te.subject for event in cfg.circumstance.events]
        assert "audit.done" in subjects

    def test_plan_finished_hook_runs_before_the_goal_outcome(self):
        # A finished record is observed, then closed: the hook's injection
        # queues ahead of the goal-succeeded event, while the intention is
        # still listed, so current-intention placement pairs it with that
        # intention; dropping the intention re-pairs both with TOP.
        cfg = agent(
            plans=[
                Plan("top", pattern("goal-added", "g"), (Subgoal("h", {}), Act("ping", {}))),
                Plan("sub", pattern("goal-added", "h"), (Act("ping", {}),)),
            ]
        )
        module = CoefficientModule(
            "audit",
            mapping=[
                EventMappingEntry(
                    observe=pattern("plan-finished", "*"),
                    inject=EventTemplate(EventCategory.GOAL_ADDED, "audit", {}),
                    placement=Placement.CURRENT_INTENTION,
                )
            ],
        )
        register_module(cfg, module)
        post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}))
        run_cycle(cfg)  # top posts h and waits on it

        def queue():
            return [
                (event.te.category.value, event.te.subject, event.intention)
                for event in cfg.circumstance.events
            ]

        run_cycle(cfg)  # sub runs and finishes
        assert queue() == [("goal-added", "audit", 1), ("goal-succeeded", "h", 1)]
        assert cfg.circumstance.intentions[1].stack[-1].waiting_on is None
        run_cycle(cfg)  # audit is discarded; top runs ping and finishes
        assert queue() == [
            ("goal-succeeded", "h", TOP),
            ("goal-added", "audit", TOP),
            ("goal-succeeded", "g", TOP),
        ]
        assert cfg.circumstance.intentions == {}

    def test_entries_registered_after_an_entryless_module_see_lifecycle_events(self):
        # A module without entries installs no lifecycle hook; the first
        # module that declares entries does, whenever it registers.
        cfg = agent(plans=[Plan("work", pattern("goal-added", "g"), (Act("ping", {}),))])
        cfg.record_observations = False
        register_module(cfg, CoefficientModule("quiet"))
        assert cfg.observation_hooks == ()
        module = CoefficientModule(
            "audit",
            mapping=[
                EventMappingEntry(
                    observe=pattern("plan-finished", "work"),
                    inject=EventTemplate(EventCategory.GOAL_ADDED, "audit.done", {}),
                )
            ],
        )
        register_module(cfg, module)
        post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}))
        run_cycle(cfg)
        subjects = [event.te.subject for event in cfg.circumstance.events]
        assert subjects == ["audit.done", "g"]

    @pytest.mark.parametrize("lifecycle", ["plan-started", "plan-finished"])
    def test_injection_does_not_depend_on_recording(self, lifecycle):
        # The lifecycle hook fires whether or not observations are recorded;
        # only the records differ.
        runs = []
        for record in (True, False):
            cfg = agent(plans=[Plan("work", pattern("goal-added", "g"), (Act("ping", {}),))])
            cfg.record_observations = record
            module = CoefficientModule(
                "audit",
                mapping=[
                    EventMappingEntry(
                        observe=pattern(lifecycle, "work"),
                        inject=EventTemplate(EventCategory.GOAL_ADDED, "audit.note", {}),
                    )
                ],
            )
            register_module(cfg, module)
            post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}))
            states = []
            for _ in range(3):
                run_cycle(cfg)
                state = cfg.snapshot()
                state.pop("observations")
                states.append(state)
            runs.append((states, cfg.observations))
        (recorded_states, recorded), (states, unrecorded) = runs
        assert states == recorded_states
        assert "audit.note" in [event["te"]["subject"] for event in states[0]["events"]]
        assert any(o["kind"] == lifecycle for o in recorded)
        assert unrecorded == []


class TestBaselineBisimulation:
    @pytest.mark.parametrize("seed", range(25))
    def test_empty_mapping_module_preserves_trace_exactly(self, seed):
        rng = random.Random(seed)
        program = random_program(rng)
        bare = instantiate(*program)
        hosted = instantiate(*program)
        register_module(hosted, CoefficientModule("noop"))
        assert_lockstep(bare, hosted, 180, label=f"seed {seed}: ")
