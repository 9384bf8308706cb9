"""Media latency/fan-out semantics and endpoint compilation/delivery."""

import inspect
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coagent.bdi.beliefs import BeliefBase
from coagent.bdi.config import AgentConfiguration
from coagent.bdi.events import EventCategory, TOP, TriggeringEvent, pattern
from coagent.bdi.expressions import TRUE, Expr
from coagent.bdi.interpreter import post_external_event, run_cycle
from coagent.bdi.plans import Plan, PlanLibrary
from coagent.coefficiency import (
    CoefficientModule,
    EventMappingEntry,
    EventTemplate,
    register_module,
)
from coagent.coordination import (
    PUBLISH_ACTION,
    CoordinationInformation,
    CoordinationMedium,
    EndpointDeclaration,
    EndpointDeclarationError,
    PublicationRule,
    RoutingError,
    attach_endpoint,
    build_publication,
    endpoint_deliver,
    publish,
    tick_medium,
)

from tests.conftest import instantiate, random_program
from tests.helpers import assert_lockstep


def info(topic="capacity", payload=None, source="pub", tick=0, process="utilization"):
    return CoordinationInformation(
        process_id=process,
        topic=topic,
        payload=dict(payload or {}),
        source=source,
        publish_tick=tick,
    )


class TestMediumPublish:
    def test_latency_zero_due_immediately(self):
        medium = CoordinationMedium("capacity", latency=0)
        publish(medium, info(tick=4), now=4)
        assert medium.in_flight[0].due_tick == 4

    def test_latency_two_from_now_five(self):
        medium = CoordinationMedium("capacity", latency=2)
        publish(medium, info(tick=5), now=5)
        assert medium.in_flight[0].due_tick == 7

    def test_topic_mismatch_is_routing_error(self):
        medium = CoordinationMedium("capacity", latency=0)
        with pytest.raises(RoutingError):
            publish(medium, info(topic="demand-change"), now=0)

    def test_same_tick_same_source_fifo(self):
        # Oracle: two publications from one source in one tick keep order.
        medium = CoordinationMedium("capacity", latency=1)
        medium.subscribe("e1", "other")
        publish(medium, info(payload={"n": 1}), now=0)
        publish(medium, info(payload={"n": 2}), now=0)
        _, deliveries = tick_medium(medium, now=1)
        assert [item.payload["n"] for _, item in deliveries] == [1, 2]


class TestTickMedium:
    def test_no_due_items_no_deliveries(self):
        medium = CoordinationMedium("capacity", latency=3)
        medium.subscribe("e1", "a1")
        publish(medium, info(), now=0)
        _, deliveries = tick_medium(medium, now=1)
        assert list(deliveries) == []
        assert len(medium.in_flight) == 1

    def test_no_self_delivery(self):
        medium = CoordinationMedium("capacity", latency=0)
        medium.subscribe("pub/e", "pub")
        medium.subscribe("a/e", "a")
        medium.subscribe("b/e", "b")
        publish(medium, info(source="pub"), now=0)
        _, deliveries = tick_medium(medium, now=0)
        assert sorted(endpoint for endpoint, _ in deliveries) == ["a/e", "b/e"]

    def test_mixed_due_ticks_partitioned(self):
        # Oracle: partition by due tick; only due items delivered.
        medium = CoordinationMedium("capacity", latency=0)
        medium.subscribe("e", "other")
        publish(medium, info(payload={"n": 1}), now=0)
        medium.latency = 5
        publish(medium, info(payload={"n": 2}), now=0)
        _, deliveries = tick_medium(medium, now=0)
        assert [item.payload["n"] for _, item in deliveries] == [1]
        assert [item.info.payload["n"] for item in medium.in_flight] == [2]

    def test_delivery_order_due_seq_subscriber(self):
        medium = CoordinationMedium("capacity", latency=0)
        medium.subscribe("z/e", "z")
        medium.subscribe("a/e", "a")
        publish(medium, info(payload={"n": 1}, source="p"), now=0)
        publish(medium, info(payload={"n": 2}, source="p"), now=0)
        _, deliveries = tick_medium(medium, now=0)
        assert [(e, i.payload["n"]) for e, i in deliveries] == [
            ("a/e", 1),
            ("z/e", 1),
            ("a/e", 2),
            ("z/e", 2),
        ]

    def test_delivery_completeness_and_latency_bounds(self):
        # Every publication reaches every non-source subscriber exactly once,
        # never before publish+latency, never after the first due tick.
        rng = random.Random(7)
        medium = CoordinationMedium("capacity", latency=2)
        hosts = [f"h{i}" for i in range(4)]
        for host in hosts:
            medium.subscribe(f"{host}/e", host)
        sent = []
        received: list[tuple[int, str, int]] = []
        for now in range(12):
            if rng.random() < 0.6:
                n = len(sent)
                publish(medium, info(payload={"n": n}, source=rng.choice(hosts), tick=now), now=now)
                sent.append((n, now))
            _, deliveries = tick_medium(medium, now=now)
            for endpoint_id, item in deliveries:
                received.append((item.payload["n"], endpoint_id, now))
        _, final = tick_medium(medium, now=100)
        for endpoint_id, item in final:
            received.append((item.payload["n"], endpoint_id, 100))
        for n, published_at in sent:
            receivers = [(e, at) for (m, e, at) in received if m == n]
            assert len(receivers) == 3  # all but the source
            assert len({e for e, _ in receivers}) == 3
            for _, at in receivers:
                assert at >= published_at + 2


class TestReleaseOrder:
    @staticmethod
    def published(order):
        # Two due ticks released together by one call: ranks 1, 0, 1 at
        # tick 0 and 0, 1 at tick 1; "b" and "e" come from the subscriber "x".
        medium = CoordinationMedium("capacity", latency=2, order=order)
        medium.subscribe("y/e", "y")
        medium.subscribe("x/e", "x")
        for name, rank, source, now in (
            ("a", 1, "p", 0),
            ("b", 0, "x", 0),
            ("c", 1, "p", 0),
            ("d", 0, "p", 1),
            ("e", 1, "x", 1),
        ):
            publish(medium, info(payload={"name": name, "rank": rank}, source=source, tick=now), now=now)
        _, deliveries = tick_medium(medium, now=3)
        assert medium.in_flight == []
        return [(endpoint_id, item.payload["name"]) for endpoint_id, item in deliveries]

    def test_order_key_sorts_release_and_keeps_publication_order_on_ties(self):
        deliveries = self.published(lambda item: item.payload["rank"])
        assert deliveries == [
            ("y/e", "b"),
            ("x/e", "d"),
            ("y/e", "d"),
            ("x/e", "a"),
            ("y/e", "a"),
            ("x/e", "c"),
            ("y/e", "c"),
            ("y/e", "e"),
        ]

    def test_no_order_key_keeps_publication_order(self):
        deliveries = self.published(None)
        assert deliveries == [
            ("x/e", "a"),
            ("y/e", "a"),
            ("y/e", "b"),
            ("x/e", "c"),
            ("y/e", "c"),
            ("x/e", "d"),
            ("y/e", "d"),
            ("y/e", "e"),
        ]

    def test_order_key_applies_within_one_release_only(self):
        # Publications due on different calls never overtake each other.
        medium = CoordinationMedium("capacity", latency=0, order=lambda item: item.payload["rank"])
        medium.subscribe("y/e", "y")
        released = []
        for now, rank in ((0, 5), (1, 0)):
            publish(medium, info(payload={"rank": rank}, tick=now), now=now)
            _, deliveries = tick_medium(medium, now=now)
            released += [item.payload["rank"] for _, item in deliveries]
        assert released == [5, 0]


def released_pairs(medium, now):
    """The oracle: the release as a list of every ``(endpoint id,
    publication)`` pair, made whole, as ``tick_medium`` built it before it
    returned a view."""
    due = [item for item in medium.in_flight if item.due_tick <= now]
    medium.in_flight = [item for item in medium.in_flight if item.due_tick > now]
    due.sort(key=lambda item: item.due_tick)
    released = [item.info for item in due]
    if medium.order is not None:
        released.sort(key=medium.order)
    subscribers = sorted(medium.subscribers.items())
    return [
        (endpoint_id, item)
        for item in released
        for endpoint_id, host in subscribers
        if host != item.source
    ]


_HOSTS = ("h0", "h1", "h2", "h3")


@given(
    subscriptions=st.lists(
        st.tuples(st.sampled_from(_HOSTS), st.sampled_from(("p", "q", "r"))), unique=True, max_size=9
    ),
    publications=st.lists(
        st.tuples(
            st.sampled_from(_HOSTS + ("outside",)), st.integers(0, 2), st.integers(0, 4)
        ),
        max_size=10,
    ),
    latency=st.integers(0, 2),
    ordered=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_a_release_reads_as_the_pair_list(subscriptions, publications, latency, ordered):
    # Several endpoints per host, publications from subscribed hosts and
    # from outside, due on different ticks, released with and without an
    # order key: the view reads as the oracle's list, twice, and its
    # length counts those pairs.
    order = (lambda item: item.payload["rank"]) if ordered else None
    medium = CoordinationMedium("capacity", latency=latency, order=order)
    oracle = CoordinationMedium("capacity", latency=latency, order=order)
    for host_id, process in subscriptions:
        for each in (medium, oracle):
            each.subscribe(f"{host_id}/{process}", host_id)
    for now in range(8):
        for n, (source, rank, tick) in enumerate(publications):
            if tick == now:
                item = info(payload={"n": n, "rank": rank}, source=source, tick=now)
                publish(medium, item, now=now)
                publish(oracle, item, now=now)
        _, release = tick_medium(medium, now)
        expected = released_pairs(oracle, now)
        pairs = list(release)
        assert [(e, id(item)) for e, item in pairs] == [(e, id(item)) for e, item in expected]
        assert list(release) == pairs
        assert len(release) == len(expected)
        assert medium.in_flight == oracle.in_flight


def test_a_release_makes_no_delivery_pair_until_it_is_read():
    # A list of the pairs holds a tuple per (publication, subscriber) pair:
    # 50 publications to 1,000 subscribers make 49,950 tuples, about 3.3 MB
    # with the list.  The view holds the released publications and the
    # subscribers, sorted once, so it keeps under 100 bytes per subscriber,
    # whatever the number of publications.
    medium = CoordinationMedium("capacity", latency=0)
    for index in range(1000):
        medium.subscribe(f"h{index:04}/e", f"h{index:04}")
    for n in range(50):
        publish(medium, info(payload={"n": n}, source="h0000"), now=0)
    tracemalloc.start()
    try:
        _, release = tick_medium(medium, now=0)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 100 * 1000
    assert len(release) == 50 * 999
    assert sum(1 for _ in release) == 50 * 999


def host(agent_id="host", beliefs=None, plans=()):
    return AgentConfiguration(
        agent_id,
        beliefs=BeliefBase(dict(beliefs or {})),
        plans=PlanLibrary(list(plans)),
        actions=set(),
    )


def capacity_server_decl(guard="deployed > 0 and deployed < preferred_min"):
    return EndpointDeclaration(
        process_id="utilization",
        role="server",
        publications=(
            PublicationRule(
                observe=pattern("belief-updated", "deployed"),
                topic="capacity",
                guard=Expr(guard),
                extract=("server", "deployed", "capacity"),
            ),
        ),
    )


class TestCompileEndpoint:
    def test_one_publication_rule_one_mapping_entry_one_plan(self):
        cfg = host(beliefs={"server": "s1", "deployed": 1, "capacity": 5, "preferred_min": 3})
        decl = capacity_server_decl()
        endpoint = attach_endpoint(decl, cfg)
        assert len(cfg.mapping["ep.utilization"]) == 1
        assert len(cfg.plans) == 1
        assert PUBLISH_ACTION in cfg.circumstance.actions
        assert endpoint.decl.topics == frozenset()

    def test_attach_endpoint_takes_no_module(self):
        # The module is the declaration's own, compiled when it was built.
        parameters = inspect.signature(attach_endpoint).parameters
        assert list(parameters) == ["decl", "host_cfg"]

    def test_publishing_gives_the_host_its_own_action_set(self):
        actions = frozenset({"ping"})
        first, second = (
            AgentConfiguration(name, plans=PlanLibrary(), actions=actions) for name in ("a", "b")
        )
        decl = capacity_server_decl()
        attach_endpoint(decl, first)
        assert first.circumstance.actions == {"ping", PUBLISH_ACTION}
        assert second.circumstance.actions is actions and actions == {"ping"}
        # A declaration without publications adds no action.
        listener = EndpointDeclaration(process_id="listen", role="service")
        attach_endpoint(listener, second)
        assert second.circumstance.actions is actions

    def test_server_declaration_observes_deployed_updates_guarded(self):
        # The utilization publication: observe deployed updates, publish on
        # the capacity topic only while under the preferred level.
        cfg = host(beliefs={"server": "s1", "deployed": 1, "capacity": 5, "preferred_min": 3})
        decl = capacity_server_decl()
        attach_endpoint(decl, cfg)
        ((entry,),) = cfg.mapping.values()
        te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "deployed", {"old": 1, "new": 1})
        assert entry.observe.matches(te)
        from coagent.coefficiency import eval_guard

        assert eval_guard(entry.guard, te, cfg) is True
        cfg.beliefs.set("deployed", 4)
        assert eval_guard(entry.guard, te, cfg) is False

    def test_empty_declaration_has_no_effect_on_traces(self):
        # Minimal-invasiveness: endpoints compiled from empty rule sets leave
        # the host trace byte-identical.
        rng = random.Random(3)
        program = random_program(rng)
        bare = instantiate(*program)
        hosted = instantiate(*program)
        decl = EndpointDeclaration(process_id="noop", role="service")
        attach_endpoint(decl, hosted)
        assert_lockstep(bare, hosted, 150)

    def test_a_publication_rule_without_a_guard_compiles_a_true_context(self):
        rule = PublicationRule(observe=pattern("belief-updated", "deployed"), topic="capacity")
        assert rule.guard is TRUE
        decl = EndpointDeclaration(process_id="p", role="server", publications=(rule,))
        ((entry,), (plan,)) = decl.module.mapping, decl.module.plans
        assert entry.guard is TRUE and plan.context is TRUE

    def test_a_process_id_holding_a_slash_is_refused(self):
        # Else server "a" with process "x/y" and server "a/x" with process
        # "y" would both hold endpoint "a/x/y".
        with pytest.raises(EndpointDeclarationError) as refused:
            EndpointDeclaration("x/y", "server")
        assert str(refused.value) == "process-id 'x/y' must not contain '/'"

    def test_a_declaration_names_its_role_and_a_medium_its_latency(self):
        with pytest.raises(TypeError):
            EndpointDeclaration("p")
        with pytest.raises(TypeError):
            CoordinationMedium("t")

    def test_publication_guard_event_refs_must_be_extracted(self):
        with pytest.raises(EndpointDeclarationError):
            EndpointDeclaration(
                process_id="p",
                role="broker",
                publications=(
                    PublicationRule(
                        observe=pattern("belief-updated"),
                        topic="demand-change",
                        guard=Expr("payload.new > payload.old"),
                        extract_event={"new": Expr("payload.new")},  # old missing
                    ),
                ),
            )

    def test_process_isolation(self):
        # Distinct process ids compile to disjoint modules and plans.
        cfg = host(beliefs={"server": "s1", "deployed": 1, "capacity": 5, "preferred_min": 3})
        first_decl = capacity_server_decl()
        first = attach_endpoint(first_decl, cfg)
        second_decl = EndpointDeclaration(
            process_id="audit",
            role="server",
            publications=(
                PublicationRule(
                    observe=pattern("belief-updated", "capacity"),
                    topic="audit-topic",
                ),
            ),
        )
        second = attach_endpoint(second_decl, cfg)
        assert first.decl.module.module_id != second.decl.module.module_id
        plan_ids = list(cfg.plans.by_id)
        assert len(plan_ids) == 2 and len(set(plan_ids)) == 2
        first_entries = cfg.mapping[first.decl.module.module_id]
        second_entries = cfg.mapping[second.decl.module.module_id]
        assert len(first_entries) == 1 and len(second_entries) == 1
        assert first_entries[0] is not second_entries[0]


def movable_decl():
    return EndpointDeclaration(
        process_id="utilization",
        role="service",
        reactions=(
            EventMappingEntry(
                observe=pattern("message-received", "capacity"),
                guard=Expr("payload.server != current_server"),
                inject=EventTemplate(
                    EventCategory.GOAL_ADDED,
                    "move-to",
                    {"server": Expr("payload.server")},
                ),
            ),
        ),
    )


class TestEndpointDeliver:
    def test_matching_info_injects_goal(self):
        cfg = host(beliefs={"current_server": "s1"})
        decl = movable_decl()
        endpoint = attach_endpoint(decl, cfg)
        endpoint_deliver(endpoint, info(payload={"server": "s2", "deployed": 1}), cfg)
        (event,) = cfg.circumstance.events
        assert event.te == TriggeringEvent(EventCategory.GOAL_ADDED, "move-to", {"server": "s2"})
        assert event.intention is TOP

    def test_false_guard_leaves_host_unchanged(self):
        cfg = host(beliefs={"current_server": "s2"})
        decl = movable_decl()
        endpoint = attach_endpoint(decl, cfg)
        before = cfg.snapshot_json()
        endpoint_deliver(endpoint, info(payload={"server": "s2"}), cfg)
        assert cfg.snapshot_json() == before

    def test_first_matching_rule_fires_single_injection(self):
        decl = EndpointDeclaration(
            process_id="p",
            role="service",
            reactions=(
                EventMappingEntry(
                    observe=pattern("message-received", "capacity"),
                    inject=EventTemplate(EventCategory.GOAL_ADDED, "first", {}),
                ),
                EventMappingEntry(
                    observe=pattern("message-received", "capacity"),
                    inject=EventTemplate(EventCategory.GOAL_ADDED, "second", {}),
                ),
            ),
        )
        cfg = host()
        endpoint = attach_endpoint(decl, cfg)
        endpoint_deliver(endpoint, info(), cfg)
        subjects = [event.te.subject for event in cfg.circumstance.events]
        assert subjects == ["first"]

    @pytest.mark.parametrize("path", ["selection", "delivery"])
    def test_guard_false_falls_through_to_next_rule(self, path):
        # One rule on both paths: within a module, the first entry whose
        # pattern matches and whose guard holds injects.
        entries = (
            EventMappingEntry(
                observe=pattern("message-received", "capacity"),
                guard=Expr("false"),
                inject=EventTemplate(EventCategory.GOAL_ADDED, "first", {}),
            ),
            EventMappingEntry(
                observe=pattern("message-received", "capacity"),
                inject=EventTemplate(EventCategory.GOAL_ADDED, "second", {}),
            ),
        )
        cfg = host()
        if path == "selection":
            register_module(cfg, CoefficientModule("m", mapping=list(entries)))
            post_external_event(cfg, TriggeringEvent(EventCategory.MESSAGE_RECEIVED, "capacity", {}))
            run_cycle(cfg)
        else:
            decl = EndpointDeclaration(process_id="p", role="service", reactions=entries)
            endpoint = attach_endpoint(decl, cfg)
            endpoint_deliver(endpoint, info(), cfg)
        subjects = [event.te.subject for event in cfg.circumstance.events]
        assert subjects == ["second"]

    def test_unsubscribed_topic_is_routing_error(self):
        cfg = host()
        decl = movable_decl()
        endpoint = attach_endpoint(decl, cfg)
        with pytest.raises(RoutingError):
            endpoint_deliver(endpoint, info(topic="demand-change"), cfg)

    def test_payload_pattern_filters(self):
        decl = EndpointDeclaration(
            process_id="p",
            role="service",
            reactions=(
                EventMappingEntry(
                    observe=pattern("message-received", "capacity", {"kind": "beta"}),
                    inject=EventTemplate(EventCategory.GOAL_ADDED, "hit", {}),
                ),
            ),
        )
        cfg = host()
        endpoint = attach_endpoint(decl, cfg)
        endpoint_deliver(endpoint, info(payload={"kind": "alpha"}), cfg)
        assert cfg.circumstance.events == []
        endpoint_deliver(endpoint, info(payload={"kind": "beta"}), cfg)
        assert [e.te.subject for e in cfg.circumstance.events] == ["hit"]

    @pytest.mark.parametrize(
        "observe",
        [
            pattern("goal-added", "capacity"),
            pattern("message-received"),
            pattern("message-received", "cap*"),
            pattern(["message-received", "goal-added"], "capacity"),
        ],
    )
    def test_reaction_must_observe_one_named_topic(self, observe):
        reaction = EventMappingEntry(
            observe=observe, inject=EventTemplate(EventCategory.GOAL_ADDED, "hit", {})
        )
        with pytest.raises(EndpointDeclarationError, match="reaction-rules\\[0\\]"):
            EndpointDeclaration(process_id="p", role="service", reactions=(reaction,))


class TestSharedInjection:
    """A template reads only the observed event, so the hosts that observe
    one publication queue one shared event, each behind its own guard."""

    def test_one_publication_queues_one_event_on_every_subscriber(self):
        decl = movable_decl()
        medium = CoordinationMedium("capacity", latency=0)
        hosts, endpoints = {}, {}
        # svc-2 already sits on s2: its guard is false, and it queues nothing.
        currents = {"svc-1": "s1", "svc-2": "s2", "svc-3": "s1", "svc-4": "s3"}
        for name, current in currents.items():
            hosts[name] = host(name, beliefs={"current_server": current})
            endpoint = attach_endpoint(decl, hosts[name])
            medium.subscribe(endpoint.endpoint_id, name)
            endpoints[endpoint.endpoint_id] = endpoint
        publish(medium, info(payload={"server": "s2", "deployed": 1}), now=0)
        _, deliveries = tick_medium(medium, now=0)
        for endpoint_id, item in deliveries:
            endpoint = endpoints[endpoint_id]
            endpoint_deliver(endpoint, item, hosts[endpoint.host])
        assert [len(cfg.circumstance.events) for cfg in hosts.values()] == [1, 0, 1, 1]
        queued = [event for cfg in hosts.values() for event in cfg.circumstance.events]
        shared = queued[0].te
        assert shared == TriggeringEvent(EventCategory.GOAL_ADDED, "move-to", {"server": "s2"})
        assert all(event.te is shared for event in queued)

    def test_instantiation_follows_alternating_observed_events(self):
        template = EventTemplate(
            EventCategory.GOAL_ADDED,
            "move-to",
            {
                "server": Expr("payload.server"),
                "topic": Expr("subject"),
                "absent": Expr("payload.absent"),  # undefined: the key is dropped
            },
        )
        a = TriggeringEvent(EventCategory.MESSAGE_RECEIVED, "capacity", {"server": "s1"})
        b = TriggeringEvent(EventCategory.MESSAGE_RECEIVED, "offers", {"server": "s2"})
        from_a, from_b, from_a_again = (template.instantiate(te) for te in (a, b, a))
        assert from_a.payload == {"server": "s1", "topic": "capacity"}
        assert from_b.payload == {"server": "s2", "topic": "offers"}
        assert from_a_again == from_a
        assert template.instantiate(a) is from_a_again
        equal_copy = TriggeringEvent(a.category, a.subject, dict(a.payload))
        assert template.instantiate(equal_copy) == from_a


class TestPublicationEndToEnd:
    def test_publish_plan_rechecks_guard_before_publishing(self):
        # A stale publish goal must not publish once the guard turned false.
        class MediaEnv:
            def __init__(self):
                self.published = []

            def perform(self, cfg, action, args):
                self.published.append(args)

        env = MediaEnv()
        cfg = AgentConfiguration(
            "srv",
            beliefs=BeliefBase({"server": "srv", "deployed": 1, "capacity": 5, "preferred_min": 3}),
            plans=PlanLibrary(),
            actions=set(),
            environment=env,
        )
        decl = capacity_server_decl()
        attach_endpoint(decl, cfg)
        post_external_event(
            cfg,
            TriggeringEvent(EventCategory.BELIEF_UPDATED, "deployed", {"old": 1, "new": 1}),
        )
        run_cycle(cfg)  # selection injects the publish goal
        cfg.beliefs.set("deployed", 4)  # guard now false
        run_cycle(cfg)  # the publish plan is relevant but not applicable
        assert env.published == []
        dropped = [o for o in cfg.observations if o["kind"] == "event-discarded"]
        assert any(o["reason"] == "no-applicable-plan" for o in dropped)


class DecodingEnv:
    """Decodes every performed publish action into its publication at tick 7."""

    def __init__(self):
        self.endpoints = {}
        self.publications = []

    def perform(self, cfg, action, args):
        assert action == PUBLISH_ACTION
        self.publications.append(build_publication(self.endpoints, cfg, args, 7))


class TestBuildPublication:
    """The publish action's args, as the host performs them, decode into one publication."""

    @staticmethod
    def performed_publications():
        # A broker hosting two processes; "load" and then "region" change.
        env = DecodingEnv()
        cfg = AgentConfiguration(
            "broker-01",
            beliefs=BeliefBase({"region": "eu", "load": 3}),
            plans=PlanLibrary(),
            actions=set(),
            environment=env,
        )
        balancing = EndpointDeclaration(
            process_id="balancing",
            role="broker",
            publications=(
                PublicationRule(
                    observe=pattern("belief-updated", "load"),
                    topic="demand-change",
                    extract=("region",),
                    extract_event={
                        "subject": Expr("subject"),
                        "old": Expr("payload.old"),
                        "new": Expr("payload.new"),
                    },
                ),
            ),
        )
        audit = EndpointDeclaration(
            process_id="audit",
            role="broker",
            publications=(
                PublicationRule(observe=pattern("belief-updated", "capacity"), topic="audit"),
                PublicationRule(
                    observe=pattern("belief-updated", "region"),
                    topic="region-audit",
                    extract=("load",),
                ),
            ),
        )
        for decl in (balancing, audit):
            endpoint = attach_endpoint(decl, cfg)
            env.endpoints[endpoint.endpoint_id] = endpoint
        for key, value in (("load", 5), ("region", "us")):
            cfg.write_belief(key, value)
            for _ in range(5):
                run_cycle(cfg)
        return env.publications

    def test_payload_holds_extracted_beliefs_then_event_fields(self):
        by_topic = {info.topic: info for info in self.performed_publications()}
        payload = by_topic["demand-change"].payload
        assert list(payload.items()) == [
            ("region", "eu"),
            ("subject", "load"),
            ("old", 3),
            ("new", 5),
        ]
        assert not any(key.startswith("__") for info in by_topic.values() for key in info.payload)

    def test_source_is_the_host_and_tick_is_now(self):
        publications = self.performed_publications()
        assert [(info.source, info.publish_tick) for info in publications] == [("broker-01", 7)] * 2

    def test_args_pick_the_endpoint_and_rule_of_their_process(self):
        publications = sorted(self.performed_publications(), key=lambda info: info.topic)
        assert [(info.process_id, info.topic, dict(info.payload)) for info in publications] == [
            ("balancing", "demand-change", {"region": "eu", "subject": "load", "old": 3, "new": 5}),
            ("audit", "region-audit", {"load": 5}),
        ]

    def test_two_endpoints_observing_one_event_both_publish(self):
        # Each module's entries are applied on their own: the first
        # endpoint's rule does not shadow the second's on the same event.
        env = DecodingEnv()
        cfg = AgentConfiguration("broker-01", beliefs=BeliefBase({"load": 3}), environment=env)
        for process_id in ("balancing", "audit"):
            decl = EndpointDeclaration(
                process_id=process_id,
                role="broker",
                publications=(
                    PublicationRule(observe=pattern("belief-updated", "load"), topic=process_id),
                ),
            )
            endpoint = attach_endpoint(decl, cfg)
            env.endpoints[endpoint.endpoint_id] = endpoint
        cfg.write_belief("load", 5)
        for _ in range(10):
            run_cycle(cfg)
        assert [info.process_id for info in env.publications] == ["balancing", "audit"]
