"""Co-efficient modules: contributive processing without touching the host.

A monitoring module observes every update of the host's `load` belief and,
while the load stays under the limit, injects a `report` goal as a new
concurrent course of action.  The host agent's own program never references
the module; the module decides by itself when to contribute.

Run: python3 demos/02_coefficient_modules.py
"""

from coagent.bdi.beliefs import BeliefBase
from coagent.bdi.config import AgentConfiguration
from coagent.bdi.events import EventCategory, TriggeringEvent, pattern
from coagent.bdi.expressions import Expr
from coagent.bdi.interpreter import post_external_event, run_cycle
from coagent.bdi.plans import Believe, Plan, PlanLibrary
from coagent.coefficiency import (
    CoefficientModule,
    EventMappingEntry,
    EventTemplate,
    Placement,
    register_module,
)

host = AgentConfiguration(
    "worker",
    beliefs=BeliefBase({"load": 0, "limit": 3}),
    plans=PlanLibrary(
        [
            # The host's functional plan: bump the load on demand.
            Plan(
                plan_id="work",
                trigger=pattern("goal-added", "work"),
                body=(Believe("load", Expr("load + 1")),),
            ),
            # The module's element: record what the mapping injected.
            Plan(
                plan_id="report",
                trigger=pattern("goal-added", "monitor.report"),
                body=(Believe("reports", Expr("payload.seen")),),
            ),
        ]
    ),
    actions=set(),
)

monitor = CoefficientModule(
    module_id="monitor",
    mapping=[
        EventMappingEntry(
            observe=pattern("belief-updated", "load"),
            inject=EventTemplate(
                EventCategory.GOAL_ADDED, "monitor.report", {"seen": Expr("payload.new")}
            ),
            placement=Placement.NEW_INTENTION,
            guard=Expr("load < limit"),
        )
    ],
)
register_module(host, monitor)
print(f"active mapping entries: {sum(len(entries) for entries in host.mapping.values())}")

for round_number in range(1, 6):
    post_external_event(host, TriggeringEvent(EventCategory.GOAL_ADDED, "work", {}))
    while host.circumstance.events or host.circumstance.intentions:
        run_cycle(host)
    print(
        f"round {round_number}: load={host.beliefs.get('load')} "
        f"reports={host.beliefs.get('reports')!r} "
        f"queued={[e.te.subject for e in host.circumstance.events]}"
    )

print()
print("Note how reports stop once load reaches the limit: the guard turned")
print("false, so observed updates no longer inject the report goal.")
