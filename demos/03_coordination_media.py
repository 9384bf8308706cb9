"""Endpoints and media: decentralized perception with delivery latency.

A sensor agent publishes temperature readings whenever they change
significantly; two display agents react to the perceived values.  The medium
delays delivery by two ticks and never echoes a publication back to its
source.

Run: python3 demos/03_coordination_media.py
"""

from coagent.bdi.beliefs import BeliefBase
from coagent.bdi.config import AgentConfiguration
from coagent.bdi.events import EventCategory, pattern
from coagent.bdi.expressions import Expr
from coagent.bdi.interpreter import run_cycle
from coagent.bdi.plans import Believe, Plan, PlanLibrary
from coagent.coefficiency import EventMappingEntry, EventTemplate
from coagent.coordination import (
    PUBLISH_ACTION,
    CoordinationMedium,
    EndpointDeclaration,
    PublicationRule,
    attach_endpoint,
    build_publication,
    endpoint_deliver,
    endpoint_module,
    publish,
    tick_medium,
)

medium = CoordinationMedium(topic="temperature", latency=2)
clock = {"now": 0}


class DemoEnvironment:
    """Routes the endpoint publish action into the medium."""

    def __init__(self):
        self.endpoints = {}

    def perform(self, cfg, action, args):
        if action != PUBLISH_ACTION:
            return
        info = build_publication(self.endpoints, cfg, args, clock["now"])
        publish(medium, info, clock["now"])
        print(f"  [t={clock['now']}] {cfg.agent_id} published {info.payload}")


env = DemoEnvironment()

sensor = AgentConfiguration(
    "sensor",
    beliefs=BeliefBase({"reading": 20}),
    plans=PlanLibrary(),
    environment=env,
)
sensor_decl = EndpointDeclaration(
    process_id="weather",
    role="broker",
    publications=(
        PublicationRule(
            observe=pattern("belief-updated", "reading"),
            topic="temperature",
            guard=Expr("abs(payload.new - payload.old) >= 2"),
            extract=("reading",),
            extract_event={"old": Expr("payload.old"), "new": Expr("payload.new")},
        ),
    ),
)
sensor_endpoint = attach_endpoint(sensor_decl, endpoint_module(sensor_decl), sensor)
env.endpoints[sensor_endpoint.endpoint_id] = sensor_endpoint

# One declaration and one compiled module serve every display.
display_decl = EndpointDeclaration(
    process_id="weather",
    role="service",
    reactions=(
        EventMappingEntry(
            observe=pattern("message-received", "temperature"),
            inject=EventTemplate(
                EventCategory.GOAL_ADDED, "show", {"value": Expr("payload.reading")}
            ),
        ),
    ),
)
display_module = endpoint_module(display_decl)
displays = {}
for name in ("display-a", "display-b"):
    display = AgentConfiguration(
        name,
        beliefs=BeliefBase({"shown": 0}),
        plans=PlanLibrary(
            [
                Plan(
                    plan_id="show",
                    trigger=pattern("goal-added", "show"),
                    body=(Believe("shown", Expr("payload.value")),),
                )
            ]
        ),
        environment=env,
    )
    endpoint = attach_endpoint(display_decl, display_module, display)
    medium.subscribe(endpoint.endpoint_id, name)
    displays[endpoint.endpoint_id] = (endpoint, display)

agents = [sensor] + [display for _, display in displays.values()]
readings = {1: 25, 2: 26, 4: 31}  # tick -> new sensor value; 25->26 is too small

for now in range(10):
    clock["now"] = now
    if now in readings:
        sensor.write_belief("reading", readings[now])
        print(f"[t={now}] sensor reading set to {readings[now]}")
    for agent in agents:
        run_cycle(agent)
    _, deliveries = tick_medium(medium, now)
    for endpoint_id, info in deliveries:
        endpoint, display = displays[endpoint_id]
        endpoint_deliver(endpoint, info, display)
        print(f"  [t={now}] delivered {info.payload} to {display.agent_id}")
    shown = {display.agent_id: display.beliefs.get("shown") for _, display in displays.values()}
    print(f"[t={now}] shown: {shown}")

print()
print("The 25 -> 26 change stayed below the significance guard, so only two")
print("publications happened, each arriving exactly two ticks after publish.")
