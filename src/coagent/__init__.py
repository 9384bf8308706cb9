"""Deterministic BDI agent runtime with co-efficient modules and coordination media.

The package has four layers:

* ``coagent.bdi`` -- a small-step interpreter for BDI agent configurations
  driven by a nine-step reasoning cycle.
* ``coagent.coefficiency`` -- activated agent modules that observe reasoning
  events and inject additional events under guard conditions.
* ``coagent.coordination`` -- topic-based media with delivery latency and
  per-agent coordination endpoints built from the module machinery.
* ``coagent.scenarios`` -- a discrete-tick simulator running two
  self-organizing service-management scenarios on top of the stack.
"""

from coagent.bdi.beliefs import BeliefBase
from coagent.bdi.config import AgentConfiguration, Circumstance, MailState, Step, TempInfo
from coagent.bdi.events import Event, EventCategory, EventPattern, TOP, TriggeringEvent
from coagent.bdi.interpreter import post_external_event, reasoning_step, run_cycle
from coagent.bdi.plans import Plan
from coagent.coefficiency import CoefficientModule, EventMappingEntry, register_module
from coagent.coordination import CoordinationEndpoint, CoordinationInformation, CoordinationMedium
from coagent.scenarios import ScenarioConfig, build_scenario, run_simulation

__all__ = [
    "AgentConfiguration",
    "BeliefBase",
    "Circumstance",
    "CoefficientModule",
    "CoordinationEndpoint",
    "CoordinationInformation",
    "CoordinationMedium",
    "Event",
    "EventCategory",
    "EventMappingEntry",
    "EventPattern",
    "MailState",
    "Plan",
    "ScenarioConfig",
    "Step",
    "TOP",
    "TempInfo",
    "TriggeringEvent",
    "build_scenario",
    "post_external_event",
    "reasoning_step",
    "register_module",
    "run_cycle",
    "run_simulation",
]
