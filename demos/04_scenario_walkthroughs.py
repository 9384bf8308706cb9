"""Run both bundled service-management scenarios and chart their dynamics.

Scenario A (server utilization): two servers start at 5 and 1 deployments;
the underutilized one advertises capacity until services fill it to the
preferred level.

Scenario B (demand balancing): ten servers, five service types, a demand
spike on type-1 at tick 10; services switch toward the demanded type, at
most one per server.

Run: python3 demos/04_scenario_walkthroughs.py
"""

from pathlib import Path

from coagent.loader import load_scenario
from coagent.scenarios import build_scenario, quiescence_tick, run_simulation, summary

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def bar(value, scale=1, char="#"):
    return char * int(value * scale)


print("=" * 72)
print("Scenario A: server utilization management")
print("=" * 72)
config = load_scenario(SCENARIOS / "scenario-a.json")
state = build_scenario(config)
trace = run_simulation(state, 12, seed=config.seed)
print(f"{'tick':>4}  {'server-01':<12} {'server-02':<12} underloaded moves pubs")
for record in trace:
    d1 = len(record.deployments["server-01"])
    d2 = len(record.deployments["server-02"])
    pubs = record.publications.get("capacity", 0)
    print(
        f"{record.tick:>4}  {bar(d1):<12} {bar(d2):<12} "
        f"{record.underloaded:^11} {record.moves:^5} {pubs:^4}"
    )
print(f"quiescence tick: {quiescence_tick(state.trace)}")
print()

print("=" * 72)
print("Scenario B: demand balancing with a type-1 spike at tick 10")
print("=" * 72)
config = load_scenario(SCENARIOS / "scenario-b.json")
state = build_scenario(config)
trace = run_simulation(state, 25, seed=config.seed)
print(f"{'tick':>4}  type-1 deployments        switches demand(type-1)")
for record in trace:
    count = sum(deployed.count("type-1") for deployed in record.deployments.values())
    print(
        f"{record.tick:>4}  {bar(count):<25} {record.switches:^8} "
        f"{record.demand['type-1']:>6}"
    )
result = summary(state)
print()
print(f"total switches: {result['total-switches']}, total moves: {result['total-moves']}")
print(f"final deployments per server:")
for server_id, types in result["final-deployments"].items():
    print(f"  {server_id}: {types}")
