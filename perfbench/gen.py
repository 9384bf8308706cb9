"""Seeded scenario-document generator for the benchmark workloads.

``document(workload, seed)`` returns one scenario document that
``coagent.loader.parse_scenario`` accepts.  Every service carries an explicit
``initial-server``, so the program never draws a placement of its own: all
randomness lives here and comes from the seed.  ``document_text`` is the
canonical JSON encoding; the same workload and seed give the same bytes.

Run ``python3 perfbench/gen.py WORKLOAD SEED`` to print a document.
"""

from __future__ import annotations

import json
import random
import sys

#: Workload parameters (BENCHMARK.json and README.md give each one's reason).
#: Sizes are fixed per workload so that host cost does
#: not depend on the seed; the seed only moves placements, types and deltas.
WORKLOADS: dict[str, dict] = {
    "capacity-storm": {
        "servers": 200,
        "capacity": 5,
        "preferred_min": 3,
        "services_per_server": 3,
        "types": 6,
        "brokers": 0,
        "ticks": 200,
    },
    "demand-churn": {
        "servers": 40,
        "capacity": 5,
        "preferred_min": 3,
        "types_per_server": 4,
        "types": 12,
        "brokers": 6,
        "initial_demand": 100,
        "delta_every": 3,
        "significant_every": 4,
        "significance_threshold": 0.5,
        "ticks": 300,
    },
    "quiet-fleet": {
        "servers": 300,
        "capacity": 5,
        "preferred_min": 3,
        "services_per_server": (3, 4, 5),
        "types": 8,
        "brokers": 1,
        "ticks": 300,
    },
}


def _server_id(index: int) -> str:
    return f"srv-{index:04d}"


def _service_id(index: int) -> str:
    return f"svc-{index:05d}"


def _type_names(count: int) -> list[str]:
    return [f"type-{index:02d}" for index in range(count)]


def _servers(params: dict) -> list[dict]:
    return [
        {
            "id": _server_id(index),
            "capacity": params["capacity"],
            "preferred-min": params["preferred_min"],
        }
        for index in range(params["servers"])
    ]


def _capacity_storm(params: dict, rng: random.Random) -> dict:
    servers = _servers(params)
    types = _type_names(params["types"])
    # Per-server service counts come from one fixed random placement, so the
    # number of underloaded servers does not depend on the seed; the seed
    # deals the counts to servers and picks every service's type.
    fixed = random.Random("capacity-storm/placement")
    counts = [0] * params["servers"]
    for _ in range(params["servers"] * params["services_per_server"]):
        free = [index for index, count in enumerate(counts) if count < params["capacity"]]
        counts[fixed.choice(free)] += 1
    rng.shuffle(counts)
    services = []
    for server, count in zip(servers, counts):
        for _ in range(count):
            services.append(
                {
                    "id": _service_id(len(services)),
                    "type": rng.choice(types),
                    "initial-server": server["id"],
                }
            )
    return {"servers": servers, "services": services}


def _demand_churn(params: dict, rng: random.Random) -> dict:
    servers = _servers(params)
    types = _type_names(params["types"])
    services = []
    for server in servers:
        for service_type in rng.sample(types, params["types_per_server"]):
            services.append(
                {
                    "id": _service_id(len(services)),
                    "type": service_type,
                    "initial-server": server["id"],
                }
            )
    demand = {service_type: params["initial_demand"] for service_type in types}
    current = dict(demand)
    ticks = list(range(1, params["ticks"], params["delta_every"]))
    # Every ``significant_every``-th delta is significant, so the busy and the
    # quiet stretches of the run fall on the same ticks for every seed.  The
    # significant ones visit the types in a seeded order, alternating rises
    # and falls per type, so every seed has the same number of rises.
    significant = [index % params["significant_every"] == 0 for index in range(len(ticks))]
    order = rng.sample(types, len(types))
    threshold = params["significance_threshold"]
    schedule = []
    visits = 0
    for tick, is_significant in zip(ticks, significant):
        if is_significant:
            service_type = order[visits % len(order)]
            rise = (visits // len(order)) % 2 == 0
            visits += 1
            old = current[service_type]
            if rise:
                delta = -(-old * rng.randint(60, 100) // 100)  # ceil: +60..100%
            else:
                delta = -(old * rng.randint(50, 60) // 100) - 1  # over -50%
        else:
            service_type = rng.choice(types)
            old = current[service_type]
            bound = max(1, int(old * threshold * 0.6))
            delta = rng.randint(1, bound) * rng.choice((-1, 1))
        current[service_type] = old + delta
        schedule.append({"tick": tick, "type": service_type, "delta": delta})
    return {
        "servers": servers,
        "services": services,
        "demand": demand,
        "demand-schedule": schedule,
        "significance-threshold": threshold,
        "uniqueness-constraint": True,
    }


def _quiet_fleet(params: dict, rng: random.Random) -> dict:
    servers = _servers(params)
    types = _type_names(params["types"])
    # A fixed multiset of per-server counts, shuffled: the total is seed-free.
    counts = [
        params["services_per_server"][index % len(params["services_per_server"])]
        for index in range(params["servers"])
    ]
    rng.shuffle(counts)
    services = []
    for server, count in zip(servers, counts):
        for _ in range(count):
            services.append(
                {
                    "id": _service_id(len(services)),
                    "type": rng.choice(types),
                    "initial-server": server["id"],
                }
            )
    return {
        "servers": servers,
        "services": services,
        "demand": {service_type: 100 for service_type in types},
    }


_GENERATORS = {
    "capacity-storm": _capacity_storm,
    "demand-churn": _demand_churn,
    "quiet-fleet": _quiet_fleet,
}


def document(workload: str, seed: int) -> dict:
    """The scenario document for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    params = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    doc = {
        "name": workload,
        "seed": seed,
        "ticks": params["ticks"],
        "brokers": params["brokers"],
    }
    doc.update(_GENERATORS[workload](params, rng))
    return doc


def document_text(workload: str, seed: int) -> str:
    """Canonical JSON text of ``document(workload, seed)``."""
    return json.dumps(document(workload, seed), sort_keys=True, separators=(",", ":"))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: gen.py WORKLOAD SEED")
    print(document_text(sys.argv[1], int(sys.argv[2])))
