"""Workload catalogues and the seeded input generators of the benchmark.

Everything a run feeds the program is made here from the workload seed;
the same seed always gives the same inputs. The catalogues are fixed so
that every input has a reference value recorded in ``reference/``.

- ``model_curves``: 20 auto-grid model curves (16 points, fill 0.85). A run
  is a sequence of rounds; each round runs every curve once, in an order
  drawn from the seed.
- ``sim_curves``: 4 simulated curves on explicit rate grids at the
  default 5000/40000-cycle windows, scheduled the same way.
- ``serve_mixed``: an endless request stream over a 7-scenario catalogue,
  in epochs of 600 requests, each against a fresh server and store, built
  from blocks of 200 requests whose composition (scenario, new vs repeated
  rates, single vs multi-rate) is fixed and whose order, rates and repeat
  choices are drawn from the seed.
"""

import json
import random

# ---------------------------------------------------------------- curves

MODEL_TOPOLOGIES = ["quarc:64", "spidergon:64", "hypercube:8", "mesh:16x16", "torus:16x16"]
MODEL_PATTERNS = ["random:6", "localized:0.2:0.8:6"]
MODEL_ALPHAS = [0.05, 0.1]


def model_catalogue():
    return [
        {"topology": t, "pattern": p, "alpha": a, "seed": 1, "msg": 32,
         "points": 16, "fill": 0.85}
        for t in MODEL_TOPOLOGIES for p in MODEL_PATTERNS for a in MODEL_ALPHAS
    ]


def sim_catalogue():
    def cell(topology, pattern, seed, rates):
        return {"topology": topology, "pattern": pattern, "alpha": 0.05, "seed": seed,
                "msg": 32, "rates": rates, "sim": True, "warmup": 5000, "measure": 40000}
    return [
        # the fig6 / fig7 cells (pinned grids, as in the CI baseline gate)
        cell("quarc:16", "random:3", 42, [0.002, 0.003, 0.004, 0.005]),
        cell("quarc:16", "localized:0.25:0.75:3", 43, [0.002, 0.003, 0.004, 0.005]),
        # software multicast on a ring, and a multi-port grid
        cell("spidergon:16", "random:3", 44, [0.0015, 0.003, 0.0045, 0.006]),
        cell("mesh:8x8", "random:3", 45, [0.001, 0.002, 0.003, 0.004]),
    ]


CURVE_CATALOGUES = {"model_curves": model_catalogue, "sim_curves": sim_catalogue}


def curve_schedule(seed, n_cells, rounds=256):
    """Rounds of catalogue indices: every cell once per round, seeded order.

    perfbench wraps around when a run outlasts the schedule."""
    rng = random.Random(f"curves:{seed}")
    schedule = []
    for _ in range(rounds):
        order = list(range(n_cells))
        rng.shuffle(order)
        schedule.append(order)
    return schedule


# ----------------------------------------------------------------- serve

# (spec, requests per 200-request block — composition fixed, order seeded —
# and largest lattice rate, ~0.8 x the model's saturation rate). mesh:16x16
# is the small expensive share.
SERVE_SCENARIOS = [
    ({"topology": "quarc:16", "pattern": "random:3", "alpha": 0.05, "seed": 42}, 48, 0.006),
    ({"topology": "quarc:64", "pattern": "random:6", "alpha": 0.1, "seed": 1}, 40, 0.0008),
    ({"topology": "spidergon:32", "pattern": "localized:0.2:0.8:4", "alpha": 0.05, "seed": 3},
     36, 0.002),
    ({"topology": "hypercube:6", "pattern": "random:4", "alpha": 0.1, "seed": 4}, 32, 0.015),
    ({"topology": "mesh:8x8", "pattern": "random:3", "alpha": 0.05, "seed": 5}, 20, 0.0038),
    ({"topology": "torus:8x8", "pattern": "random:3", "alpha": 0.05, "seed": 6}, 18, 0.0043),
    ({"topology": "mesh:16x16", "pattern": "random:6", "alpha": 0.05, "seed": 7}, 6, 0.0013),
]
EPOCH_BLOCKS = 3        # blocks per epoch: one server and one fresh store each
MULTI = 3               # rates in a multi-rate request
LATTICE = 64            # recorded rates per scenario
MEMORY_LIMIT_ROWS = 32  # serve --memory-limit: below an epoch's working set


def block_mix(count):
    """(new single, new multi, repeat single, repeat multi) per block.

    A new request carries exactly one rate not yet requested in its epoch
    (a solve and a store write); a new multi-rate request pairs it with
    repeats."""
    new = max(1, round(count / 10))
    repeat = count - new
    return new - new // 2, new // 2, repeat - repeat // 3, repeat // 3


def lattice_rates(index):
    """The recorded rate lattice of serve scenario `index` (exact floats)."""
    rmax = SERVE_SCENARIOS[index][2]
    return [rmax * (k + 1) / LATTICE for k in range(LATTICE)]


def serve_catalogue():
    """The serve scenarios as record cells (their lattices as rate grids)."""
    return [dict(spec, msg=32, rates=lattice_rates(i))
            for i, (spec, _, _) in enumerate(SERVE_SCENARIOS)]


def serve_epochs(seed):
    """The seeded serve_mixed stream, one list of requests per epoch.

    Each epoch runs against a fresh server and store, so its working set,
    and with it every per-request cost, is the same whatever the program's
    speed. A request is (line, scenario index, rates, expected served): the
    rates in request order and how many of them were requested before in
    the epoch (store hits)."""
    rng = random.Random(f"serve:{seed}")
    next_id = 0
    while True:
        fresh = [rng.sample(lattice_rates(s), LATTICE) for s in range(len(SERVE_SCENARIOS))]
        seen = [[] for _ in SERVE_SCENARIOS]
        epoch = []
        for _ in range(EPOCH_BLOCKS):
            slots = []
            for s, (_, count, _) in enumerate(SERVE_SCENARIOS):
                ns, nm, rs, rm = block_mix(count)
                slots += [(s, 1, False)] * ns + [(s, MULTI, False)] * nm
                slots += [(s, 1, True)] * rs + [(s, MULTI, True)] * rm
            rng.shuffle(slots)
            for s, k, repeat in slots:
                history = seen[s]
                if repeat and len(history) >= k:
                    rates, served = rng.sample(history, k), k
                elif not repeat and len(history) >= k - 1:
                    new_rate = fresh[s].pop()
                    rates, served = rng.sample(history, k - 1), k - 1
                    rates.insert(rng.randrange(k), new_rate)
                    history.append(new_rate)
                else:  # too little history yet: a single new rate
                    rates, served = [fresh[s].pop()], 0
                    history.append(rates[0])
                request = {"id": next_id, **SERVE_SCENARIOS[s][0]}
                if len(rates) == 1:
                    request["rate"] = rates[0]
                else:
                    request["rates"] = rates
                next_id += 1
                epoch.append((json.dumps(request, separators=(",", ":")), s, rates, served))
        yield epoch
