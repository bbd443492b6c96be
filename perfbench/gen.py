"""Seeded input generator for the benchmark workloads.

Every input the program sees comes from here: scenario batch text for the
`whatif` and `validate` workloads, and one request line per served request
for `served`. The same seed always gives byte-identical files; the mix
(systems, dials, load fractions, hot-set size) is fixed by the constants
below and only the draws change with the seed.

    python3 perfbench/gen.py --workload whatif --seed 3 --out DIR

writes DIR/<workload>.cfg (batch workloads) or DIR/served.jsonl.

No request log of planner or server use exists, so every proportion below
is an assumption. Each comment says what the number is meant to achieve
and, where there is one, the measurement it rests on; perfbench/README.md
has the same basis as a table. If a request log ever becomes available,
derive the mixes from it instead.
"""

import argparse
import json
import os
import random

# Paper-scale and topology-heterogeneous systems: (preset, clusters,
# model saturation rate in msgs/us/node under uniform traffic).
SYSTEMS = {
    "1120": ("preset:1120", 32, 5.17e-4),
    "544": ("preset:544", 16, 1.04e-3),
    "dragonfly": ("preset:dragonfly", 4, 6.39e-3),
    "mixed": ("preset:mixed", 4, 9.48e-3),
}
TINY = ("preset:tiny", 4, 9.48e-3)

# whatif: the capacity planner's model-only batch. 3000 scenarios make one
# batch take a few hundred milliseconds, so a run repeats it many times.
WHATIF_SCENARIOS = 3000
# Assumed: the paper's two Table-1 systems are what its study plans, so
# they take 70 %; the two topology-heterogeneous presets share the rest so
# the dragonfly and mixed-family code paths are measured too.
WHATIF_SYSTEM_WEIGHTS = [("1120", 35), ("544", 35), ("dragonfly", 15),
                         ("mixed", 15)]
# Assumed: "where does it saturate" is the planner's first question, so
# saturation leads; model-only sweeps are a minority because each one costs
# SWEEP_POINTS model evaluations.
WHATIF_ANALYSES = [("model,saturation", 35), ("model,bottleneck", 30),
                   ("model,bottleneck,saturation", 25), ("model,sweep", 10)]
# Light load to near saturation, as a fraction of the saturation rate.
WHATIF_LOAD = (0.05, 0.9)
SWEEP_POINTS = 8

# Dial grids are small on purpose: a model is keyed by (system, workload),
# so repeated grid values are Engine hits and new ones rebind from a sibling.
LOCALITIES = [0.5, 0.6, 0.7, 0.8, 0.9]
HOTSPOT_FRACTIONS = [0.01, 0.02, 0.03, 0.05]
HOTSPOT_NODES = [0, 7, 13]  # valid on every system (>= 32 nodes)
RATE_SCALES = [1.5, 2.0, 3.0]
MMPP = ["mmpp:2,4", "mmpp:4,8", "mmpp:8,16"]
# Assumed: 70 % of scenarios move one dial off the system's base workload,
# so most of the Engine's model misses rebind from a sibling rather than
# compile cold (the traced run reports the share as model.rebind_ratio).
DIALS = [("none", 30), ("locality", 20), ("hotspot", 15), ("rate", 20),
         ("mmpp", 15)]

# validate: model-vs-simulation at fixed fractions of model saturation,
# light to moderate load where the model is meant to hold (mean model error
# about 6 % over these scenarios). Five thousand measured messages per
# scenario keep each simulation under a second on a paper-scale system.
VALIDATE_FRACTIONS = [0.1, 0.2, 0.3]
# One hotspot and one bursty (mmpp) case, and 0.4 of saturation on the
# three smaller systems. The count is odd (17), so the median answer time
# is one scenario's time, not the mean of two neighbours.
VALIDATE_EXTRA = [  # (system, fraction, overlay lines)
    ("1120", 0.15, ["workload.pattern = hotspot",
                    "workload.hotspot_fraction = 0.02"]),
    ("544", 0.15, ["workload.arrival = mmpp:2,8"]),
    ("544", 0.4, []),
    ("dragonfly", 0.4, []),
    ("mixed", 0.4, []),
]
VALIDATE_MESSAGES = 5000

# served: an open-loop request stream (rates live in the driver). Enough
# lines for one measured instance (2550) and the max_rps ladder (9200).
SERVED_REQUESTS = 16000
# Assumed: 32 scenarios fit the server's result cache (1024) many times
# over, so a hot request misses only the first time in each instance.
SERVED_HOT_SET = 32
# Per 100 requests. Assumed: interactive clients mostly re-ask recent
# questions, so hits are the majority. The cold share makes the Engine LRU
# evict: a server instance answers 2550 requests, about 1000 of
# them distinct, on about 400 models, more than the server's 256 model
# entries (about 140 model evictions per instance). Simulations are few,
# but each costs about 30 hits. Measured on a 4-vCPU VM (the served run
# prints it as "fixed-rate by kind"): a hit takes 0.2 to 0.3 ms, a model
# miss 0.35 to 0.5 ms, a simulation 7 to 10 ms, as the host's speed varies.
# Per 100 requests, hits and model misses then carry about a quarter of the
# server's time each and simulations about half, so a change to any of the
# three paths moves the served throughput.
SERVED_MIX = [("hot", 62), ("cold", 35), ("sim", 3)]
SERVED_SIM_MESSAGES = 400
SERVED_SIM_LOAD = 0.25  # sim requests run at this fraction of saturation
SERVED_COLD_SCALES = [1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0]


def _stratified(rng, weighted, n):
    """n draws in which every block of sum(weights) consecutive draws holds
    each value exactly `weight` times (shuffled inside the block), so any
    stretch the driver measures carries the same mix whatever the seed."""
    block = [value for value, w in weighted for _ in range(w)]
    out = []
    while len(out) < n:
        rng.shuffle(block)
        out += block
    return out[:n]


def _rate(frac, sat):
    return "%.6g" % (frac * sat)


def _dial(rng, kind, clusters):
    if kind == "locality":
        return ["workload.pattern = local",
                "workload.locality = %g" % rng.choice(LOCALITIES)]
    if kind == "hotspot":
        return ["workload.pattern = hotspot",
                "workload.hotspot_fraction = %g" % rng.choice(HOTSPOT_FRACTIONS),
                "workload.hotspot_node = %d" % rng.choice(HOTSPOT_NODES)]
    if kind == "rate":
        return ["workload.rate.%d = %g" % (rng.randrange(clusters),
                                           rng.choice(RATE_SCALES))]
    if kind == "mmpp":
        return ["workload.arrival = %s" % rng.choice(MMPP)]
    return []


def _section(name, lines):
    return "[scenario %s]\n%s\n" % (name, "\n".join(lines))


def whatif(seed):
    rng = random.Random("whatif:%d" % seed)
    n = WHATIF_SCENARIOS
    draws = zip(_stratified(rng, WHATIF_SYSTEM_WEIGHTS, n),
                _stratified(rng, WHATIF_ANALYSES, n), _stratified(rng, DIALS, n))
    out = []
    for i, (key, analyses, dial) in enumerate(draws):
        spec, clusters, sat = SYSTEMS[key]
        lines = ["system = " + spec, "analyses = " + analyses,
                 "rate = " + _rate(rng.uniform(*WHATIF_LOAD), sat)]
        if analyses == "model,sweep":
            lines += ["sweep.max_rate = " + _rate(0.9, sat),
                      "sweep.points = %d" % SWEEP_POINTS, "sweep.sim = false"]
        lines += _dial(rng, dial, clusters)
        out.append(_section("w%d" % i, lines))
    return "\n".join(out)


def validate(seed):
    rng = random.Random("validate:%d" % seed)
    cases = [(key, f, []) for key in SYSTEMS for f in VALIDATE_FRACTIONS]
    cases += VALIDATE_EXTRA
    out = []
    for i, (key, frac, overlay) in enumerate(cases):
        spec, _, sat = SYSTEMS[key]
        lines = ["system = " + spec, "analyses = model,sim",
                 "rate = " + _rate(frac, sat),
                 "sim.messages = %d" % VALIDATE_MESSAGES,
                 "sim.seed = %d" % rng.randrange(1, 2**31)] + overlay
        out.append(_section("v%d-%s-%g" % (i, key, frac), lines))
    return "\n".join(out)


def _request(scenario_text):
    return json.dumps({"op": "evaluate", "scenario": scenario_text},
                      separators=(",", ":"))


def served(seed):
    rng = random.Random("served:%d" % seed)
    hot = []
    dials = _stratified(rng, DIALS, SERVED_HOT_SET)
    for i in range(SERVED_HOT_SET):
        key = ["1120", "544"][i % 2]
        spec, clusters, sat = SYSTEMS[key]
        lines = ["system = " + spec, "analyses = model,bottleneck",
                 "rate = " + _rate(rng.uniform(0.1, 0.8), sat)]
        hot.append(_section("hot%d" % i,
                            lines + _dial(rng, dials[i], clusters)))
    hot_order = []
    lines_out = []
    kinds = _stratified(rng, SERVED_MIX, SERVED_REQUESTS)
    for i, kind in enumerate(kinds):
        if kind == "hot":
            if not hot_order:
                hot_order = rng.sample(hot, len(hot))
            text = hot_order.pop()
        elif kind == "cold":
            # A distinct scenario every time (result-cache miss); the
            # (system, cluster, scale) grid holds 384 models, more than the
            # server's 256 model entries, so the Engine LRU evicts.
            key = ["1120", "544"][rng.randrange(2)]
            spec, clusters, sat = SYSTEMS[key]
            text = _section("cold%d" % i, [
                "system = " + spec, "analyses = model,saturation",
                "rate = " + _rate(rng.uniform(0.05, 0.9), sat),
                "workload.rate.%d = %g" % (rng.randrange(clusters),
                                           rng.choice(SERVED_COLD_SCALES))])
        else:
            spec, _, sat = TINY
            text = _section("sim%d" % i, [
                "system = " + spec, "analyses = model,sim",
                "rate = " + _rate(SERVED_SIM_LOAD, sat),
                "sim.messages = %d" % SERVED_SIM_MESSAGES,
                "sim.seed = %d" % rng.randrange(1, 2**31)])
        lines_out.append(_request(text))
    return "\n".join(lines_out) + "\n"


GENERATORS = {"whatif": (whatif, "whatif.cfg"),
              "validate": (validate, "validate.cfg"),
              "served": (served, "served.jsonl")}


def write(workload, seed, out_dir):
    """Writes the workload's inputs under out_dir; returns the file path."""
    fn, name = GENERATORS[workload]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as f:
        f.write(fn(seed))
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    print(write(args.workload, args.seed, args.out))


if __name__ == "__main__":
    main()
