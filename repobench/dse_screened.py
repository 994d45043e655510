"""``dse-screened``: an architect's two-step design-space exploration.

1. ``run_screened_sweep`` with ``backend="auto"`` over every family the
   analytic surrogate models x T1-T9 x three weight vectors (162
   configurations; 51 survive the screen at 5k cycles).
2. ``run_replicated_testbed`` of the frontier's best configuration over
   64 seeds, also with ``backend="auto"``.

The analytic surrogate, the vector engine, the screen and replication
do most of the work here and none in the other workloads.  The sweep
is few lanes at mixed utilisation (where the vector engine loses to
scalar fast mode) plus scalar fallbacks for TDMA, round-robin and
on-off traffic; the replication is many saturated seeds (where it
wins).
"""

import random

from common import digest

TRAFFIC = tuple("T{}".format(i) for i in range(1, 10))
WEIGHTS = ((12, 2, 6, 1), (1, 2, 3, 4), (4, 3, 2, 1))
CYCLES = 5_000
REPLICATION_SEEDS = 64
REPLICATION_WARMUP = 500

#: Confirmed rows re-run on the scalar backend by the correctness gate.
GATE_SAMPLE = 3


def prepare(seed):
    from repro.analytic import supported_arbiters
    from repro.experiments import replication, screen  # noqa: F401
    from repro.vector import have_numpy

    if not have_numpy():
        raise RuntimeError("dse-screened needs numpy for backend='auto' "
                           "to exercise the vector engine")
    return {
        "seed": seed,
        "arbiters": tuple(supported_arbiters()),
        "replication_seeds": range(seed * 1000, seed * 1000
                                   + REPLICATION_SEEDS),
    }


def _weights(row):
    return tuple(int(w) for w in row["weights"].split(":"))


def run_round(inputs, step):
    from repro.experiments import replication, screen

    step()
    sweep = screen.run_screened_sweep(
        inputs["arbiters"], TRAFFIC, weights=WEIGHTS, cycles=CYCLES,
        seed=inputs["seed"], backend="auto",
    )
    best = sweep.frontier[0]
    step()
    replicated = replication.run_replicated_testbed(
        best["arbiter"], best["traffic"], _weights(best),
        seeds=inputs["replication_seeds"], cycles=CYCLES,
        warmup=REPLICATION_WARMUP, seed_mode="derived", backend="auto",
    )
    return sweep, replicated


def round_digests(outputs):
    sweep, replicated = outputs
    return [
        digest([sweep.result.rows, sweep.frontier, sweep.funnel]),
        digest(replicated.replication.summary_rows()),
    ]


def gate(inputs, outputs, ledger):
    """A seeded sample of confirmed rows re-run on the scalar backend."""
    from repro.experiments.sweep import run_sweep

    rows = outputs[0].result.rows
    sample = random.Random(inputs["seed"]).sample(
        range(len(rows)), GATE_SAMPLE)
    for index in sample:
        row = rows[index]
        scalar = run_sweep(
            [row["arbiter"]], [row["traffic"]], weights=_weights(row),
            cycles=CYCLES, seed=inputs["seed"], backend="scalar",
        ).rows[0]
        if scalar != row:
            ledger.fail_gate("confirmed row {}/{}/{} differs from its "
                             "scalar re-run".format(
                                 row["arbiter"], row["traffic"],
                                 row["weights"]))
    print("# gate: {} confirmed rows re-run on the scalar backend".format(
        len(sample)))


def install(tracer):
    from layers import install_engines, install_simulation

    install_engines(tracer)
    install_simulation(tracer)


def layer_metrics(tracer, outputs, rounds):
    from layers import common_layer_metrics

    values = common_layer_metrics(tracer, rounds)
    funnel = outputs[0].funnel
    values["experiments.screen.survivors"] = funnel["survivors"]
    values["experiments.screen.confirm_ratio"] = (
        funnel["confirmed"] / funnel["scored"])
    return values
