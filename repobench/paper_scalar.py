"""``paper-scalar``: paper experiments on the scalar kernel, in-process.

One round runs Table 1 (the ATM switch across four architectures), the
Figure 5 / 6a test-bed traffic classes and the Figure 12b/12c TDMA and
lottery latency studies through ``run_experiment`` at a fixed reduced
scale.  It mixes saturated and low-utilisation load, so the bus cycle
(bus, arbiters, traffic, metrics) and the fast kernel's skipping of
quiet cycles do almost all the work; the vector engine, the analytic
surrogate and the service do none.
"""

import json
import os
import random

from common import HERE, digest

#: (experiment id, scale) of one round, in run order.
ROUND = (
    ("table1", 0.02),
    ("figure5", 0.05),
    ("figure6a", 0.02),
    ("figure12b", 0.01),
    ("figure12c", 0.01),
)

#: The seed the pinned digest was taken at.
DEFAULT_SEED = 1


def pinned_digest():
    with open(os.path.join(HERE, "pinned.json")) as handle:
        return json.load(handle)["paper-scalar"]


def prepare(seed):
    from repro.experiments import runner  # noqa: F401 - the set-up cost

    return {"seed": seed, "round": ROUND}


def run_round(inputs, step):
    from repro.experiments import runner

    outputs = []
    for name, scale in inputs["round"]:
        step()
        outputs.append(
            runner.run_experiment(name, scale=scale, seed=inputs["seed"]))
    return outputs


def round_digests(outputs):
    return [digest(result) for result in outputs]


def round_digest(outputs):
    """One digest over every simulated statistic of a round."""
    return digest(round_digests(outputs))


def run_dense(name, scale, seed):
    """Re-run one experiment with every simulator in ``dense`` mode."""
    from repro.experiments import runner
    from repro.sim.kernel import Simulator

    original = Simulator.__dict__["__init__"]

    def dense_init(self, mode="fast"):
        original(self, mode="dense")

    Simulator.__init__ = dense_init
    try:
        return runner.run_experiment(name, scale=scale, seed=seed)
    finally:
        Simulator.__init__ = original


def gate(inputs, outputs, ledger):
    """Pinned digest at the default seed; a seeded dense-mode re-run."""
    if inputs["seed"] == DEFAULT_SEED:
        default = outputs
    else:
        default = run_round({"seed": DEFAULT_SEED, "round": ROUND},
                            lambda: None)
    if round_digest(default) != pinned_digest():
        ledger.fail_gate("paper-scalar digest at seed {} differs from the "
                         "pinned digest".format(DEFAULT_SEED))
    index = random.Random(inputs["seed"]).randrange(len(ROUND))
    name, scale = ROUND[index]
    dense = run_dense(name, scale, inputs["seed"])
    print("# gate: dense re-run of {} at seed {}".format(
        name, inputs["seed"]))
    if digest(dense) != digest(outputs[index]):
        ledger.fail_gate("{} differs between dense and fast kernel "
                         "modes".format(name))


def install(tracer):
    from layers import install_experiments, install_simulation

    install_experiments(tracer)
    install_simulation(tracer)


def layer_metrics(tracer, outputs, rounds):
    from layers import common_layer_metrics

    return common_layer_metrics(tracer, rounds)
