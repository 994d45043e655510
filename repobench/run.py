"""Repository benchmark: run one workload, check its outputs, print its
metrics.

    python3 repobench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Human-readable lines start with ``#``; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer table.  The program is imported from ``src/`` of the
checkout this script sits in; without it the run exits 2.
"""

import argparse
import importlib
import json
import os
import sys

from common import SRC
from layers import PER_LAYER

WORKLOADS = {
    "paper-scalar": "paper_scalar",
    "dse-screened": "dse_screened",
    "service-closed-loop": "service_loop",
}

#: (name, unit, better) of every end-to-end metric; each workload
#: reports all of them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


class MissingProgram(Exception):
    """The checkout holds no ``src/repro`` to measure."""


def load_workload(name):
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram("error: no repro package under {}; run from "
                             "a checkout of the repository".format(SRC))
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return importlib.import_module(WORKLOADS[name])


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def result_line(ledger, values, trace):
    """The final JSON line: the verdict plus every metric of the table."""
    table = PER_LAYER if trace else END_TO_END
    return json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in table
        },
    })


def pin_to_one_cpu():
    """Pin this process, and so every process it starts, to one CPU.

    On a shared VM host speed swings per vCPU within seconds; with the
    work and the calibration chunk on one CPU, the chunk measures the
    speed the work ran at.  Returns the CPU, or None where affinity is
    not supported.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0",
              file=sys.stderr)
        return 2
    try:
        work = load_workload(args.workload)
    except MissingProgram as error:
        print(error, file=sys.stderr)
        return 2
    print("# pinned to cpu {}".format(pin_to_one_cpu()))
    if hasattr(work, "run"):
        ledger, values = work.run(args)
    else:
        import cpu

        ledger, values = cpu.run(args.workload, work, args)
    for problem in ledger.problems[:10]:
        print("# FAILED: {}".format(problem))
    if args.trace:
        for name, unit, _ in PER_LAYER:
            print("# layer {:<36} {:>16.6f} {}".format(
                name, values[name], unit))
    print(result_line(ledger, values, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
