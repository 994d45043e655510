"""One ``setup_s`` sample: a fresh interpreter imports the workload's
modules, generates its inputs and prints ``ready``.

    python3 repobench/probe.py <workload> <seed>
"""

import sys

from run import load_workload


def main(argv):
    workload, seed = argv[1], int(argv[2])
    load_workload(workload).prepare(seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv)
