"""Traced service launcher: installs the service-layer wrappers, runs
the normal ``python -m repro.service`` entry point, and writes the
counters to a JSON file when the server drains.

    python3 repobench/launcher.py <dump.json> <repro.service arguments>
"""

import json
import os
import sys

from layers import Tracer, install_service


def main(argv):
    dump, service_args = argv[1], argv[2:]
    from repro.service.__main__ import main as service_main

    tracer = Tracer()
    install_service(tracer)
    try:
        code = service_main(service_args)
    finally:
        tracer.restore()
        partial = dump + ".tmp"
        with open(partial, "w") as handle:
            json.dump(tracer.snapshot(), handle)
        os.replace(partial, dump)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
