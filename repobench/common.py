"""Shared plumbing for the repository benchmark.

Host-time calibration, order statistics, set-up probes, memory readings,
the canonical digest of simulated statistics, and the run header.
Nothing here imports :mod:`repro`; the workload modules do that.
"""

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Host seconds one calibration chunk is scaled to.  Calibrated times
#: read "seconds on a host where the chunk takes exactly this long", so
#: a drift of the whole machine's speed cancels out of them.
NOMINAL_CALIBRATION_S = 0.0075

#: Elasticity of measured host time to the chunk's host time: work is
#: scaled by ``(nominal / measured chunk) ** CALIBRATION_ELASTICITY``.
#: On the 2-vCPU VM the benchmark was tuned on, five 30 s runs per
#: workload gave the narrowest spread of calibrated ``wall_s`` at 0.7
#: (paper-scalar) and 1.0 (dse-screened); 0.85 kept both at 3.4%.
CALIBRATION_ELASTICITY = 0.85

#: Iterations of the calibration chunk: about 7.5 ms on a quiet 2-vCPU
#: VM, which is ``NOMINAL_CALIBRATION_S``.
ITERATIONS = 30_000

#: Idle time before a calibration chunk taken around another process's
#: work (see :func:`quiet_chunk`).
QUIET_S = 0.05


def calibration_chunk(iterations=ITERATIONS):
    """Host seconds of one fixed pure-Python chunk.

    The chunk mixes the operations the scalar simulator's hot loop is
    made of (attribute reads, small-int arithmetic, list and dict
    traffic, method calls), so host-speed drift moves it the way it
    moves a simulation round.
    """

    class _Cell:
        __slots__ = ("value", "words")

        def __init__(self):
            self.value = 0
            self.words = 0

        def step(self, amount):
            self.value = (self.value * 33 + amount) & 0xFFFF
            self.words += 1
            return self.value

    cells = [_Cell() for _ in range(8)]
    table = {}
    queue = []
    start = time.perf_counter()
    for i in range(iterations):
        cell = cells[i & 7]
        value = cell.step(i)
        table[value & 255] = table.get(value & 255, 0) + 1
        queue.append(value)
        if len(queue) > 16:
            queue.pop(0)
    elapsed = time.perf_counter() - start
    if sum(table.values()) != iterations:
        raise RuntimeError("calibration chunk miscounted")
    return elapsed


def calibrated(seconds, chunk_s, iterations=ITERATIONS):
    """``seconds`` of work scaled to nominal host speed, given the host
    seconds ``chunk_s`` a chunk of ``iterations`` took around or during
    the work."""
    nominal = NOMINAL_CALIBRATION_S * iterations / ITERATIONS
    return seconds * (nominal / chunk_s) ** CALIBRATION_ELASTICITY


def quiet_chunk():
    """A calibration chunk after a short idle, so that it samples the
    host rather than competing with a child process finishing work."""
    time.sleep(QUIET_S)
    return calibration_chunk()


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


def peak_rss_mb_self():
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def python_env():
    """Environment for child interpreters that import the repository."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def probe_setup(workload, seed):
    """Host seconds from spawning a fresh interpreter until it reports
    ready (imports done, inputs generated) — one ``setup_s`` sample, as
    ``(raw_s, calibrated_s)``."""
    argv = [sys.executable, os.path.join(HERE, "probe.py"), workload,
            str(seed)]
    before = quiet_chunk()
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=python_env(),
                          cwd=ROOT, text=True) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        finally:
            if child.wait(timeout=60) != 0:
                raise RuntimeError("set-up probe exited {}".format(
                    child.returncode))
    if line.strip() != "ready":
        raise RuntimeError("set-up probe said {!r}".format(line))
    return elapsed, calibrated(elapsed, (before + quiet_chunk()) / 2)


def canonical(value, _depth=0):
    """A JSON-able, exactly-reproducible view of a result object.

    Floats are kept as ``repr`` strings, so two digests agree only when
    every simulated statistic agrees bit for bit.  Objects are walked
    through ``__dict__`` / ``__slots__``; callables and private names
    are skipped.
    """
    if _depth > 12:
        raise ValueError("result object nests too deeply to digest")
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [canonical(item, _depth + 1) for item in value]
    if isinstance(value, dict):
        return {
            str(key): canonical(item, _depth + 1)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    fields = {}
    names = list(getattr(value, "__dict__", {}))
    for cls in type(value).__mro__:
        names.extend(getattr(cls, "__slots__", ()))
    for name in sorted(set(names)):
        if name.startswith("_") or not hasattr(value, name):
            continue
        item = getattr(value, name)
        if callable(item):
            continue
        fields[name] = canonical(item, _depth + 1)
    return {"__type__": type(value).__name__, "fields": fields}


def digest(value):
    """SHA-256 over the canonical JSON of ``value``."""
    blob = json.dumps(canonical(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def source_digest():
    """Short SHA-256 over every ``src/**/*.py`` file (path and bytes):
    identifies the code measured when no git metadata is present."""
    sha = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                sha.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()[:16]


def commit_id():
    """``git rev-parse HEAD`` when the checkout itself is a git
    repository (never that of a directory above it)."""
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
             "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def print_header(workload, args, calibration_s):
    """The run header: what ran, where, on how many CPUs."""
    print("# repobench workload={} seed={} seconds={} trace={}".format(
        workload, args.seed, args.seconds, args.trace))
    print("# commit={} src_sha256={} python={} platform={} nproc={}".format(
        commit_id(), source_digest(), platform.python_version(),
        platform.platform(), os.cpu_count()))
    print("# calibration chunk: measured {:.6f} s, nominal {:.6f} s".format(
        calibration_s, NOMINAL_CALIBRATION_S))
    sys.stdout.flush()


class Ledger:
    """Operations attempted and failed; the correctness gate's verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, ok, what=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what is not None:
                self.problems.append(what)

    def fail_gate(self, what):
        """A failed correctness gate fails every operation of the run."""
        self.problems.append(what)
        self.failed = self.attempted

    @property
    def correct(self):
        return not self.problems and self.failed == 0

