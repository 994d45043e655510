"""Per-layer tracing, installed from outside the program.

A :class:`Tracer` wraps public calls of the repository's modules with
spans (calls, inclusive time, self time) and counters, and restores
every original on :meth:`Tracer.restore`.  Per-cycle layers (kernel,
bus, traffic, ATM) are never timed per call: their work is counted from
the simulator's and collectors' own counters, read before and after
each ``Simulator.run``.  Wrappers pass straight through in any process
other than the one that installed them, so forked pool workers run
untouched code paths.

Instrumentation only observes: every wrapper returns exactly what the
wrapped call returned, so traced and untraced outputs are identical.
"""

import collections
import functools
import os
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()
        self._patches = []

    # -- recording --------------------------------------------------------

    def add(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, func, before=None, after=None):
        """``func`` wrapped in a span called ``name`` (a string, or a
        callable of the call's arguments).  ``before(*args, **kwargs)``
        runs first and its value is handed to ``after(state, result)``."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return func(*args, **kwargs)
            state = before(*args, **kwargs) if before else None
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                label = name(*args, **kwargs) if callable(name) else name
                with tracer._lock:
                    span = tracer.spans.setdefault(label, [0, 0.0, 0.0])
                    span[0] += 1
                    span[1] += elapsed
                    span[2] += elapsed - child
            if after:
                after(state, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` by its traced wrapper until restore()."""
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def inclusive(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def snapshot(self):
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
            }


# -- simulation layers -------------------------------------------------------


def _bus_totals(bus):
    metrics = bus.metrics
    grants = sum(stats.grants for stats in metrics.masters)
    messages = sum(stats.latency.messages for stats in metrics.masters)
    return grants, metrics.total_words, messages


def install_simulation(tracer):
    """Kernel, bus, traffic, metrics and ATM counters, plus the kernel's
    and metrics' host time."""
    from repro.bus.bus import SharedBus
    from repro.metrics.collector import MetricsCollector
    from repro.sim.kernel import Simulator

    def before(simulator, cycles):
        buses = [c for c in simulator.components if isinstance(c, SharedBus)]
        cells = [c for c in simulator.components
                 if hasattr(c, "cells_arrived")]
        return (
            simulator,
            (simulator.cycle, simulator.ticked_cycles,
             simulator.skipped_cycles),
            [(bus, _bus_totals(bus)) for bus in buses],
            [(c, c.cells_arrived) for c in cells],
        )

    def after(state, result):
        simulator, (cycle, ticked, skipped), buses, cells = state
        tracer.add("sim.cycles", simulator.cycle - cycle)
        tracer.add("sim.ticked_cycles", simulator.ticked_cycles - ticked)
        tracer.add("sim.skipped_cycles", simulator.skipped_cycles - skipped)
        for bus, (grants, words, messages) in buses:
            now = _bus_totals(bus)
            tracer.add("bus.grants", now[0] - grants)
            tracer.add("bus.words", now[1] - words)
            tracer.add("traffic.transactions", now[2] - messages)
        for component, arrived in cells:
            tracer.add("atm.cells", component.cells_arrived - arrived)

    tracer.patch(Simulator, "run", "sim.run", before, after)
    tracer.patch(MetricsCollector, "summary", "metrics.summary")


def install_experiments(tracer):
    """One span per paper experiment run through the registry."""
    from repro.experiments import runner

    tracer.patch(runner, "run_experiment",
                 lambda name, *a, **k: "experiments." + name)


# -- faster engines, sweeps and replication --------------------------------


def fallback_bucket(reason):
    """Coarse, fixed class of a vector-engine fallback reason."""
    head = reason.split()[0].lower() if reason else "other"
    return head if head in ("arbiter", "generator") else "other"


def install_engines(tracer):
    """Analytic surrogate, vector engine, scalar fallbacks, replication."""
    import repro.analytic
    import repro.vector
    from repro.experiments import replication
    from repro.vector import backend
    from repro.vector.engine import VectorEngine

    def count_configs(points, *args, **kwargs):
        tracer.add("analytic.configs", len(points))

    tracer.patch(repro.analytic, "score_grid", "analytic.score",
                 before=count_configs)

    def batch_done(state, batch):
        tracer.add("vector.groups", batch.groups)
        tracer.add("vector.lanes", batch.vector_points)
        tracer.add("vector.fallbacks", len(batch.fallbacks))
        for _, _, reason in batch.fallbacks:
            tracer.add("vector.fallbacks." + fallback_bucket(reason))

    tracer.patch(repro.vector, "run_testbed_batch", "vector.batch",
                 after=batch_done)
    tracer.patch(backend, "plan_lane", "vector.plan")
    tracer.patch(backend, "run_testbed", "experiments.sweep.scalar")

    def lane_cycles(engine, cycles):
        tracer.add("vector.lane_cycles", engine.num_lanes * cycles)

    tracer.patch(VectorEngine, "run", "vector.run", before=lane_cycles)
    tracer.patch(VectorEngine, "cross_check", "vector.cross_check")

    def seeds(arbiter, traffic, weights, seeds=(), **kwargs):
        tracer.add("experiments.replication.seeds", len(list(seeds)))

    tracer.patch(replication, "run_replicated_testbed",
                 "experiments.replication", before=seeds)


def lookup_stats():
    from repro.core.lookup_table import lookup_table_cache_stats

    return lookup_table_cache_stats()


def count_lookups(tracer, before, after):
    tracer.add("core.lookup_hits", after["hits"] - before["hits"])
    tracer.add("core.lookup_misses", after["builds"] - before["builds"])


# -- service (installed inside the server process by launcher.py) ----------


def install_service(tracer):
    """Admission, WAL, queue wait, supervisor batches and result cache."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.supervisor import Supervisor
    from repro.service.core import ServiceCore
    from repro.service.queue import JobQueue
    from repro.service.wal import JobWAL

    submitted = {}

    tracer.patch(ServiceCore, "submit", "service.core.submit")
    tracer.patch(ServiceCore, "job_result", "service.core.result")
    tracer.patch(JobWAL, "append", "service.wal.append")

    def queued(state, result):
        job, deduplicated = result
        if not deduplicated:
            submitted.setdefault(job.id, time.perf_counter())

    def leased(state, jobs):
        now = time.perf_counter()
        for job in jobs or ():
            start = submitted.pop(job.id, None)
            if start is not None:
                tracer.add("service.queue.wait_ms", (now - start) * 1000.0)
                tracer.add("service.queue.leased")

    tracer.patch(JobQueue, "submit", "service.queue.submit", after=queued)
    tracer.patch(JobQueue, "lease", "service.queue.lease", after=leased)

    def batch(state, outcomes):
        tracer.add("experiments.supervisor.batches")
        tracer.add("experiments.supervisor.retries", sum(
            outcome.attempts - 1 for outcome in outcomes.values()))

    tracer.patch(Supervisor, "run", "experiments.supervisor.run",
                 after=batch)

    def got(state, record):
        tracer.add("experiments.cache.hits" if record is not None
                   else "experiments.cache.misses")

    tracer.patch(ResultCache, "get", "experiments.cache.get", after=got)
    tracer.patch(ResultCache, "put", "experiments.cache.put")


# -- the per-layer catalogue -------------------------------------------------

#: Every per-layer metric a traced run prints: (name, unit, better).
#: The same table is printed by every workload: a layer a workload does
#: not load reads 0, which is the prediction that it does not move there.
PER_LAYER = (
    ("experiments.table1_s", "s/round", "lower"),
    ("experiments.figure5_s", "s/round", "lower"),
    ("experiments.figure6a_s", "s/round", "lower"),
    ("experiments.figure12b_s", "s/round", "lower"),
    ("experiments.figure12c_s", "s/round", "lower"),
    ("sim.run_s", "s/round", "lower"),
    ("sim.cycles", "count/round", "higher"),
    ("sim.ticked_cycles", "count/round", "lower"),
    ("sim.skipped_cycles", "count/round", "higher"),
    ("bus.grants", "count/round", "higher"),
    ("bus.words", "count/round", "higher"),
    ("traffic.transactions", "count/round", "higher"),
    ("core.lookup_hits", "count/round", "higher"),
    ("core.lookup_misses", "count/round", "lower"),
    ("metrics.summary_s", "s/round", "lower"),
    ("atm.cells", "count/round", "higher"),
    ("analytic.score_s", "s/round", "lower"),
    ("analytic.configs", "count/round", "higher"),
    ("experiments.screen.survivors", "count/round", "higher"),
    ("experiments.screen.confirm_ratio", "ratio", "higher"),
    ("vector.plan_s", "s/round", "lower"),
    ("vector.groups", "count/round", "higher"),
    ("vector.lanes", "count/round", "higher"),
    ("vector.fallbacks", "count/round", "lower"),
    ("vector.fallbacks.arbiter", "count/round", "lower"),
    ("vector.fallbacks.generator", "count/round", "lower"),
    ("vector.fallbacks.other", "count/round", "lower"),
    ("vector.run_s", "s/round", "lower"),
    ("vector.lane_cycles", "count/round", "higher"),
    ("vector.cross_check_s", "s/round", "lower"),
    ("experiments.sweep.scalar_points", "count/round", "lower"),
    ("experiments.sweep.scalar_s", "s/round", "lower"),
    ("experiments.replication_s", "s/round", "lower"),
    ("experiments.replication.seeds", "count/round", "higher"),
    ("service.core.submit_s", "s/round", "lower"),
    ("service.wal.append_s", "s/round", "lower"),
    ("service.wal.appends_per_job", "count/job", "lower"),
    ("service.wal.bytes", "bytes/round", "lower"),
    ("service.queue.wait_ms", "ms/job", "lower"),
    ("experiments.supervisor.run_s", "s/round", "lower"),
    ("experiments.supervisor.batches", "count/round", "lower"),
    ("experiments.supervisor.retries", "count/round", "lower"),
    ("experiments.supervisor.overhead_ms", "ms/batch", "lower"),
    ("experiments.cache.put_s", "s/round", "lower"),
    ("experiments.cache.misses", "count/round", "lower"),
    ("service.core.result_s", "s/round", "lower"),
    ("service.http_ms", "ms/request", "lower"),
    ("experiments.cache.get_s", "s/round", "lower"),
    ("experiments.cache.hits", "count/round", "higher"),
    ("service.rejected", "count/round", "lower"),
    ("client.polls_per_job", "count/job", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.rounds", "count", "higher"),
)

#: Kernel self time: the span minus the calls nested inside it.
_SELF_TIME = {"sim.run_s"}


def common_layer_metrics(tracer, rounds):
    """Every catalogued metric a tracer's spans and counters fill, per
    round; workload-specific entries are filled in by the workload."""
    values = {}
    for name, unit, _ in PER_LAYER:
        if unit == "s/round":
            span = name[:-2]
            total = (tracer.self_time(span) if name in _SELF_TIME
                     else tracer.inclusive(span))
            values[name] = total / rounds
        elif unit == "count/round":
            values[name] = tracer.counts.get(name, 0) / rounds
        else:
            values[name] = 0
    values["experiments.sweep.scalar_points"] = (
        tracer.calls("experiments.sweep.scalar") / rounds)
    return values
