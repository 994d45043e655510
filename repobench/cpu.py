"""The in-process loop shared by the CPU-bound workloads.

A workload module provides ``prepare(seed)``, ``run_round(inputs,
step)``, ``round_digests(outputs)`` (one digest per operation of the
round), ``gate(inputs, outputs, ledger)``, ``install(tracer)`` and
``layer_metrics(tracer, outputs, rounds)``.  ``run_round`` calls
``step()`` before each of its steps.

Every round repeats the same fixed work, so the median over rounds
measures one thing.  Host speed on a shared VM swings within a second,
so it is sampled during every step (see :class:`StepClock`) and each
step is scaled to the nominal host speed; a round's calibrated time is
the sum over its steps.  Raw seconds are printed beside it.
"""

import signal
import time

from common import (
    Ledger,
    calibrated,
    calibration_chunk,
    median,
    peak_rss_mb_self,
    print_header,
    probe_setup,
)
from layers import Tracer, count_lookups, lookup_stats

#: Fresh-interpreter set-up probes per untraced run, spread evenly.
#: With 7, the median's spread over ten 30 s runs reached 10%.
SETUP_PROBES = 11

#: Host-speed sampling during a step: a chunk of ``SAMPLE_ITERATIONS``
#: (about 0.75 ms) every ``SAMPLE_PERIOD_S``, about 1.5% of the step.
SAMPLE_PERIOD_S = 0.05
SAMPLE_ITERATIONS = 3_000


class StepClock:
    """Times the steps of one round and samples host speed during each.

    A timer signal runs a short calibration chunk every
    ``SAMPLE_PERIOD_S`` while a step runs; the chunks' time is taken out
    of the step's, and the step is scaled by the ratio of the nominal
    chunk time to the mean sampled one, raised to the calibration
    elasticity.
    """

    def __init__(self):
        self.steps = []  # (host seconds net of sampling, mean sample s)
        self._began = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._close()

    def _sample(self, signum, frame):
        began = time.perf_counter()
        self._samples.append(calibration_chunk(SAMPLE_ITERATIONS))
        self._sampling += time.perf_counter() - began

    def step(self):
        self._close()
        self._samples, self._sampling = [], 0.0
        self._began = time.perf_counter()

    def _close(self):
        if self._began is None:
            return
        elapsed = time.perf_counter() - self._began - self._sampling
        self._began = None
        if not self._samples:  # a step shorter than the sampling period
            self._samples.append(calibration_chunk(SAMPLE_ITERATIONS))
        self.steps.append(
            (elapsed, sum(self._samples) / len(self._samples)))

    def result(self):
        """``(raw_s, calibrated_s)`` of the round."""
        return (
            sum(seconds for seconds, _ in self.steps),
            sum(calibrated(seconds, sample, SAMPLE_ITERATIONS)
                for seconds, sample in self.steps),
        )


def run(name, work, args):
    start = time.monotonic()
    inputs = work.prepare(args.seed)
    print_header(name, args, calibration_chunk())

    # Warm-up round: lazy imports and memo tables fill before timing.
    reference_outputs = work.run_round(inputs, lambda: None)
    reference = work.round_digests(reference_outputs)
    ledger = Ledger()

    rounds = []  # (raw_s, calibrated_s, traced)
    probes = []
    tracer = Tracer() if args.trace else None
    deadline = start + args.seconds
    while True:
        index = len(rounds)
        if not args.trace and len(probes) < SETUP_PROBES and (
                time.monotonic()
                >= start + len(probes) * args.seconds / SETUP_PROBES):
            probes.append(probe_setup(name, args.seed))
        # Traced runs alternate untraced and traced rounds and stop on
        # a complete pair, so the overhead ratio compares like with like.
        if (index >= 2 and time.monotonic() >= deadline
                and index % (2 if args.trace else 1) == 0):
            break
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            lookups = lookup_stats()
            work.install(tracer)
        try:
            with StepClock() as clock:
                outputs = work.run_round(inputs, clock.step)
        finally:
            if traced:
                tracer.restore()
        raw, scaled = clock.result()
        if traced:
            count_lookups(tracer, lookups, lookup_stats())
        for want, got in zip(reference, work.round_digests(outputs)):
            ledger.record(want == got, "round {} output differs from the "
                          "warm-up round".format(index))
        rounds.append((raw, scaled, traced))
        print("# round {} raw_s={:.6f} calibrated_s={:.6f} traced={} "
              "steps_ms={} samples_us={}".format(
                  index, raw, scaled, int(traced),
                  ",".join("{:.2f}".format(1000 * s) for s, _ in clock.steps),
                  ",".join("{:.1f}".format(1e6 * c) for _, c in clock.steps)))

    work.gate(inputs, reference_outputs, ledger)
    plain = [r for r in rounds if not r[2]]
    wall_s = median([r[1] for r in plain])
    print("# rounds={} untraced: wall_s={:.6f} calibrated, {:.6f} raw".format(
        len(plain), wall_s, median([r[0] for r in plain])))
    if args.trace:
        traced = [r for r in rounds if r[2]]
        layers = work.layer_metrics(tracer, reference_outputs, len(traced))
        layers["trace.overhead_ratio"] = (
            median([r[1] for r in traced]) / wall_s)
        layers["trace.rounds"] = len(traced)
        return ledger, layers
    print("# setup probes (s, calibrated/raw): {}".format(
        " ".join("{:.4f}/{:.4f}".format(c, r) for r, c in probes)))
    return ledger, {
        "setup_s": median([c for _, c in probes]),
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb_self(),
    }
