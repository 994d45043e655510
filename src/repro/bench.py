"""Identity-and-ratio gates for the engine speed-ups (``python -m repro.bench``).

Every benchmark is a list of :class:`Bench` specs built by an entry in
:data:`REGISTRY`.  A spec is an ordered tuple of legs that do the same
work by different paths, the first leg being the reference.  One runner
times every spec the same way — legs interleaved, best of ``--repeats``
— and the run fails (exit status 1) when a leg's fingerprint changes
across repeats, when a fingerprinted leg differs from the reference, or
when the spec's gate reports a failure.  Speed without equivalence is a
bug, not a result.

Registered benchmarks (``python -m repro.bench NAME``):

* ``kernel`` — the dense reference kernel vs the activity-driven fast
  path on four paper workloads, each fingerprinted by its metrics
  summary plus the full kernel ``state_dict``:

  - ``table1_lowutil``: the four Table 1 architectures under light
    Poisson load (~1.5% offered utilisation), the idle-heavy sweep the
    fast path exists for;
  - ``table1_saturated``: the same architectures with saturating
    generators — nothing to skip, so this guards the fast path's
    overhead on busy systems;
  - ``figure8_lottery``: the Figure 8 ticket assignment (1:2:3:4) on a
    saturated lottery bus;
  - ``atm_switch``: the Table 1 output-queued ATM switch, whose
    Bernoulli arrivals draw their RNG every cycle, so it runs
    dense-equivalent by design and measures pure kernel overhead.

* ``campaign`` — eight Table 1 points serial in-process, fanned over the
  persistent worker pool (``--jobs``), and through the content-addressed
  result cache cold then warm.
* ``batch`` — the saturated Table 1 sweep as one dense scalar run per
  lane vs one :class:`~repro.vector.engine.VectorEngine` hosting every
  lane; each lane's metrics summary and arbiter state are compared
  (needs numpy).
* ``analytic`` — the surrogate's per-configuration throughput against
  the vector engine at the standard 50k-cycle budget, gated on the
  surrogate's checked-in error bounds at the calibration settings, and
  in full runs on a 1000x speedup (needs numpy).
* ``lint`` — the linter on ``src/`` and ``tests/`` against an empty vs a
  fully warm incremental cache, gated in full runs on a 5x warm
  speedup.

End-to-end workload timings are ``repobench/``'s job; this module only
proves that each fast path stays identical to its reference, and by how
much it is faster on the machine at hand.
"""

import argparse
import functools
import json
import os
import pickle
import platform
import shutil
import sys
import tempfile
import time

from repro.arbiters.registry import make_arbiter
from repro.atm.switch import OutputQueuedSwitch
from repro.bus.topology import build_single_bus_system
from repro.experiments.table1 import ARCHITECTURES, TABLE1_WEIGHTS, table1_workload
from repro.traffic.generator import PoissonGenerator, SaturatingGenerator
from repro.traffic.message import FixedWords

NUM_MASTERS = 4
OUTPUT_TEMPLATE = os.path.join("benchmarks", "perf", "BENCH_{}.json")


class Bench:
    """One benchmark: legs that do the same work by different paths.

    :param name: row label, unique within its registry entry.
    :param description: one line on what the legs run.
    :param unit: the ``work`` counter rates and speedups are taken over.
    :param legs: ordered ``(name, run)`` pairs; the first is the
        reference.  ``run()`` returns ``(fingerprint, work)``:
        ``fingerprint`` must be equal on every repeat and, unless it is
        ``None`` (timed, not compared), equal to the reference's;
        ``work`` is a dict of counters holding at least ``unit``.
    :param gate: optional ``gate(result) -> [reason, ...]`` for checks
        that are not identity checks; any reason fails the run.
    """

    def __init__(self, name, description, unit, legs, gate=None):
        self.name = name
        self.description = description
        self.unit = unit
        self.legs = tuple(legs)
        self.gate = gate


def _platform_info():
    """Host fingerprint recorded in every benchmark report header, so
    checked-in numbers can be read next to the machine they came from."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.system(),
        "release": platform.release(),
        "cpu_count": os.cpu_count(),
    }


def run_bench(spec, repeats):
    """Time ``spec``'s legs interleaved, best of ``repeats``; returns the
    spec's result record, with ``ok`` false on any failure."""
    legs = [{"name": name, "wall_seconds": None} for name, _ in spec.legs]
    prints = [None] * len(legs)
    unstable = set()
    for repeat in range(repeats):
        # Interleaved so slow drift in machine load biases every leg
        # equally instead of whichever ran last.
        for index, (name, run) in enumerate(spec.legs):
            start = time.perf_counter()
            fingerprint, work = run()
            elapsed = time.perf_counter() - start
            if repeat and fingerprint != prints[index]:
                unstable.add(name)
            prints[index] = fingerprint
            leg = legs[index]
            leg["work"] = work
            if leg["wall_seconds"] is None or elapsed < leg["wall_seconds"]:
                leg["wall_seconds"] = elapsed

    failures = [
        "{} is non-deterministic across repeats".format(name)
        for name, _ in spec.legs if name in unstable
    ]
    reference = legs[0]
    reference_rate = reference["work"][spec.unit] / reference["wall_seconds"]
    for leg, fingerprint in zip(legs, prints):
        rate = leg["work"][spec.unit] / leg["wall_seconds"]
        leg["wall_seconds"] = round(leg["wall_seconds"], 4)
        leg["per_second"] = round(rate, 1)
        leg["speedup"] = round(rate / reference_rate, 2)
        leg["identical"] = (
            None if fingerprint is None else fingerprint == prints[0]
        )
        if leg["identical"] is False:
            failures.append("{} differs from {}".format(
                leg["name"], reference["name"]
            ))
    result = {
        "name": spec.name,
        "description": spec.description,
        "unit": spec.unit,
        "legs": legs,
        "failures": failures,
    }
    if spec.gate is not None:
        failures.extend(spec.gate(result))
    result["ok"] = not failures
    return result


# -- kernel: dense vs fast -------------------------------------------------


def _fingerprint(simulator, summary):
    return pickle.dumps(
        (summary, simulator.state_dict()), protocol=pickle.HIGHEST_PROTOCOL
    )


def _lowutil_factory(index, master):
    return PoissonGenerator(
        "gen{}".format(index),
        master,
        FixedWords(4),
        0.001,
        seed=17 + index,
    )


def _saturating_factory(index, master):
    return SaturatingGenerator(
        "gen{}".format(index), master, FixedWords(8), seed=7 + index
    )


def _run_architectures(mode, cycles, generator_factory, architectures):
    """One testbed run per architecture; returns (fingerprint, work)."""
    blobs = []
    skipped = 0
    for label, arb_name, kwargs in architectures:
        arbiter = make_arbiter(
            arb_name, NUM_MASTERS, list(TABLE1_WEIGHTS), **kwargs
        )
        system, bus = build_single_bus_system(
            NUM_MASTERS, arbiter, generator_factory=generator_factory
        )
        system.simulator.mode = mode
        system.run(cycles)
        blobs.append(
            (label, _fingerprint(system.simulator, bus.metrics.summary()))
        )
        skipped += system.simulator.skipped_cycles
    work = {"cycles": cycles * len(architectures), "skipped_cycles": skipped}
    return pickle.dumps(blobs), work


def _run_table1_lowutil(mode, cycles):
    return _run_architectures(mode, cycles, _lowutil_factory, ARCHITECTURES)


def _run_table1_saturated(mode, cycles):
    return _run_architectures(mode, cycles, _saturating_factory, ARCHITECTURES)


def _run_figure8(mode, cycles):
    arbiter = make_arbiter("lottery-static", NUM_MASTERS, [1, 2, 3, 4])
    system, bus = build_single_bus_system(
        NUM_MASTERS, arbiter, generator_factory=_saturating_factory
    )
    system.simulator.mode = mode
    system.run(cycles)
    sim = system.simulator
    blob = _fingerprint(sim, bus.metrics.summary())
    return blob, {"cycles": cycles, "skipped_cycles": sim.skipped_cycles}


def _run_atm_switch(mode, cycles):
    arbiter = make_arbiter(
        "lottery-static", NUM_MASTERS, list(TABLE1_WEIGHTS)
    )
    switch = OutputQueuedSwitch(arbiter, table1_workload(), seed=1)
    switch.simulator.mode = mode
    switch.run(cycles)
    sim = switch.simulator
    blob = _fingerprint(sim, switch.bus.metrics.summary())
    return blob, {"cycles": cycles, "skipped_cycles": sim.skipped_cycles}


# (name, runner, full cycles, quick cycles, description); cycles are
# per system.
SCENARIOS = (
    (
        "table1_lowutil",
        _run_table1_lowutil,
        150000,
        20000,
        "Table 1 architectures, ~1.5% utilisation Poisson load",
    ),
    (
        "table1_saturated",
        _run_table1_saturated,
        40000,
        8000,
        "Table 1 architectures, saturating generators",
    ),
    (
        "figure8_lottery",
        _run_figure8,
        120000,
        24000,
        "Figure 8 ticket ratios (1:2:3:4), saturated lottery bus",
    ),
    (
        "atm_switch",
        _run_atm_switch,
        30000,
        6000,
        "Table 1 output-queued ATM switch (dense-equivalent workload)",
    ),
)


def _kernel_benches(quick, jobs, workdir):
    return [
        Bench(
            name, description, "cycles",
            [
                (mode, functools.partial(
                    runner, mode, quick_cycles if quick else full_cycles
                ))
                for mode in ("dense", "fast")
            ],
        )
        for name, runner, full_cycles, quick_cycles, description
        in SCENARIOS
    ]


# -- campaign: serial vs pooled vs cached ----------------------------------


def _campaign_calls(quick):
    """The benchmark campaign: Table 1 architectures x two seeds."""
    cycles = 6_000 if quick else 60_000
    calls = []
    for seed in (1, 2):
        for label, arb_name, kwargs in ARCHITECTURES:
            calls.append(
                ("{} seed{}".format(label, seed), arb_name, kwargs, cycles,
                 seed)
            )
    return calls


def _campaign_point_key(call):
    from repro.experiments.cache import cache_key

    label, arb_name, kwargs, cycles, seed = call
    return cache_key(
        "table1-point",
        {"label": label, "arbiter": arb_name, "kwargs": kwargs,
         "cycles": cycles},
        seed,
    )


def _run_campaign_cached(calls, cache):
    from repro.experiments.table1 import run_table1_point

    rows = []
    for call in calls:
        key = _campaign_point_key(call)
        record = cache.get(key)
        if record is None:
            row = run_table1_point(*call)
            cache.put(key, {"row": row})
        else:
            row = record["row"]
        rows.append(row)
    return rows


def _campaign_benches(quick, jobs, workdir):
    from repro.experiments.cache import ResultCache
    from repro.experiments.supervisor import pool_map
    from repro.experiments.table1 import run_table1_point

    calls = _campaign_calls(quick)
    cache_dir = os.path.join(workdir, "campaign-cache")

    def result(rows, **counters):
        # Rows go through JSON so cached (list) and fresh (tuple)
        # results compare by value, not container type.
        return json.dumps(rows), dict(tasks=len(calls), **counters)

    def serial():
        return result([run_table1_point(*call) for call in calls])

    def pooled():
        return result(pool_map(run_table1_point, calls, jobs=jobs),
                      jobs=jobs)

    def cached():
        cache = ResultCache(cache_dir)
        return result(_run_campaign_cached(calls, cache),
                      **cache.stats.as_dict())

    def cache_cold():
        shutil.rmtree(cache_dir, ignore_errors=True)
        return cached()

    return [
        Bench(
            "table1_points",
            "Table 1 architectures x 2 seeds, {} cycles per task".format(
                calls[0][3]
            ),
            "tasks",
            [("serial", serial), ("pooled", pooled),
             ("cache_cold", cache_cold), ("cache_warm", cached)],
        )
    ]


# -- batch: scalar dense vs vector lanes -----------------------------------


# The engine-hosted architectures of the saturated sweep: the full
# lottery family plus static priority (TDMA stays on the scalar path —
# its wheel state has no vector profile).
BATCH_ARCHITECTURES = (
    ("static priority", "static-priority", {}),
    ("LOTTERYBUS", "lottery-static", {}),
    ("lottery dynamic", "lottery-dynamic", {}),
    ("lottery compensated", "lottery-compensated", {}),
)


def _batch_lane_specs(quick):
    """The batch workload: lottery-family architectures x seeds.

    Saturated fixed-size bursts (the ``table1_saturated`` scenario,
    Table 1 weights) with a per-lane ``lfsr_seed`` so every lottery
    lane replays a different draw stream.
    """
    seeds_per_arch = 24 if quick else 96
    cycles = 2_500 if quick else 12_000
    specs = []
    for label, arb_name, kwargs in BATCH_ARCHITECTURES:
        for seed in range(1, seeds_per_arch + 1):
            lane_kwargs = dict(kwargs)
            if arb_name.startswith("lottery"):
                lane_kwargs["lfsr_seed"] = seed
            specs.append(
                ("{} seed{}".format(label, seed), arb_name, lane_kwargs)
            )
    return specs, cycles


def _batch_lane_builder(arb_name, kwargs):
    def build():
        arbiter = make_arbiter(
            arb_name, NUM_MASTERS, list(TABLE1_WEIGHTS), **kwargs
        )
        return build_single_bus_system(
            NUM_MASTERS, arbiter, generator_factory=_saturating_factory
        )

    return build


def _batch_benches(quick, jobs, workdir):
    """Raises :class:`repro.vector.VectorUnavailableError` when numpy is
    not installed — the batch benchmark has no scalar fallback to
    measure against itself."""
    from repro.core.lookup_table import (
        lookup_table_cache_stats,
        reset_lookup_table_cache,
    )
    from repro.vector import scalar_fingerprint
    from repro.vector.engine import VectorEngine
    from repro.vector.lanes import plan_lane

    specs, cycles = _batch_lane_specs(quick)
    builders = [
        (label, _batch_lane_builder(arb_name, kwargs))
        for label, arb_name, kwargs in specs
    ]
    work = {"lanes": len(builders), "cycles": len(builders) * cycles}

    def scalar_dense():
        prints = []
        for _, builder in builders:
            system, bus = builder()
            system.simulator.mode = "dense"
            system.run(cycles)
            prints.append(scalar_fingerprint(bus))
        return prints, dict(work)

    def vector():
        reset_lookup_table_cache()
        plans = [
            plan_lane(builder, label=label) for label, builder in builders
        ]
        engine = VectorEngine(plans)
        engine.run(cycles)
        prints = [engine.lane_fingerprint(lane) for lane in range(len(plans))]
        stats = lookup_table_cache_stats()
        return prints, dict(work, table_builds=stats["builds"],
                            table_hits=stats["hits"])

    return [
        Bench(
            "table1_saturated_lanes",
            "{} saturated Table 1 lanes x {} cycles".format(
                len(builders), cycles
            ),
            "cycles",
            [("scalar_dense", scalar_dense), ("vector", vector)],
        )
    ]


# -- analytic: surrogate vs simulator --------------------------------------


# The simulator side of the speed leg: the standard sweep's
# engine-hosted arbiters (see repro.experiments.runner).
_ANALYTIC_SIM_ARBITERS = (
    "static-priority",
    "lottery-static",
    "lottery-dynamic",
    "lottery-compensated",
)
_ANALYTIC_SIM_CYCLES = 50_000
_ANALYTIC_SPEEDUP_TARGET = 1000.0


def _analytic_benches(quick, jobs, workdir):
    """Raises :class:`repro.vector.VectorUnavailableError` when numpy is
    not installed — the simulator leg is the vectorized batch engine."""
    from repro.analytic import (
        CALIBRATION,
        score_grid,
        supported_arbiters,
        validate_surrogate,
    )
    from repro.vector import run_testbed_batch

    weights = tuple(CALIBRATION["weights"])
    traffic = list(CALIBRATION["traffic_classes"])
    # The full supported grid, replicated so the batch path dominates
    # fixed overheads.
    grid = [
        {
            "arbiter_name": arbiter_name,
            "traffic_class_name": traffic_name,
            "weights": weights,
        }
        for arbiter_name in supported_arbiters()
        for traffic_name in traffic
    ] * (8 if quick else 40)
    # The standard sweep grid at the standard cycle budget: what a
    # screened sweep avoids paying per screened-out configuration.
    sim_calls = [
        dict(
            arbiter_name=arbiter_name,
            traffic_class_name=traffic_name,
            weights=list(weights),
            cycles=_ANALYTIC_SIM_CYCLES,
            seed=CALIBRATION["seed"],
        )
        for arbiter_name in _ANALYTIC_SIM_ARBITERS
        for traffic_name in traffic
    ]
    if quick:
        sim_calls = sim_calls[:: len(traffic) // 3]

    def simulator():
        run_testbed_batch(sim_calls)
        return None, {"configs": len(sim_calls),
                      "cycles": len(sim_calls) * _ANALYTIC_SIM_CYCLES}

    def surrogate():
        score_grid(grid, horizon=_ANALYTIC_SIM_CYCLES)
        return None, {"configs": len(grid)}

    def gate(result):
        # --quick trims the arbiter families, not the settings: the
        # bounds are only meaningful at the cycles they were calibrated
        # for.
        families = list(supported_arbiters())
        if quick:
            families = ["lottery-static", "static-priority", "tdma"]
        validation = validate_surrogate(
            arbiters=families, backend="auto", jobs=jobs
        )
        failures = [
            "error bound violated: {}/{}".format(row["arbiter"],
                                                 row["traffic"])
            for row in validation.violations
        ]
        speedup = result["legs"][1]["speedup"]
        if not quick and speedup < _ANALYTIC_SPEEDUP_TARGET:
            failures.append("surrogate {:.0f}x below the {:.0f}x target".format(
                speedup, _ANALYTIC_SPEEDUP_TARGET
            ))
        return failures

    return [
        Bench(
            "surrogate_vs_vector",
            "score_grid vs the vector engine at {} cycles per "
            "config".format(_ANALYTIC_SIM_CYCLES),
            "configs",
            [("simulator", simulator), ("surrogate", surrogate)],
            gate,
        )
    ]


# -- lint: cold vs warm incremental cache ----------------------------------


_LINT_TARGETS = ("src", "tests")
_LINT_WARM_SPEEDUP_TARGET = 5.0


def _lint_benches(quick, jobs, workdir):
    """Cache load and save are inside the timed region on both legs —
    persistence is part of what each run costs.  The cache lives in the
    benchmark's scratch directory, so the checkout's own
    ``.lint-cache.json`` is never touched or benefited from."""
    from repro.analysis.cache import LintCache
    from repro.analysis.core import get_rules, iter_python_files, lint_paths

    rules = get_rules()
    rule_ids = [rule.id for rule in rules]
    paths = list(_LINT_TARGETS)
    files = sum(1 for _ in iter_python_files(paths))
    cache_path = os.path.join(workdir, ".lint-cache.json")

    def warm():
        cache = LintCache.load(cache_path, rule_ids)
        findings = lint_paths(paths, rules=rules, cache=cache)
        cache.save()
        fingerprint = json.dumps(
            [finding.as_dict() for finding in findings], sort_keys=True
        )
        return fingerprint, {"files": files, "findings": len(findings),
                             "cache_hits": cache.hits,
                             "cache_misses": cache.misses}

    def cold():
        if os.path.exists(cache_path):
            os.remove(cache_path)
        return warm()

    def gate(result):
        speedup = result["legs"][1]["speedup"]
        if speedup < _LINT_WARM_SPEEDUP_TARGET:
            return ["warm lint {:.1f}x below the {:.0f}x target".format(
                speedup, _LINT_WARM_SPEEDUP_TARGET
            )]
        return []

    return [
        Bench(
            "lint_tree",
            "{} files under {}, {} rules".format(
                files, "/".join(paths), len(rule_ids)
            ),
            "files",
            [("cold", cold), ("warm", warm)],
            None if quick else gate,
        )
    ]


#: name -> ``build(quick, jobs, workdir) -> [Bench, ...]``; ``workdir``
#: is a scratch directory removed after the run.
REGISTRY = {
    "kernel": _kernel_benches,
    "campaign": _campaign_benches,
    "batch": _batch_benches,
    "analytic": _analytic_benches,
    "lint": _lint_benches,
}


def _print_report(report):
    print("{} ({}, best of {}, {} cpus)".format(
        report["benchmark"], "quick" if report["quick"] else "full",
        report["repeats"], report["platform"]["cpu_count"],
    ))
    header = "{:<24} {:<13} {:>10} {:>14} {:>9} {:>6}  {}".format(
        "bench / leg", "work", "wall s", "rate /s", "speedup", "match",
        "counters",
    )
    print(header)
    print("-" * len(header))
    for result in report["results"]:
        print("{}  ({})".format(result["name"], result["description"]))
        for leg in result["legs"]:
            counters = " ".join(
                "{}={}".format(key, value)
                for key, value in leg["work"].items()
                if key != result["unit"]
            )
            match = {True: "yes", False: "NO", None: "-"}[leg["identical"]]
            print("  {:<22} {:>7} {:<5} {:>10.3f} {:>14.1f} {:>8.2f}x "
                  "{:>6}  {}".format(
                      leg["name"], leg["work"][result["unit"]],
                      result["unit"], leg["wall_seconds"],
                      leg["per_second"], leg["speedup"], match, counters,
                  ))
        for reason in result["failures"]:
            print("  FAIL: {}".format(reason))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time each engine fast path against its reference "
        "and fail unless the results are identical.",
    )
    parser.add_argument(
        "name", nargs="?", default="kernel", choices=sorted(REGISTRY),
        help="which benchmark to run (default: %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shortened workloads for CI smoke runs",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repeats per leg; best wall time is kept "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="worker processes for campaign's pooled leg and analytic's "
        "validation sweep (default: %(default)s)",
    )
    parser.add_argument(
        "--output",
        help="where to write the JSON report (default: {})".format(
            OUTPUT_TEMPLATE.format("<NAME>")
        ),
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as workdir:
        specs = REGISTRY[args.name](args.quick, args.jobs, workdir)
        results = [run_bench(spec, args.repeats) for spec in specs]
    report = {
        "benchmark": args.name,
        "quick": args.quick,
        "repeats": args.repeats,
        "jobs": args.jobs,
        "platform": _platform_info(),
        "results": results,
        "ok": all(result["ok"] for result in results),
    }
    _print_report(report)

    output = args.output or OUTPUT_TEMPLATE.format(args.name)
    out_dir = os.path.dirname(output)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print("\nwrote {}".format(output))

    if not report["ok"]:
        print("FAIL: {} — see the FAIL lines above".format(args.name),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
