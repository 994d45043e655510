"""The benchmark's own tests.

    python3 -m pytest repobench/test_repobench.py -q

The end-to-end cases run ``run.py`` for a second or two per workload,
so the module takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import common  # noqa: E402
import dse_screened  # noqa: E402
import paper_scalar  # noqa: E402
import service_loop  # noqa: E402
from layers import PER_LAYER, Tracer  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402


def _no_step():
    pass


def _run_bench(workload, trace, seconds=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("repobench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# -- the correctness gates -------------------------------------------------


def test_pinned_digest_holds():
    outputs = paper_scalar.run_round(
        paper_scalar.prepare(paper_scalar.DEFAULT_SEED), _no_step)
    assert paper_scalar.round_digest(outputs) == paper_scalar.pinned_digest()


def test_corrupted_paper_output_fails_every_operation():
    inputs = paper_scalar.prepare(paper_scalar.DEFAULT_SEED)
    outputs = paper_scalar.run_round(inputs, _no_step)
    ledger = common.Ledger()
    for _ in range(5):
        ledger.record(True)
    outputs[0].rows[0] = ("corrupted",) + tuple(outputs[0].rows[0][1:])
    paper_scalar.gate(inputs, outputs, ledger)
    assert not ledger.correct
    assert ledger.failed == ledger.attempted == 5


def test_corrupted_confirmed_row_fails_the_dse_gate():
    inputs = dse_screened.prepare(2)
    outputs = dse_screened.run_round(inputs, _no_step)
    ledger = common.Ledger()
    ledger.record(True)
    ledger.record(True)
    for row in outputs[0].result.rows:
        row["utilization"] += 1e-12
    dse_screened.gate(inputs, outputs, ledger)
    assert not ledger.correct
    assert ledger.failed == ledger.attempted == 2


class _CorruptingClient:
    """Serves every job a wrong report and every read a 503."""

    def job(self, seed):
        return 0.01, ("job-{}".format(seed), "not the report")

    def call(self, method, *args, **kwargs):
        return 503, {"kind": "draining"}


def test_corrupted_service_reports_count_as_failed():
    import random

    ledger = common.Ledger()
    finished = [(7, "job-7", "a report")]
    service_loop.run_round(
        _CorruptingClient(), ledger, 1, 0, finished, random.Random(1),
        {"job": [], "read": []})
    expected = service_loop.JOBS_PER_ROUND + service_loop.READS_PER_ROUND
    assert ledger.attempted == expected
    assert ledger.failed == expected


def test_novel_job_seeds_never_repeat():
    seeds = {
        service_loop.job_seed(run, index, job)
        for run in range(3)
        for index in list(range(40)) + [service_loop.WARMUP_ROUND]
        for job in range(service_loop.JOBS_PER_ROUND)
    }
    assert len(seeds) == 3 * 41 * service_loop.JOBS_PER_ROUND


# -- tracing ---------------------------------------------------------------


@pytest.mark.parametrize("module,seed", [(paper_scalar, 4),
                                         (dse_screened, 4)])
def test_traced_and_untraced_outputs_match(module, seed):
    inputs = module.prepare(seed)
    plain = module.round_digests(module.run_round(inputs, _no_step))
    tracer = Tracer()
    module.install(tracer)
    try:
        traced = module.round_digests(module.run_round(inputs, _no_step))
    finally:
        tracer.restore()
    assert traced == plain
    assert tracer.counts["sim.cycles"] > 0


def test_restore_puts_every_original_back():
    from repro.experiments import runner
    from repro.sim.kernel import Simulator

    run, experiment = Simulator.__dict__["run"], runner.run_experiment
    tracer = Tracer()
    paper_scalar.install(tracer)
    assert Simulator.__dict__["run"] is not run
    tracer.restore()
    assert Simulator.__dict__["run"] is run
    assert runner.run_experiment is experiment


def test_wrappers_pass_through_in_forked_children():
    tracer = Tracer()
    wrapped = tracer.wrap("probe", lambda x: x + 1)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: the wrapper must not record anything
        os.close(read)
        result = wrapped(1)
        os.write(write, json.dumps([result, tracer.calls("probe")]).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as handle:
        result, calls = json.loads(handle.read())
    os.waitpid(pid, 0)
    assert (result, calls) == (2, 0)
    assert wrapped(1) == 2 and tracer.calls("probe") == 1


# -- the contract ----------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    out = _run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    table = PER_LAYER if trace else END_TO_END
    assert {name: unit for name, unit, _ in table} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_bench("paper-scalar", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
