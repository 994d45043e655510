"""``python -m repro.bench``: the shared runner on hand-built specs, and
every registered benchmark end to end on shrunk workloads."""

import itertools
import json
import os

import pytest

from repro import bench

BENCH_SOURCE = os.path.abspath(bench.__file__)


def _run(monkeypatch, tmp_path, legs, gate=None):
    """Register one spec as ``tiny``, run it; returns (status, report)."""
    spec = bench.Bench("tiny", "hand-built", "items", legs, gate)
    monkeypatch.setitem(bench.REGISTRY, "tiny",
                        lambda quick, jobs, workdir: [spec])
    output = tmp_path / "BENCH_tiny.json"
    status = bench.main(["tiny", "--repeats", "2", "--output", str(output)])
    return status, json.loads(output.read_text())


def _leg(fingerprint, items=10):
    return lambda: (fingerprint, {"items": items})


def _flaky_leg():
    counter = itertools.count()
    return lambda: (next(counter), {"items": 10})


def test_identical_legs_pass_with_the_common_schema(monkeypatch, tmp_path):
    status, report = _run(monkeypatch, tmp_path, [
        ("reference", _leg("same")),
        ("fast", _leg("same")),
        ("timed_only", _leg(None, items=20)),
    ])
    assert status == 0
    assert report["ok"] and report["benchmark"] == "tiny"
    assert report["repeats"] == 2
    assert report["platform"]["cpu_count"] == os.cpu_count()
    (result,) = report["results"]
    assert result["ok"] and result["failures"] == []
    assert result["unit"] == "items"
    assert [leg["name"] for leg in result["legs"]] == [
        "reference", "fast", "timed_only"
    ]
    assert [leg["identical"] for leg in result["legs"]] == [True, True, None]
    for leg in result["legs"]:
        assert set(leg) == {"name", "wall_seconds", "per_second",
                            "speedup", "identical", "work"}
        assert leg["wall_seconds"] >= 0 and leg["per_second"] > 0
    assert result["legs"][0]["speedup"] == 1.0


@pytest.mark.parametrize("legs, gate, reason", [
    ([("reference", _leg("a")), ("fast", _leg("b"))], None,
     "fast differs from reference"),
    ([("reference", _leg(0)), ("flaky", _flaky_leg())], None,
     "flaky is non-deterministic across repeats"),
    ([("reference", _leg("a")), ("fast", _leg("a"))],
     lambda result: ["too slow"], "too slow"),
], ids=["divergent-leg", "nondeterministic-leg", "gate-failure"])
def test_any_failure_exits_1_and_is_recorded(monkeypatch, tmp_path, capsys,
                                             legs, gate, reason):
    status, report = _run(monkeypatch, tmp_path, legs, gate)
    assert status == 1
    assert not report["ok"]
    (result,) = report["results"]
    assert not result["ok"]
    assert reason in result["failures"]
    assert "FAIL" in capsys.readouterr().err


def test_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        bench.main(["no-such-bench"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# -- every registered benchmark, shrunk through its own workload ----------


class _FakeValidation:
    """Stands in for the cross-validation sweep's report."""

    def __init__(self, ok):
        self.violations = [] if ok else [
            {"arbiter": "lottery-static", "traffic": "T8"}
        ]


def _stub_analytic(monkeypatch, ok=True):
    monkeypatch.setattr(
        "repro.analytic.validate_surrogate",
        lambda arbiters=None, backend=None, jobs=None: _FakeValidation(ok),
    )
    monkeypatch.setattr("repro.vector.run_testbed_batch", lambda calls: None)


def _shrink_kernel(monkeypatch):
    monkeypatch.setattr(bench, "SCENARIOS", tuple(
        (name, runner, full, 1500, description)
        for name, runner, full, _, description in bench.SCENARIOS
    ))


def _shrink_campaign(monkeypatch):
    original = bench._campaign_calls
    monkeypatch.setattr(
        bench, "_campaign_calls",
        lambda quick: [call[:3] + (800,) + call[4:]
                       for call in original(quick)[:3]],
    )


def _shrink_batch(monkeypatch):
    original = bench._batch_lane_specs

    def tiny_specs(quick):
        specs, _ = original(True)
        # A static-priority slice plus a static-lottery slice (the
        # latter exercises the shared lookup-table cache).
        return specs[:6] + specs[24:30], 400

    monkeypatch.setattr(bench, "_batch_lane_specs", tiny_specs)


def _shrink_lint(monkeypatch):
    monkeypatch.setattr(bench, "_LINT_TARGETS", (BENCH_SOURCE,))


SHRINK = {
    "kernel": _shrink_kernel,
    "campaign": _shrink_campaign,
    "batch": _shrink_batch,
    "analytic": _stub_analytic,
    "lint": _shrink_lint,
}
NUMPY_SPECS = {"batch", "analytic"}


def test_every_registered_benchmark_has_a_smoke_row():
    assert set(SHRINK) == set(bench.REGISTRY)


@pytest.mark.parametrize("name", sorted(SHRINK))
def test_registered_benchmark_quick_run_is_ok(monkeypatch, tmp_path, name):
    if name in NUMPY_SPECS:
        pytest.importorskip("numpy")
    SHRINK[name](monkeypatch)
    output = tmp_path / "BENCH_{}.json".format(name)
    status = bench.main([name, "--quick", "--repeats", "1", "--jobs", "2",
                         "--output", str(output)])
    report = json.loads(output.read_text())
    assert status == 0, report
    assert report["ok"] and report["benchmark"] == name and report["quick"]
    assert report["platform"]["machine"]
    for result in report["results"]:
        assert result["ok"] and result["failures"] == []
        assert result["legs"][0]["speedup"] == 1.0
        for leg in result["legs"]:
            assert leg["work"][result["unit"]] > 0
            assert leg["identical"] in (True, None)
    if name == "batch":
        vector = report["results"][0]["legs"][1]["work"]
        assert vector["lanes"] == 12 and vector["table_builds"] >= 1


def test_analytic_bound_violation_fails_the_benchmark(monkeypatch, tmp_path):
    pytest.importorskip("numpy")
    _stub_analytic(monkeypatch, ok=False)
    output = tmp_path / "BENCH_analytic.json"
    assert bench.main(["analytic", "--quick", "--repeats", "1",
                       "--output", str(output)]) == 1
    (result,) = json.loads(output.read_text())["results"]
    assert result["failures"] == [
        "error bound violated: lottery-static/T8"
    ]
