"""The batch backend: sweep/replication dispatch, per-point fallback,
and the numpy-less degradation paths (which run with or without numpy
installed, via the forced-unavailable test seam).
"""

import pytest

from repro.experiments.replication import run_replicated_testbed
from repro.experiments.sweep import run_sweep
from repro.vector import VectorUnavailableError, have_numpy

ARCHS = ("static-priority", "lottery-static", "lottery-compensated")
WEIGHTS = (12, 2, 6, 1)


def _force_unavailable(monkeypatch):
    monkeypatch.setattr(
        "repro.vector._compat._FORCE_UNAVAILABLE", True
    )


def test_sweep_backends_produce_identical_rows():
    pytest.importorskip("numpy")
    kwargs = dict(
        weights=WEIGHTS, cycles=1200, warmup=300, seed=3
    )
    scalar = run_sweep(ARCHS, ("T1", "T6", "T8"), backend="scalar", **kwargs)
    vector = run_sweep(ARCHS, ("T1", "T6", "T8"), backend="vector", **kwargs)
    auto = run_sweep(ARCHS, ("T1", "T6", "T8"), backend="auto", **kwargs)
    assert vector.rows == scalar.rows  # T6 exercises per-point fallback
    assert auto.rows == scalar.rows


def test_replication_backends_produce_identical_statistics():
    pytest.importorskip("numpy")
    kwargs = dict(
        seeds=range(1, 5), cycles=900, warmup=200
    )
    scalar = run_replicated_testbed(
        "lottery-compensated", "T8", list(WEIGHTS), backend="scalar",
        **kwargs
    )
    vector = run_replicated_testbed(
        "lottery-compensated", "T8", list(WEIGHTS), backend="vector",
        **kwargs
    )
    assert (
        scalar.replication.state_dict() == vector.replication.state_dict()
    )


def test_batch_points_carry_backend_attribute():
    pytest.importorskip("numpy")
    from repro.vector import run_testbed_batch

    batch = run_testbed_batch(
        [
            dict(arbiter_name="lottery-static", traffic_class_name="T8",
                 weights=list(WEIGHTS), cycles=600, seed=1),
            dict(arbiter_name="lottery-static", traffic_class_name="T6",
                 weights=list(WEIGHTS), cycles=600, seed=1),
            dict(arbiter_name="round-robin", traffic_class_name="T8",
                 weights=list(WEIGHTS), cycles=600, seed=1),
        ]
    )
    assert [result.backend for result in batch.results] == [
        "vector", "scalar", "scalar"
    ]
    assert batch.vector_points == 1 and batch.scalar_points == 2
    reasons = [reason for _, _, reason in batch.fallbacks]
    assert any("OnOffGenerator" in reason for reason in reasons)
    assert any("vector profile" in reason for reason in reasons)


def test_strict_cross_check_runs_by_default():
    pytest.importorskip("numpy")
    from repro.vector import run_testbed_batch

    batch = run_testbed_batch(
        [
            dict(arbiter_name=name, traffic_class_name="T8",
                 weights=list(WEIGHTS), cycles=500, seed=2)
            for name in ARCHS
        ]
    )
    assert len(batch.checked_labels) == batch.groups == 1


def test_auto_backend_falls_back_without_numpy(monkeypatch):
    _force_unavailable(monkeypatch)
    assert not have_numpy()
    rows = run_sweep(
        ("lottery-static",), ("T8",), weights=WEIGHTS, cycles=400,
        backend="auto",
    ).rows
    scalar = run_sweep(
        ("lottery-static",), ("T8",), weights=WEIGHTS, cycles=400,
        backend="scalar",
    ).rows
    assert rows == scalar


def test_vector_backend_raises_without_numpy(monkeypatch):
    _force_unavailable(monkeypatch)
    with pytest.raises(VectorUnavailableError):
        run_sweep(
            ("lottery-static",), ("T8",), weights=WEIGHTS, cycles=400,
            backend="vector",
        )
    with pytest.raises(VectorUnavailableError):
        run_replicated_testbed(
            "lottery-static", "T8", list(WEIGHTS), seeds=[1],
            cycles=400, backend="vector",
        )


def test_batch_raises_without_numpy(monkeypatch):
    _force_unavailable(monkeypatch)
    from repro.vector import run_testbed_batch

    with pytest.raises(VectorUnavailableError) as excinfo:
        run_testbed_batch([])
    assert "pip install .[vector]" in str(excinfo.value)


def test_bad_backend_name_is_rejected():
    with pytest.raises(ValueError):
        run_sweep(("lottery-static",), ("T8",), backend="gpu")
    with pytest.raises(ValueError):
        run_replicated_testbed(
            "lottery-static", "T8", list(WEIGHTS), backend="gpu"
        )
