"""The benchmark's own checks on scaled-down copies of its workloads.

Failure accounting, the same-seed determinism gate, traced-versus-untraced
parity, the tracer's clean uninstall and the agreement between
``BENCHMARK.json`` and the metrics the harness prints.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.tracer import LAYERS, Tracer, _resolve, _subclasses
from perfbench.workloads import WORKLOADS
from repro.exceptions import TrainingError

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "fleet_async": replace(
        WORKLOADS["fleet_async"], build={**WORKLOADS["fleet_async"].build, "num_workers": 40},
    ),
    "wan_sharded": replace(
        WORKLOADS["wan_sharded"], build={**WORKLOADS["wan_sharded"].build, "num_workers": 24},
    ),
    "paper_bulyan": replace(
        WORKLOADS["paper_bulyan"],
        dataset_kwargs={"num_train": 200, "num_test": 20, "image_size": 8},
        build={**WORKLOADS["paper_bulyan"].build, "model": "small-cnn",
               "model_kwargs": {"image_size": 8}},
    ),
}
SMALL = {name: replace(w, updates=3, eval_every=2, min_setups=1) for name, w in SMALL.items()}


def _starve_event_budget(trainer):
    trainer.max_events_per_update = 1


def _fail_second_update(trainer):
    run_step, calls = trainer.run_step, []

    def failing_run_step():
        calls.append(None)
        if len(calls) == 2:
            raise TrainingError("forced failure")
        return run_step()

    trainer.run_step = failing_run_step


def test_livelock_abort_is_counted_not_raised():
    result = harness.run_pass(SMALL["fleet_async"], 1, prepare=_starve_event_budget)
    assert (result.attempted, result.completed) == (3, 0)
    assert "livelocked" in result.failure

    metrics, details, problems = harness.measure(
        SMALL["fleet_async"], 1, 0.0, prepare=_starve_event_budget
    )
    assert details["failed"] == details["attempted"] == 6
    assert problems == ["no update completed (update 0: TrainingError: " + result.failure.split(": ", 2)[2] + ")"]
    assert metrics == {}


def test_failed_update_counts_against_completed_ratio():
    metrics, details, problems = harness.measure(
        SMALL["wan_sharded"], 1, 0.0, prepare=_fail_second_update
    )
    assert problems == []
    assert details["failures"] == ["update 1: TrainingError: forced failure"]
    assert (details["attempted"], details["failed"]) == (6, 4)
    assert metrics["completed_update_ratio"] == pytest.approx(2 / 6)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_is_deterministic_and_complete(name):
    metrics, details, problems = harness.measure(SMALL[name], 3, 0.0)
    assert problems == []
    assert details["passes"] >= 2 and details["failed"] == 0
    assert set(metrics) == set(harness.END_TO_END)
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_untraced(name):
    metrics, _, problems = harness.measure_traced(SMALL[name], 3, 0.0)
    assert problems == []
    assert set(metrics) == set(harness.PER_LAYER)
    assert 0.0 <= metrics["trace.unattributed_share"] < 1.0
    busy = {
        "fleet_async": ("events.host_s", "pool.host_s", "codec.host_s", "telemetry.host_s"),
        "wan_sharded": ("link.host_s", "service.host_s", "codec.host_s", "service.gather_mb"),
        "paper_bulyan": ("kernels.distance_host_s", "attacks.host_s", "gar.host_s",
                         "compute.host_s"),
    }[name]
    assert all(metrics[metric] > 0 for metric in busy)


def test_sync_events_check_catches_a_miscount():
    result = harness.run_pass(SMALL["wan_sharded"], 1)
    result.events += 1
    assert any("events" in problem for problem in harness.check(SMALL["wan_sharded"], [result]))


def test_tracer_uninstall_restores_every_original():
    def snapshot():
        seen = {}
        for hooks in LAYERS.values():
            for hook in hooks:
                module, cls = _resolve(hook.target)
                owners = _subclasses(cls) if cls is not None else [module]
                for owner in owners:
                    for name in hook.names:
                        if name in vars(owner):
                            seen[(owner, name)] = vars(owner)[name]
        return seen

    before = snapshot()
    with Tracer():
        assert snapshot() != before
    assert snapshot() == before


def test_manifest_names_every_metric_and_workload():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]} == (
        harness.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == {
        name: spec[0] for name, spec in harness.PER_LAYER.items()
    }
    assert max(m["bound"] for m in manifest["end_to_end"]) == next(
        m["bound"] for m in manifest["end_to_end"] if m["name"] == "setup_s"
    )
