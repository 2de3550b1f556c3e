"""Timed passes over a workload, correctness checks and the reported metrics.

A *pass* builds the deployment from the seed (timed as set-up), drives
``trainer.run_step()`` for the workload's fixed number of updates with the
scheduled ``trainer.evaluate()`` calls (timed as the pass's wall time), and
reads the simulated results from ``trainer.history``.  A run repeats passes
with the same seed until its time is up, so every pass of a run must produce
the same simulated trajectory; that repetition is the benchmark's
determinism check.

Host cost is reported in *reference units*: every update's host seconds
are divided by the time of :func:`reference_s`, a fixed interpreter + NumPy
+ memory-traffic job timed right before that update.  On a shared host the
effective CPU speed drifts by 20-50% over tens of seconds to minutes
(co-tenant load), which moves raw seconds between runs far more than any
within-run statistic can absorb; the reference slows down with the machine,
so the ratio keeps the simulator's own cost.  The raw seconds are reported
alongside in the run details.  Set-up time stays in seconds (median over
the run's set-ups).

Simulated metrics (``sim_*``, ``wire_*``, accuracy) are outputs of the
deterministic cost model and repeat exactly for a seed; host metrics
(``*_ref``, ``setup_s``, RSS and the layers' ``*.host_s``) measure the
simulator itself.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.builder import build_trainer
from repro.cluster.trainer import TrainerConfig
from repro.core.base import make_gar
from repro.data.datasets import load_dataset
from repro.exceptions import TrainingError

from perfbench.tracer import COUNTERS, LAYERS, Tracer
from perfbench.workloads import Workload

#: End-to-end metrics: name -> (unit, better).  ``BENCHMARK.json`` lists the
#: same names with their regression bounds.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_ref": ("ref", "lower"),
    "update_host_ref.p50": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "grads_per_host_ref": ("1/ref", "higher"),
    "sim_s_per_update": ("sim_s", "lower"),
    "wire_mb_per_update": ("MB", "lower"),
    "sim_gar_overhead": ("ratio", "lower"),
    "completed_update_ratio": ("ratio", "higher"),
}

#: Per-layer metrics of the traced run: name -> (unit, end-to-end metric it
#: should move, workload it should move it on).
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "events.host_s": ("s/update", "update_host_s.p50", "fleet_async"),
    "events.dispatched": ("count/update", "update_host_s.p50", "fleet_async"),
    "events.tombstones": ("count/update", "update_host_s.p50", "fleet_async"),
    "codec.host_s": ("s/update", "update_host_s.p50", "fleet_async,wan_sharded"),
    "codec.rows": ("count/update", "update_host_s.p50", "fleet_async,wan_sharded"),
    "link.host_s": ("s/update", "update_host_s.p50", "wan_sharded"),
    "link.sessions": ("count/update", "update_host_s.p50", "wan_sharded"),
    "service.host_s": ("s/update", "update_host_s.p50", "wan_sharded"),
    "compute.host_s": ("s/update", "update_host_s.p50", "paper_bulyan,fleet_async"),
    "compute.samples": ("count/update", "update_host_s.p50", "paper_bulyan,fleet_async"),
    "attacks.host_s": ("s/update", "update_host_s.p50", "paper_bulyan"),
    "kernels.distance_host_s": ("s/update", "update_host_s.p50", "paper_bulyan"),
    "kernels.distance_gflop": ("GFLOP/update", "update_host_s.p50", "paper_bulyan"),
    "gar.host_s": ("s/update", "update_host_s.p50", "paper_bulyan"),
    "gar.select_host_s": ("s/update", "update_host_s.p50", "paper_bulyan"),
    "server.host_s": ("s/update", "update_host_s.p50", "paper_bulyan"),
    "pool.host_s": ("s/update", "update_host_s.p50", "fleet_async"),
    "telemetry.host_s": ("s/update", "update_host_s.p50", "fleet_async"),
    "telemetry.records": ("count/update", "update_host_s.p50", "fleet_async"),
    "eval.host_s": ("s/eval", "wall_ref", "paper_bulyan"),
    "sim.compute_comm_s": ("sim_s/update", "sim_s_per_update", "all"),
    "sim.aggregation_s": ("sim_s/update", "sim_s_per_update", "all"),
    "sim.update_s": ("sim_s/update", "sim_s_per_update", "all"),
    "sim.server_busy_fraction": ("ratio", "sim_s_per_update", "all"),
    "link.queueing_s": ("sim_s/update", "sim_s_per_update", "wan_sharded"),
    "wire.uplink_mb": ("MB/update", "wire_mb_per_update", "all"),
    "wire.downlink_mb": ("MB/update", "wire_mb_per_update", "all"),
    "service.cross_region_mb": ("MB/update", "wire_mb_per_update", "wan_sharded"),
    "service.gather_mb": ("MB/update", "wire_mb_per_update", "wan_sharded"),
    "service.gather_s": ("sim_s/update", "wire_mb_per_update", "wan_sharded"),
    "sync.stale_gradients": ("count/update", "final_accuracy", "fleet_async"),
    "sync.dropped_stragglers": ("count/update", "final_accuracy", "fleet_async"),
    "gar.byzantine_selected_ratio": ("ratio", "final_accuracy", "paper_bulyan"),
    "final_accuracy": ("ratio", "final_accuracy", "all"),
    "trace.unattributed_share": ("ratio", "update_host_ref.p50", "all"),
    "trace.overhead": ("ratio", "wall_ref", "all"),
    "trace.reference_ms": ("ms", "update_host_ref.p50", "all"),
}

_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def provenance(root: Path, workload: str, seed: int, trace: bool) -> Dict:
    """What produced a result: workload, seed, code revision and host."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode())
        source.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_revision": _git_revision(root),
        "source_sha256": source.hexdigest(),
        "host": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        },
    }


def _git_revision(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` inside *root* only."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def reference_s(repeats: int = 3) -> float:
    """Fastest of *repeats* timings of the fixed reference job, in seconds.

    The job mixes what the simulator's host time is made of: dict updates
    in the interpreter, an 8 MB array copy and reduction, a sort and a BLAS
    matrix product.  It takes about 9 ms on a 2-core x86 host.  Host-cost
    metrics divide by it, so it must never change between the revisions
    being compared.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        counts: Dict[int, int] = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        values = np.arange(1_000_000, dtype=np.float64)
        reversed_copy = values[::-1].copy()
        np.sort(reversed_copy[:50_000])
        float((values * reversed_copy).sum())
        square = values[:36_864].reshape(192, 192)
        square @ square
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class PassResult:
    """One pass: host timings, its simulated trajectory and its summaries."""

    setup_s: float
    update_s: List[float] = field(default_factory=list)
    #: reference_s() timed right before each completed update.
    ref_s: List[float] = field(default_factory=list)
    eval_s: List[float] = field(default_factory=list)
    attempted: int = 0
    completed: int = 0
    failure: Optional[str] = None
    #: (sim_time, mean_loss, wire_bytes, downlink_bytes) per completed update.
    steps: List[Tuple[float, float, float, float]] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)
    params_sha256: str = ""
    events: int = 0
    sim: Dict[str, float] = field(default_factory=dict)
    #: (compute_comm, aggregation, update, gradients aggregated) per update.
    step_costs: List[Tuple[float, float, float, int]] = field(default_factory=list)
    cost_model: object = None
    dim: int = 0
    gather_s: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return float(sum(self.update_s) + sum(self.eval_s))

    @property
    def gradients(self) -> List[int]:
        return [rows for *_, rows in self.step_costs]

    def in_ref(self, seconds: float) -> float:
        """*seconds* in units of this pass's median reference time."""
        return seconds / statistics.median(self.ref_s)

    def signature(self) -> Tuple:
        """Everything that must repeat exactly for a seed."""
        return (
            self.attempted, self.completed, self.failure, repr(self.steps),
            repr(self.accuracies), self.params_sha256, self.events,
        )


def build(workload: Workload, seed: int):
    """Generate the seed's dataset and assemble the deployment."""
    dataset = load_dataset(workload.dataset, rng=seed, **workload.dataset_kwargs)
    return build_trainer(dataset=dataset, seed=seed, **workload.build)


def timed_setup(workload: Workload, seed: int) -> float:
    gc.collect()
    start = time.perf_counter()
    build(workload, seed)
    return time.perf_counter() - start


def run_pass(
    workload: Workload,
    seed: int,
    *,
    tracer: Optional[Tracer] = None,
    prepare: Optional[Callable] = None,
) -> PassResult:
    """Build, run the workload's updates and evaluations, summarise.

    A ``TrainingError`` (including the async engine's livelock abort) or a
    diverged model ends the pass; the update that raised or diverged and
    every update after it count as failed.  *prepare* may adjust the trainer
    before the timed region; *tracer* is installed around it.
    """
    gc.collect()
    start = time.perf_counter()
    trainer = build(workload, seed)
    result = PassResult(setup_s=time.perf_counter() - start, attempted=workload.updates)
    if prepare is not None:
        prepare(trainer)
    threshold = TrainerConfig().divergence_threshold
    with tracer if tracer is not None else nullcontext():
        for index in range(workload.updates):
            ref = reference_s()
            start = time.perf_counter()
            try:
                record = trainer.run_step()
            except TrainingError as exc:
                result.failure = f"update {index}: {type(exc).__name__}: {exc}"
                break
            elapsed = time.perf_counter() - start
            params = trainer.server.parameters
            if not np.isfinite(params).all() or np.abs(params).max() > threshold:
                result.failure = f"update {index}: model diverged"
                break
            result.update_s.append(elapsed)
            result.ref_s.append(ref)
            result.completed += 1
            last = index + 1 == workload.updates
            if last or (workload.eval_every and (index + 1) % workload.eval_every == 0):
                start = time.perf_counter()
                accuracy = trainer.evaluate()
                result.eval_s.append(time.perf_counter() - start)
                result.accuracies.append(float(accuracy))
        if result.failure is not None and result.completed:
            result.accuracies.append(float(trainer.evaluate()))
    if tracer is not None:
        result.layers = {**tracer.self_s, **tracer.counters}
    _summarise(trainer, workload, result)
    return result


def _summarise(trainer, workload: Workload, result: PassResult) -> None:
    history = trainer.history
    steps = history.steps
    result.steps = [
        (r.sim_time, r.mean_loss, r.wire_bytes, r.downlink_bytes) for r in steps
    ]
    result.params_sha256 = hashlib.sha256(trainer.server.parameters.tobytes()).hexdigest()
    result.events = int(trainer.events_dispatched)
    result.step_costs = [
        (r.compute_comm_time, r.aggregation_time, r.update_time, r.gradients_received)
        for r in steps
    ]
    result.cost_model = trainer.cost_model
    result.dim = int(trainer.server.dim)
    if not steps:
        return
    updates = len(steps)
    wire = history.wire_summary()
    service = history.interserver_summary()
    latency = history.latency_breakdown()
    sync = history.sync_summary()
    selected = [w for r in steps if r.selected_workers for w in r.selected_workers]
    interserver_bytes = service["gather_bytes"] + service["replica_sync_bytes"]
    result.gather_s = service["gather_seconds"]
    mb = 1e6 * updates
    result.sim = {
        "sim_s_per_update": steps[-1].sim_time / updates,
        "wire_mb_per_update": (wire["wire_bytes"] + wire["downlink_bytes"] + interserver_bytes) / mb,
        "sim.compute_comm_s": latency["compute_comm"],
        "sim.aggregation_s": latency["aggregation"],
        "sim.update_s": latency["update"],
        "sim.server_busy_fraction": history.server_utilisation()["busy_fraction"],
        "link.queueing_s": wire["queueing_delay_seconds"] / updates,
        "wire.uplink_mb": wire["wire_bytes"] / mb,
        "wire.downlink_mb": wire["downlink_bytes"] / mb,
        "service.cross_region_mb": (service["push_cross_bytes"] + service["fetch_cross_bytes"]) / mb,
        "service.gather_mb": service["gather_bytes"] / mb,
        "service.gather_s": service["gather_seconds"] / updates,
        "sync.stale_gradients": sync["stale_gradients"] / updates,
        "sync.dropped_stragglers": sync["dropped_stragglers"] / updates,
        "gar.byzantine_selected_ratio": (
            sum(1 for w in selected if w < workload.num_byzantine) / len(selected)
            if selected else 0.0
        ),
    }


def gar_overhead(result: PassResult) -> float:
    """Simulated time per update over the same updates priced with ``average``, minus 1.

    Each update's aggregation term is replaced by
    ``CostModel.aggregation_time(average, ...)`` on a matrix of the same
    shape; the compute+communication and optimizer-update terms are kept,
    and so is a sharded service's inter-server gather, which the simulator
    charges whatever the GAR.  Under full-sync lock-step those terms do not
    depend on the GAR, so this is exactly the paper's overhead-versus-averaging
    figure.
    """
    average = make_gar("average", f=0)
    priced: Dict[int, float] = {}
    for _, _, _, rows in result.step_costs:
        if rows not in priced:
            _, priced[rows] = result.cost_model.aggregation_time(
                average, np.zeros((rows, result.dim))
            )
    actual = sum(cc + agg + upd for cc, agg, upd, _ in result.step_costs)
    twin = result.gather_s + sum(
        cc + priced[rows] + upd for cc, _, upd, rows in result.step_costs
    )
    return actual / twin - 1.0


def check(workload: Workload, passes: List[PassResult]) -> List[str]:
    """Correctness problems across a run's passes (empty when all hold)."""
    problems: List[str] = []
    reference = passes[0]
    for index, other in enumerate(passes[1:], start=1):
        if other.signature() != reference.signature():
            problems.append(f"pass {index} differs from pass 0: {_first_difference(reference, other)}")
    if not reference.completed:
        problems.append(f"no update completed ({reference.failure})")
        return problems
    times = [s[0] for s in reference.steps]
    if any(b <= a for a, b in zip(times, times[1:])) or times[0] <= 0:
        problems.append("simulated time is not strictly increasing")
    if not all(0.0 <= a <= 1.0 for a in reference.accuracies):
        problems.append(f"accuracy outside [0, 1]: {reference.accuracies}")
    if not all(s[2] > 0 for s in reference.steps):
        problems.append("an update admitted gradients with no uplink bytes")
    if not all(np.isfinite(v) for v in reference.sim.values()):
        problems.append("a simulated summary is not finite")
    if workload.lock_step:
        expected = workload.num_workers * len(reference.steps)
        if reference.events != expected:
            problems.append(f"dispatched {reference.events} events, expected n x updates = {expected}")
        if workload.build.get("sync_policy", "full-sync") == "full-sync" and any(
            r != workload.num_workers for r in reference.gradients
        ):
            problems.append("a full-sync update did not aggregate every worker's gradient")
    return problems


def _first_difference(a: PassResult, b: PassResult) -> str:
    for step, (x, y) in enumerate(zip(a.steps, b.steps)):
        if repr(x) != repr(y):
            return f"update {step}: {x} != {y}"
    for label, x, y in (
        ("updates", a.completed, b.completed), ("failure", a.failure, b.failure),
        ("accuracies", a.accuracies, b.accuracies), ("parameters", a.params_sha256, b.params_sha256),
        ("events", a.events, b.events),
    ):
        if repr(x) != repr(y):
            return f"{label}: {x} != {y}"
    return "unknown"


def _passes(
    workload: Workload, seed: int, seconds: float, kinds: List[Optional[Tracer]],
    prepare: Optional[Callable],
) -> List[Tuple[Optional[Tracer], PassResult, float]]:
    """Cycle through *kinds* of pass until the next pass would overrun *seconds*.

    Every kind runs at least once; a new pass starts only when the median
    pass so far still fits before the deadline.
    """
    deadline = time.perf_counter() + seconds
    done: List[Tuple[Optional[Tracer], PassResult, float]] = []
    while True:
        kind = kinds[len(done) % len(kinds)]
        start = time.perf_counter()
        done.append((kind, run_pass(workload, seed, tracer=kind, prepare=prepare),
                     time.perf_counter() - start))
        if len(done) < max(len(kinds), 2):
            continue
        typical = statistics.median(duration for _, _, duration in done)
        if time.perf_counter() + typical > deadline:
            return done


def _details(runs: List[PassResult]) -> Dict:
    attempted = sum(r.attempted for r in runs)
    return {
        "passes": len(runs),
        "attempted": attempted,
        "failed": attempted - sum(r.completed for r in runs),
        "failures": sorted({r.failure for r in runs if r.failure}),
    }


def measure(
    workload: Workload, seed: int, seconds: float, *, prepare: Optional[Callable] = None,
) -> Tuple[Dict, Dict, List[str]]:
    """Untraced run: the end-to-end metrics, run details and correctness problems."""
    runs = [result for _, result, _ in _passes(workload, seed, seconds, [None], prepare)]
    setups = [r.setup_s for r in runs]
    while len(setups) < workload.min_setups:
        setups.append(timed_setup(workload, seed))
    problems = check(workload, runs)
    details = dict(
        _details(runs), updates_per_pass=workload.updates,
        update_samples=sum(len(r.update_s) for r in runs), setup_samples=len(setups),
    )
    if problems:
        return {}, details, problems
    first = runs[0]
    median = statistics.median
    metrics = {
        "setup_s": median(setups),
        "wall_ref": median(r.in_ref(r.wall_s) for r in runs),
        "update_host_ref.p50": median(r.in_ref(median(r.update_s)) for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "grads_per_host_ref": median(sum(r.gradients) / r.in_ref(sum(r.update_s)) for r in runs),
        "sim_s_per_update": first.sim["sim_s_per_update"],
        "wire_mb_per_update": first.sim["wire_mb_per_update"],
        "sim_gar_overhead": gar_overhead(first),
        "completed_update_ratio": 1.0 - details["failed"] / details["attempted"],
    }
    details.update(
        final_accuracy=first.accuracies[-1],
        wall_s=median(r.wall_s for r in runs),
        update_host_s_p50=median(u for r in runs for u in r.update_s),
        grads_per_host_s=median(sum(r.gradients) / sum(r.update_s) for r in runs),
        reference_ms=1e3 * median(x for r in runs for x in r.ref_s),
    )
    return metrics, details, problems


def measure_traced(
    workload: Workload, seed: int, seconds: float, *, prepare: Optional[Callable] = None,
) -> Tuple[Dict, Dict, List[str]]:
    """Alternating untraced and traced passes: the per-layer metrics."""
    tracer = Tracer()
    done = _passes(workload, seed, seconds, [None, tracer], prepare)
    plain = [result for kind, result, _ in done if kind is None]
    traced = [result for kind, result, _ in done if kind is not None]
    problems = check(workload, plain + traced)
    details = dict(_details(plain + traced), traced_passes=len(traced))
    if problems:
        return {}, details, problems
    metrics = {
        name: statistics.median(_layer_metrics(r)[name] for r in traced)
        for name in _layer_metrics(traced[0])
    }
    metrics.update((name, value) for name, value in traced[0].sim.items() if name in PER_LAYER)
    metrics["final_accuracy"] = traced[0].accuracies[-1]
    metrics["trace.overhead"] = (
        statistics.median(r.in_ref(r.wall_s) for r in traced)
        / statistics.median(r.in_ref(r.wall_s) for r in plain)
    )
    return metrics, details, problems


def _layer_metrics(result: PassResult) -> Dict[str, float]:
    """One traced pass's layer self times and counters, per update."""
    updates = result.completed
    metrics = {name: result.layers.get(name, 0.0) / updates for name in [*LAYERS, *COUNTERS]}
    metrics["eval.host_s"] = result.layers.get("eval.host_s", 0.0) / max(len(result.eval_s), 1)
    metrics["events.dispatched"] = result.events / updates
    metrics["trace.unattributed_share"] = (
        1.0 - sum(result.layers.get(layer, 0.0) for layer in LAYERS) / result.wall_s
    )
    metrics["trace.reference_ms"] = 1e3 * statistics.median(result.ref_s)
    return metrics
