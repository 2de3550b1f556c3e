"""The benchmark's workloads: deployment properties only.

A workload names a dataset generator and the ``build_trainer`` arguments of
one deployment (worker count, declared ``f``, model, GAR, attack, mode,
synchrony policy, codecs, links, server topology).  It never sets the flags
that choose between equivalent implementations (``vectorized``,
``compute_mode``, ``gar_selection``, ``compact_telemetry``), so every run
measures the production defaults.  The seed is the only other input: it
drives the dataset draw and the deployment's master seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class Workload:
    """One benchmark deployment and the shape of one timed pass over it."""

    name: str
    why: str
    dataset: str
    dataset_kwargs: Dict = field(default_factory=dict)
    build: Dict = field(default_factory=dict)
    #: Model updates per pass; every pass of a run repeats the same seed.
    updates: int = 10
    #: Evaluate every this many updates (0: only the final evaluation).
    eval_every: int = 0
    #: Fewest set-ups a run times, for a steady ``setup_s`` median.
    min_setups: int = 10

    @property
    def num_workers(self) -> int:
        return int(self.build["num_workers"])

    @property
    def num_byzantine(self) -> int:
        return int(self.build.get("num_byzantine", 0))

    @property
    def lock_step(self) -> bool:
        return self.build.get("mode", "sync") == "sync"


WORKLOADS: Dict[str, Workload] = {
    "paper_bulyan": Workload(
        name="paper_bulyan",
        why=(
            "the paper's regime: n=19, f=4 sign-flip attackers, Bulyan on the "
            "1.75M-parameter Table-1 CNN; host time is CNN compute and the GAR"
        ),
        dataset="synthetic-cifar",
        dataset_kwargs={"num_test": 100},
        build={
            "model": "cifar-cnn",
            "gar": "bulyan",
            "num_workers": 19,
            "num_byzantine": 4,
            "declared_f": 4,
            "attack": "sign-flip",
            "batch_size": 2,
        },
        updates=2,
        eval_every=0,
        min_setups=3,
    ),
    "fleet_async": Workload(
        name="fleet_async",
        why=(
            "2,000 async workers under a quorum, top-k/8 uplink, d=55: ~8,000 "
            "events per update through the event queue, admission pool, codec "
            "and telemetry"
        ),
        dataset="blobs",
        dataset_kwargs={"num_train": 2000, "num_classes": 5, "dim": 10},
        build={
            "model": "logistic",
            "model_kwargs": {"input_dim": 10, "num_classes": 5},
            "gar": "median",
            "num_workers": 2000,
            "declared_f": 2,
            "batch_size": 2,
            "codec": "top-k",
            "codec_k": 8,
            "mode": "async",
            "sync_policy": "quorum",
        },
        updates=10,
        eval_every=10,
    ),
    "wan_sharded": Workload(
        name="wan_sharded",
        why=(
            "400 lock-step workers on a fair-shared 4-region WAN with "
            "region-sharded servers and top-k/64 delta broadcasts: the links "
            "and the service dominate simulated time"
        ),
        dataset="blobs",
        dataset_kwargs={"num_train": 2000, "num_classes": 20, "dim": 100},
        build={
            "model": "logistic",
            "model_kwargs": {"input_dim": 100, "num_classes": 20},
            "gar": "median",
            "num_workers": 400,
            "declared_f": 2,
            "batch_size": 2,
            "codec": "identity",
            "link_profile": "wan:4x10mbit/20ms",
            "link_sharing": "fair",
            "server_topology": "region-sharded",
            "broadcast_codec": "top-k",
            "broadcast_k": 64,
        },
        updates=20,
        eval_every=10,
    ),
}
