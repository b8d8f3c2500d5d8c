"""Worker clusters: the execution environment seen by the tuners.

The paper's setup (§6) is a fixed cluster of 10 worker VMs plus one
orchestrator.  Traditional sampling uses a single worker; TUNA distributes
samples across all of them.  For deployment evaluation (the "apply the best
config to new systems" step) a set of *fresh* nodes is provisioned from the
same region/SKU mix, which is exactly what
:meth:`Cluster.provision_fresh_nodes` does.

A cluster may be **heterogeneous**: built from a
:class:`~repro.cloud.fleet.FleetSpec`, each worker carries its own
``(region, sku)`` assignment, so one tuning run can span regions and VM
generations.  The legacy ``(n_workers, region, sku)`` constructor is the
single-group special case and provisions bit-for-bit the same workers as
before.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cloud.fleet import FleetSpec
from repro.cloud.regions import RegionProfile, VMSku, get_region, get_sku
from repro.cloud.vm import VirtualMachine


class Cluster:
    """A named set of worker VMs, homogeneous or drawn from a mixed fleet.

    Parameters
    ----------
    n_workers:
        Number of worker nodes (the paper uses 10).  Ignored when ``fleet``
        is given — the spec then fixes the fleet size.
    region, sku:
        Region profile / SKU, by object or by name; the homogeneous
        single-group fleet.  Ignored when ``fleet`` is given.
    seed:
        Master seed; workers get independent child seeds, so two clusters
        built with the same seed contain identical nodes.
    fleet:
        Optional :class:`FleetSpec` of per-worker ``(region, sku)``
        assignments for a heterogeneous cluster.
    """

    def __init__(
        self,
        n_workers: int = 10,
        region: "RegionProfile | str" = "westus2",
        sku: "VMSku | str" = "Standard_D8s_v5",
        seed: Optional[int] = None,
        fleet: Optional[FleetSpec] = None,
    ) -> None:
        if fleet is None:
            if n_workers < 1:
                raise ValueError("a cluster needs at least one worker")
            region = get_region(region) if isinstance(region, str) else region
            sku = get_sku(sku) if isinstance(sku, str) else sku
            fleet = FleetSpec.homogeneous(n_workers, region, sku)
        self.fleet = fleet
        # Primary region/SKU: what the legacy single-environment API exposes
        # (and what homogeneous callers always meant).
        self.region = fleet.primary_region
        self.sku = fleet.primary_sku
        self._assignments = fleet.assignments
        self._seed_sequence = np.random.SeedSequence(seed)
        self._rng = np.random.default_rng(self._seed_sequence.spawn(1)[0])
        self._fresh_counter = 0
        self.workers: List[VirtualMachine] = [
            self._provision(f"worker-{i}", region=assignment[0], sku=assignment[1])
            for i, assignment in enumerate(self._assignments)
        ]

        self.clock_hours = 0.0

    # -- provisioning -------------------------------------------------------
    def _provision(
        self,
        vm_id: str,
        lifespan: str = "long",
        region: Optional[RegionProfile] = None,
        sku: Optional[VMSku] = None,
    ) -> VirtualMachine:
        child_seed = self._seed_sequence.spawn(1)[0]
        return VirtualMachine(
            vm_id=vm_id,
            sku=self.sku if sku is None else sku,
            region=self.region if region is None else region,
            lifespan=lifespan,
            seed=int(np.random.default_rng(child_seed).integers(0, 2**31 - 1)),
        )

    def provision_fresh_nodes(self, n: int, lifespan: str = "short") -> List[VirtualMachine]:
        """Provision ``n`` brand-new VMs matching the fleet's composition.

        Used for deployment evaluation: the best configuration found during
        tuning is re-run on nodes never seen during tuning (§6, "running the
        best configuration found during tuning on 10 new systems").  A
        homogeneous cluster provisions from its single region/SKU exactly as
        before; a mixed fleet cycles through its per-worker assignments so
        the deployment set mirrors the tuning environment.
        """
        if n < 1:
            raise ValueError("must provision at least one node")
        nodes = []
        for _ in range(n):
            region, sku = self._assignments[self._fresh_counter % len(self._assignments)]
            nodes.append(
                self._provision(
                    f"fresh-{self._fresh_counter}", lifespan, region=region, sku=sku
                )
            )
            self._fresh_counter += 1
        return nodes

    # -- accessors -------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def is_homogeneous(self) -> bool:
        """True when every worker shares one region and one SKU."""
        return self.fleet.is_homogeneous

    def worker(self, vm_id: str) -> VirtualMachine:
        for vm in self.workers:
            if vm.vm_id == vm_id:
                return vm
        raise KeyError(f"no worker named {vm_id!r}")

    @property
    def worker_ids(self) -> List[str]:
        return [vm.vm_id for vm in self.workers]

    def region_of(self, vm_id: str) -> str:
        """Region name of a worker (KeyError for unknown workers)."""
        return self.worker(vm_id).region.name

    def sku_of(self, vm_id: str) -> str:
        """SKU name of a worker (KeyError for unknown workers)."""
        return self.worker(vm_id).sku.name

    # -- time -------------------------------------------------------
    def advance(self, hours: float) -> None:
        """Advance the cluster-wide clock (and every worker's local clock).

        This is the clock model of the tuning loop's lockstep mode
        (``batch_size=1``): every request moves the whole cluster forward
        uniformly.  Larger batches instead drive each worker's clock along
        its own timeline (``vm.advance`` per worker) and only move the
        cluster-wide clock through :meth:`advance_clock`.
        """
        if hours < 0:
            raise ValueError("hours must be non-negative")
        self.clock_hours += hours
        for vm in self.workers:
            vm.advance(hours)

    def advance_clock(self, hours: float) -> None:
        """Advance only the cluster-wide (orchestrator) clock.

        Used by the asynchronous engine, whose per-worker clocks have already
        been moved individually along their own timelines.
        """
        if hours < 0:
            raise ValueError("hours must be non-negative")
        self.clock_hours += hours

    # -- summaries -------------------------------------------------------
    def node_factor_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-component min/mean/max of persistent node factors (debugging)."""
        summary: Dict[str, Dict[str, float]] = {}
        for component in ("cpu", "disk", "memory", "os", "cache", "network"):
            factors = [vm.node_factor(component) for vm in self.workers]
            summary[component] = {
                "min": float(np.min(factors)),
                "mean": float(np.mean(factors)),
                "max": float(np.max(factors)),
            }
        return summary

    def fleet_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-SKU worker count and baseline speed (mixed-fleet reporting)."""
        summary: Dict[str, Dict[str, float]] = {}
        for vm in self.workers:
            entry = summary.setdefault(
                vm.sku.name, {"workers": 0, "speed_factor": vm.speed_factor}
            )
            entry["workers"] += 1
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_homogeneous:
            return (
                f"Cluster(n_workers={self.n_workers}, region={self.region.name!r}, "
                f"sku={self.sku.name!r})"
            )
        return f"Cluster(n_workers={self.n_workers}, fleet={self.fleet!r})"
