"""The device seam of the :class:`~repro.engine.engine.RoundEngine`.

Every driver asks the simulated population the same five questions,
always over an index array of clients: who may train
(:meth:`~ComputeBackend.eligible_mask`), how long a workload takes and
how much charge it drains (:meth:`~ComputeBackend.run_compute`), how
long the model round trip takes (:meth:`~ComputeBackend.comm_time_s`),
what waiting at the barrier costs (:meth:`~ComputeBackend.idle`) and
how much charge is left (:meth:`~ComputeBackend.soc`).

Two populations answer them:

* :class:`~repro.fleet.store.FleetStore` — the columnar affine fleet,
  natively, as vectorized array operations (``fleet=``);
* :class:`DeviceBackend` — one :class:`~repro.device.device
  .MobileDevice` (thermal throttling, DVFS, jitter) and optionally one
  :class:`~repro.network.link.Link` per client, looped in index order
  (``devices=``/``links=``).
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, Tuple

import numpy as np

from ..device.device import MobileDevice
from ..device.workload import TrainingWorkload
from ..models.flops import model_training_flops
from ..models.network import Sequential
from ..network.link import Link

__all__ = ["ComputeBackend", "DeviceBackend"]


class ComputeBackend(Protocol):
    """Vector operations over a client population, by index array."""

    def eligible_mask(self, min_soc: float) -> np.ndarray:
        """Per-client participation gate over the whole population; a
        non-positive ``min_soc`` disables the battery check."""
        ...

    def run_compute(
        self, idx: np.ndarray, samples: np.ndarray, epochs: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Train ``samples`` samples for ``epochs`` epochs on each client
        in ``idx``: returns ``(seconds, joules_drained)``."""
        ...

    def comm_time_s(self, idx: np.ndarray, wire_mb: float) -> np.ndarray:
        """Model pull + push seconds per client in ``idx``."""
        ...

    def idle(self, idx: np.ndarray, seconds: np.ndarray) -> None:
        """Let each client in ``idx`` idle for its ``seconds``."""
        ...

    def soc(self, idx: np.ndarray) -> np.ndarray:
        """State of charge (0..1) per client in ``idx``."""
        ...


class DeviceBackend:
    """:class:`ComputeBackend` over per-client simulator objects.

    Each operation calls the objects of ``idx`` one after another, in
    index order, so every device and link advances its own state and
    jitter stream exactly as a per-client loop would. The objects are
    shared, not copied. Without ``links`` communication is free.
    """

    def __init__(
        self,
        devices: Sequence[MobileDevice],
        links: Optional[Sequence[Link]],
        model: Sequential,
        batch_size: int,
    ) -> None:
        self.devices = devices
        self.links = links
        self._flops = model_training_flops(model)
        self._model_name = model.name
        self._batch_size = batch_size

    def eligible_mask(self, min_soc: float) -> np.ndarray:
        if min_soc <= 0.0:
            return np.ones(len(self.devices), dtype=bool)
        everyone = np.arange(len(self.devices))
        mask: np.ndarray = self.soc(everyone) >= min_soc
        return mask

    def run_compute(
        self, idx: np.ndarray, samples: np.ndarray, epochs: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        seconds = np.empty(len(idx))
        joules = np.empty(len(idx))
        for i, (j, n) in enumerate(zip(idx.tolist(), samples.tolist())):
            workload = TrainingWorkload(
                flops_per_sample=self._flops,
                n_samples=n,
                batch_size=self._batch_size,
                epochs=epochs,
                model_name=self._model_name,
            )
            trace = self.devices[j].run_workload(workload, record=False)
            seconds[i] = trace.total_time_s
            joules[i] = trace.energy_j
        return seconds, joules

    def comm_time_s(self, idx: np.ndarray, wire_mb: float) -> np.ndarray:
        links = self.links
        if links is None:
            return np.zeros(len(idx))
        return np.array(
            [links[j].round_trip_time_s(wire_mb) for j in idx.tolist()],
            dtype=np.float64,
        )

    def idle(self, idx: np.ndarray, seconds: np.ndarray) -> None:
        for j, s in zip(idx.tolist(), seconds):
            self.devices[j].idle(s)

    def soc(self, idx: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (self.devices[j].battery.soc for j in idx.tolist()),
            dtype=np.float64,
            count=len(idx),
        )
