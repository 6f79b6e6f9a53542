"""The datacenter fabric: a top-of-rack switch connecting cluster hosts.

One :class:`Fabric` models a ToR switch.  Every host attaches through a
:class:`FabricPort` — a full-duplex :class:`~repro.hw.devices.nic.Wire`
(40 GbE uplink by default, see ``CostModel.fabric_bps``) — and frames
hop host -> uplink -> switching core -> downlink -> host, store-and-
forward, with each wire serializing independently.  Everything runs on
the cluster's single shared simulator, so fabric contention (two
migrations squeezing through one downlink) is emergent and
deterministic.

Cross-host traffic is metered in the cluster-level
:class:`~repro.metrics.Metrics` ``cross_host`` table, keyed by
``(src_host, dst_host, kind)`` — the table stays empty on single-machine
runs, keeping the cluster layer zero-cost when unused.

Fault classes (``fabric_partition``, ``fabric_host_loss``,
``fabric_degrade``) are consulted lazily through an attached
:class:`~repro.faults.FaultInjector`, mirroring how the migration wire
consults migration-fault classes: the cluster attaches the injector to
the Fabric itself (it exposes ``sim``/``metrics`` like a Machine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional

from repro.hw.devices.nic import Packet, Wire
from repro.metrics import Metrics

__all__ = ["FabricFrame", "FabricPort", "Fabric", "UndeliverableError"]


class UndeliverableError(RuntimeError):
    """A frame could not be delivered: unknown destination, or the
    destination host is lost while the frame is in flight."""


@dataclass(slots=True)
class FabricFrame:
    """One message on the fabric (a jumbo frame / GSO burst)."""

    src: str
    dst: str
    #: Traffic class for metering: "migration", "net", or "control".
    kind: str
    size: int
    payload: Any = None
    #: Optional completion event: triggered with the frame on delivery,
    #: or with ``None`` if the frame is lost mid-flight (host loss).
    notify: Any = None


class FabricPort:
    """One host's attachment point: a full-duplex uplink wire.

    The "out" direction carries host -> switch traffic, "in" carries
    switch -> host.  ``receiver`` is the host-side consumer for
    delivered frames (installed by the cluster host; frames with no
    receiver are dropped like unconsumed NIC packets).
    """

    __slots__ = ("fabric", "host", "wire", "receiver", "frames")

    def __init__(self, fabric: "Fabric", host: str, wire: Wire) -> None:
        self.fabric = fabric
        self.host = host
        self.wire = wire
        self.receiver: Optional[Callable[[FabricFrame], None]] = None
        self.frames = {"tx": 0, "rx": 0}

    @property
    def bytes_carried(self) -> Dict[str, int]:
        return self.wire.bytes_carried


class Fabric:
    """A deterministic top-of-rack switch over the shared simulator."""

    def __init__(self, sim, costs, name: str = "tor0") -> None:
        self.sim = sim
        self.costs = costs
        self.name = name
        #: Cluster-level metrics (the ``cross_host`` table lives here).
        self.metrics = Metrics()
        self.ports: Dict[str, FabricPort] = {}
        #: Attached FaultInjector (or None): consulted for partition /
        #: host-loss / bandwidth-collapse windows.
        self.faults = None
        #: Hosts administratively dark (rebooting for a kernel upgrade):
        #: their links behave exactly like a host-loss fault window.
        #: Empty on plain clusters — zero behavior change.
        self.admin_down: set = set()
        #: Frames dropped because the destination was unknown or lost.
        self.undeliverable = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, host: str) -> FabricPort:
        """Attach ``host`` with a fresh uplink; returns its port."""
        if host in self.ports:
            raise ValueError(f"{host} already attached to {self.name}")
        wire = Wire(self.sim, self.costs.fabric_bps, self.costs.fabric_latency)
        port = FabricPort(self, host, wire)
        self.ports[host] = port
        return port

    def port(self, host: str) -> FabricPort:
        try:
            return self.ports[host]
        except KeyError:
            raise UndeliverableError(f"{host} is not attached to {self.name}")

    # ------------------------------------------------------------------
    # Fault state
    # ------------------------------------------------------------------
    def link_blocked(self, host: str) -> bool:
        """Is traffic through ``host``'s port currently impossible?
        True inside a partition window for that host's link, while the
        host itself is lost, or while an operator holds it down."""
        if host in self.admin_down:
            return True
        if self.faults is None:
            return False
        return self.faults.fabric_link_down(host) or self.faults.fabric_host_lost(
            host
        )

    def path_blocked(self, src: str, dst: str) -> bool:
        """A frame src -> dst needs both ports usable."""
        return self.link_blocked(src) or self.link_blocked(dst)

    def bandwidth_factor(self) -> float:
        if self.faults is None:
            return 1.0
        return max(0.01, self.faults.fabric_bandwidth_factor())

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, frame: FabricFrame) -> None:
        """Inject ``frame`` at the source port; it serializes on the
        uplink, crosses the switching core, serializes on the downlink,
        and lands in the destination port's receiver.

        Callers that need completion notification send a frame whose
        delivery triggers an event (see :meth:`transfer`); `send` itself
        is fire-and-forget, like a NIC tx.
        """
        src_port = self.port(frame.src)
        dst_port = self.port(frame.dst)  # fail fast on unknown dst
        factor = self.bandwidth_factor()
        # Degraded links stretch serialization: the same frame occupies
        # the (rate-renegotiated) wire longer, expressed as extra
        # on-wire bytes so Wire's busy-until bookkeeping stays exact.
        on_wire = frame.size if factor >= 1.0 else int(frame.size / factor)
        src_port.frames["tx"] += 1
        pkt = Packet(
            flow=f"{frame.src}->{frame.dst}",
            size=frame.size,
            payload=frame,
            inbound=False,  # host -> switch uses the uplink's out side
        )
        src_port.wire.transmit(
            pkt, lambda p: self._at_switch(p, dst_port, on_wire), wire_size=on_wire
        )

    def _at_switch(self, pkt: Packet, dst_port: FabricPort, on_wire: int) -> None:
        frame: FabricFrame = pkt.payload
        # Store-and-forward: the core adds a fixed latency, then the
        # frame serializes again on the destination downlink.
        def forward() -> None:
            down = Packet(
                flow=pkt.flow, size=frame.size, payload=frame, inbound=True
            )
            dst_port.wire.transmit(down, self._deliver, wire_size=on_wire)

        self.sim.call_after(self.costs.fabric_switch_latency, forward)

    def _deliver(self, pkt: Packet) -> None:
        frame: FabricFrame = pkt.payload
        if self.link_blocked(frame.dst):
            # The destination vanished while the frame was in flight.
            self.undeliverable += 1
            self.metrics.count("fabric_undeliverable")
            if frame.notify is not None:
                frame.notify.trigger(None)
            return
        port = self.ports.get(frame.dst)
        self.metrics.record_cross_host(frame.src, frame.dst, frame.kind, frame.size)
        self.metrics.count("fabric_frames")
        if port is not None:
            port.frames["rx"] += 1
            if port.receiver is not None:
                port.receiver(frame)
        if frame.notify is not None:
            frame.notify.trigger(frame)

    # ------------------------------------------------------------------
    # Blocking transfer (for generator processes)
    # ------------------------------------------------------------------
    def transfer(
        self, src: str, dst: str, size: int, kind: str, payload: Any = None
    ) -> Generator:
        """Send one frame and wait for its delivery; a process-protocol
        sub-routine (``yield from fabric.transfer(...)``).  Raises
        :class:`UndeliverableError` if either port is blocked at send
        time — callers own retry policy."""
        if self.path_blocked(src, dst):
            raise UndeliverableError(f"path {src} -> {dst} is partitioned")
        done = self.sim.event(f"fabric:{src}->{dst}")
        frame = FabricFrame(
            src=src, dst=dst, kind=kind, size=size, payload=payload, notify=done
        )
        self.send(frame)
        result = yield done
        if result is None:
            raise UndeliverableError(f"frame {src} -> {dst} lost in flight")
        return result

    def frame_cycles(
        self, size: int, src: Optional[str] = None, dst: Optional[str] = None
    ) -> int:
        """Uncontended cycles for one frame end to end (two
        serializations + propagation + switch core).  ``src``/``dst``
        are accepted for topology-aware subclasses (a spine-leaf fabric
        prices cross-rack paths differently); a single ToR ignores them.
        """
        serialization = int(size * 8 / self.costs.fabric_bps * self.sim.freq_hz)
        return (
            2 * serialization
            + 2 * self.costs.fabric_latency
            + self.costs.fabric_switch_latency
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Fabric-wide counters for reports."""
        return {
            "hosts": len(self.ports),
            "frames": int(self.metrics.events.get("fabric_frames", 0)),
            "bytes": self.metrics.cross_host_bytes(),
            "migration_bytes": self.metrics.cross_host_bytes("migration"),
            "net_bytes": self.metrics.cross_host_bytes("net"),
            "undeliverable": self.undeliverable,
        }
