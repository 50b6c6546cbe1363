"""Closed-loop simulated clients emitting timestamped read/write requests.

Each client keeps at most one request outstanding: the next request is drawn
only when the previous one has committed or failed, which keeps every client
session well ordered for the per-client consistency analysis. Client clocks
are the virtual clock itself, so a write's client timestamp is its issue time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .events import READ, WRITE

if TYPE_CHECKING:
    from .distributions import Distribution, KeyDistribution


@dataclass(frozen=True)
class ClientOverride:
    """Optional per-client deviations from the shared workload parameters.

    Needed to script deterministic mixed workloads (e.g. one pure writer and
    one pure reader) that a single shared read_ratio cannot express.
    """

    client_id: int
    read_ratio: float | None = None
    think_time: Distribution | None = None
    ops_per_client: int | None = None


@dataclass(frozen=True)
class WorkloadSpec:
    n_clients: int
    ops_per_client: int
    read_ratio: float
    think_time: Distribution
    keys: KeyDistribution
    write_payload_bytes: Distribution
    read_request_bytes: int = 64
    warmup_ops: int = 0
    overrides: tuple[ClientOverride, ...] = ()

    def problems(self) -> list[str]:
        out = []
        if self.n_clients < 1:
            out.append(f"n_clients {self.n_clients} < 1")
        if self.ops_per_client < 0:
            # zero is allowed: an empty workload exercises failure schedules alone
            out.append(f"ops_per_client {self.ops_per_client} < 0")
        if not 0.0 <= self.read_ratio <= 1.0:
            out.append(f"read_ratio {self.read_ratio} outside [0, 1]")
        if self.read_request_bytes < 0:
            out.append(f"read_request_bytes {self.read_request_bytes} < 0")
        if self.warmup_ops < 0:
            out.append(f"warmup_ops {self.warmup_ops} < 0")
        for p in self.think_time.problems():
            out.append(f"think_time: {p}")
        for p in self.keys.problems():
            out.append(f"keys: {p}")
        for p in self.write_payload_bytes.problems():
            out.append(f"write_payload_bytes: {p}")
        for ov in self.overrides:
            if not 0 <= ov.client_id < self.n_clients:
                out.append(f"override names unknown client {ov.client_id}")
            if ov.read_ratio is not None and not 0.0 <= ov.read_ratio <= 1.0:
                out.append(f"override read_ratio {ov.read_ratio} outside [0, 1]")
            if ov.ops_per_client is not None and ov.ops_per_client < 1:
                out.append(f"override ops_per_client {ov.ops_per_client} < 1")
            if ov.think_time is not None:
                for p in ov.think_time.problems():
                    out.append(f"override think_time: {p}")
        ids = [ov.client_id for ov in self.overrides]
        for cid in sorted({c for c in ids if ids.count(c) > 1}):
            out.append(f"overrides name client {cid} more than once")
        return out


@dataclass(slots=True)
class Request:
    op_id: int
    client_id: int
    kind: str  # READ | WRITE
    key: int
    issue_time: int  # also a write's client timestamp: clocks are perfectly synchronized
    payload_bytes: int
    write_id: int | None = None
    warmup: bool = False
    # The engine runs the request as its op and sets these when it issues it.
    graph: object = None  # the cooperation graph it travels, compiled for the run
    ref: object = None  # a write's VersionRef
    terminal: bool = False  # its commit or failure is logged
    vstate: dict | None = None  # vertex -> its traversal state


@dataclass
class _ClientState:
    client_id: int
    read_ratio: float
    think_draw: object
    ops_total: int
    issued: int = 0


class WorkloadDriver:
    """Allocates op/write ids and produces each client's next request.

    Draw order per request (one labeled stream each, exactly one 64-bit word
    per draw): think time, read/write coin, key, then payload size for writes.
    """

    def __init__(self, spec: WorkloadSpec, streams):
        self.spec = spec
        think_stream = streams.stream("arrivals")
        self._coin = streams.stream("op_kind").uniform
        self._key_draw = spec.keys.sampler(streams.stream("keys"))
        self._payload_draw = spec.write_payload_bytes.sampler(streams.stream("payload"))
        self._next_op_id = 0
        self._next_write_id = 0
        overrides = {ov.client_id: ov for ov in spec.overrides}
        self.clients = []
        for cid in range(spec.n_clients):
            ov = overrides.get(cid)
            think = ov.think_time if ov and ov.think_time is not None else spec.think_time
            self.clients.append(
                _ClientState(
                    client_id=cid,
                    read_ratio=ov.read_ratio if ov and ov.read_ratio is not None else spec.read_ratio,
                    think_draw=think.sampler(think_stream),
                    ops_total=ov.ops_per_client if ov and ov.ops_per_client is not None else spec.ops_per_client,
                )
            )

    def next_request(self, client_id: int, now: int) -> Request | None:
        """The client's next request, issued at now + think; None once done."""
        state = self.clients[client_id]
        if state.issued >= state.ops_total:
            return None
        issue = now + state.think_draw()
        kind = READ if self._coin() < state.read_ratio else WRITE
        key = self._key_draw()
        if kind == WRITE:
            write_id = self._next_write_id
            self._next_write_id += 1
            payload = self._payload_draw()
        else:
            write_id = None
            payload = self.spec.read_request_bytes
        op_id = self._next_op_id
        self._next_op_id += 1
        warmup = state.issued < self.spec.warmup_ops
        state.issued += 1
        return Request(op_id, client_id, kind, key, issue, payload, write_id, warmup)
