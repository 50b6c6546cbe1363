"""The names that the engine and the log readers share: event kinds, op
kinds, the ``SimulationLog`` shape and ``gc_paused``.

This module imports nothing else from the package. The engine writes these
names and the reader, the op table and both analyses read them, so each of
those layers can load them without loading the others: ``analyze`` loads no
simulator module and ``validate`` no analysis module.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass

# Op kinds.
READ = "read"
WRITE = "write"

# Event kinds, in the order they may appear for one op.
OP_START = "op_start"
GRAPH_CHOSEN = "graph_chosen"
APPLY_START = "apply_start"
APPLY_END = "apply_end"
ACK = "ack_received"
READ_RETURN = "read_return"
OP_COMMIT = "op_commit"
OP_FAIL = "op_fail"
REPLICA_DOWN = "replica_down"
REPLICA_UP = "replica_up"


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for the block.

    Simulation and analysis allocate millions of cycle-free tuples, so
    generational GC passes are pure overhead there. Nested use leaves the
    collector as the outermost block found it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class SimulationLog:
    """The totally ordered Stage-1 event stream plus run metadata.

    events are tuples (seq, time_us, op_id, kind, payload); payload layouts:
      op_start      (client_id, op_kind, key, write_id, payload_bytes, warmup, vclock)
      graph_chosen  (graph_id,)
      apply_start   (replica,)
      apply_end     (replica, write_id) for writes; (replica, value_write_ids) for reads
      ack_received  (parent, child)
      read_return   (participants, returned_refs)
      op_commit     (latency_us,)
      op_fail       (reason,)
      replica_down / replica_up  (replica,)

    final_stores maps replica -> key -> canonical state (diagnostic; not part
    of the serialized log).
    """

    meta: dict
    events: list
    final_stores: dict
