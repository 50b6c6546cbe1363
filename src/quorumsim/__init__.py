"""Deterministic discrete-event simulator for quorum-replicated key-value
stores, with data-centric (inconsistency windows, error rate, latency) and
client-centric (staleness, session guarantees) consistency analysis."""

from .clientcentric import (
    ReadVerdict,
    build_clientcentric_report,
    clientcentric_outputs,
    read_verdicts,
)
from .datacentric import build_datacentric_report, op_records
from .distributions import (
    Constant,
    Empirical,
    Exponential,
    LogNormal,
    RngStream,
    StreamFactory,
    Uniform,
    UniformKeys,
    Zipfian,
)
from .engine import ScenarioInvalidError, SimulationLog, run_simulation
from .errors import MalformedLogError
from .levels import (
    ALL,
    LOCAL_ONE,
    LOCAL_QUORUM,
    ONE,
    QUORUM,
    THREE,
    TWO,
    LevelError,
    build_cooperation_model,
    is_immediately_consistent,
    parse_level,
    required_acks,
)
from .model import (
    ASYNC_EDGE,
    CRASH_RECOVERY,
    CRASH_STOP,
    READING,
    REPLICATION,
    SYNC_EDGE,
    CooperationGraph,
    CooperationModel,
    EdgeClass,
    FailureEvent,
    LatencyModel,
    QuorumSpec,
    Replica,
    ReplicaGraph,
    ValidationReport,
    Violation,
    quorum_edge,
    validate_scenario,
)
from .optable import OpRecord, OpTable, op_table
from .scenario import Scenario, ScenarioFormatError, load_scenario, scenario_from_json, scenario_to_json
from .strategies import (
    COMPETING_WRITES,
    INITIAL,
    LWW_ARRIVAL,
    LWW_TIMESTAMP,
    STRATEGIES,
    WRITE_SET,
    VersionRef,
)
from .workload import ClientOverride, Request, WorkloadDriver, WorkloadSpec

__version__ = "0.1.0"
