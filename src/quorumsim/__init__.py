"""Deterministic discrete-event simulator for quorum-replicated key-value
stores, with data-centric (inconsistency windows, error rate, latency) and
client-centric (staleness, session guarantees) consistency analysis."""

from .clientcentric import (
    ReadVerdict,
    WriteRecord,
    build_clientcentric_report,
    clientcentric_outputs,
    commit_timestamps,
    detect_mrc,
    detect_mwc,
    detect_rywc,
    detect_wfrc,
    judge_staleness,
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
    sample,
    sample_key,
)
from .engine import (
    COMPETING_WRITES,
    INITIAL,
    LWW_ARRIVAL,
    LWW_TIMESTAMP,
    STRATEGIES,
    WRITE_SET,
    ScenarioInvalidError,
    SimulationLog,
    VersionRef,
    apply_write,
    merge_heads,
    resolve_read,
    run_simulation,
    vclock_dominates,
)
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
from .workload import ClientOverride, Request, WorkloadDriver, WorkloadSpec

__version__ = "0.1.0"
