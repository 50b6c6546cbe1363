"""Deterministic discrete-event simulator for quorum-replicated key-value
stores, with data-centric (inconsistency windows, error rate, latency) and
client-centric (staleness, session guarantees) consistency analysis.

Each exported name is resolved on first use, from the module that the
table below names, so importing the package (and ``quorumsim.cli``) loads
no submodule: each command loads only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names it exports here
_EXPORTS = {
    "clientcentric": "ReadVerdict build_clientcentric_report clientcentric_outputs read_verdicts",
    "datacentric": "build_datacentric_report datacentric_outputs op_records",
    "distributions": "Constant Empirical Exponential LogNormal RngStream StreamFactory Uniform UniformKeys Zipfian",
    "engine": "ScenarioInvalidError run_simulation",
    "errors": "LevelError MalformedLogError ScenarioFormatError",
    "events": "SimulationLog",
    "levels": "ALL LOCAL_ONE LOCAL_QUORUM ONE QUORUM THREE TWO"
    " build_cooperation_model is_immediately_consistent parse_level required_acks",
    "model": "ASYNC_EDGE CRASH_RECOVERY CRASH_STOP READING REPLICATION SYNC_EDGE CooperationGraph CooperationModel"
    " EdgeClass FailureEvent LatencyModel Replica ReplicaGraph ValidationReport Violation"
    " quorum_edge validate_scenario",
    "optable": "OpRecord OpTable op_table",
    "scenario": "Scenario load_scenario scenario_from_json scenario_to_json",
    "strategies": "COMPETING_WRITES LWW_ARRIVAL LWW_TIMESTAMP STRATEGIES WRITE_SET VersionRef",
    "workload": "ClientOverride Request WorkloadDriver WorkloadSpec",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later uses find it without this call
    return value


def __dir__():
    return sorted({*globals(), *__all__})
