"""Stream substrate: one-pass iteration, workload generators and datasets.

PrivHP is a data-stream algorithm, so the experiments need (a) a stream
abstraction that enforces single-pass access and measures throughput, and
(b) workloads whose skew -- the quantity ``||tail_k||_1`` that drives the
paper's approximation term -- is controllable.  Real sensitive traces are not
available offline, so :mod:`repro.stream.datasets` synthesises realistic
stand-ins (IPv4 traffic with heavy-hitter structure, clustered geo check-ins,
heavy-tailed transaction amounts); that module's docstring records the
substitution.
"""

from repro.stream.stream import DataStream, StreamStats
from repro.stream.generators import (
    available_generators,
    beta_stream,
    gaussian_mixture_stream,
    make_stream,
    sparse_cluster_stream,
    uniform_stream,
    zipf_cell_stream,
)
from repro.stream.datasets import (
    geo_checkin_stream,
    ipv4_traffic_stream,
    transaction_amount_stream,
)
from repro.stream.scenarios import (
    Scenario,
    ScenarioSpecError,
    load_scenario,
    multi_tenant_records,
    scenario_from_dict,
)

__all__ = [
    "DataStream",
    "Scenario",
    "ScenarioSpecError",
    "StreamStats",
    "available_generators",
    "beta_stream",
    "gaussian_mixture_stream",
    "geo_checkin_stream",
    "ipv4_traffic_stream",
    "load_scenario",
    "make_stream",
    "multi_tenant_records",
    "scenario_from_dict",
    "sparse_cluster_stream",
    "transaction_amount_stream",
    "uniform_stream",
    "zipf_cell_stream",
]
