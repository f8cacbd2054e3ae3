"""Workload generation: uniform, Zipfian/YCSB and dynamic schedules."""

from repro.workload.dynamic import (
    DynamicWorkload,
    WorkloadPhase,
    paper_dynamic_workload,
)
from repro.workload.spec import (
    OP_LOOKUP,
    OP_RANGE,
    OP_UPDATE,
    Mission,
    WorkloadSpec,
    mission_from_mix,
)
from repro.workload.uniform import UniformWorkload
from repro.workload.ycsb import YCSBWorkload
from repro.workload.zipf import ZipfianSampler

__all__ = [
    "Mission",
    "WorkloadSpec",
    "mission_from_mix",
    "OP_LOOKUP",
    "OP_UPDATE",
    "OP_RANGE",
    "UniformWorkload",
    "YCSBWorkload",
    "ZipfianSampler",
    "DynamicWorkload",
    "WorkloadPhase",
    "paper_dynamic_workload",
]
