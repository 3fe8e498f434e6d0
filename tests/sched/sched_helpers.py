"""Shared job factory and fleet oracle for the scheduling-subsystem tests."""

from repro.core.architectures import Architecture
from repro.core.features import WorkloadFeatures
from repro.trace.schema import JobRecord


def make_job(
    job_id,
    architecture=Architecture.SINGLE,
    num_cnodes=1,
    submit_day=0,
    weight_traffic=1e6,
):
    """One synthetic trace job with the given deployment shape."""
    features = WorkloadFeatures(
        name=f"job-{job_id}",
        architecture=architecture,
        num_cnodes=num_cnodes,
        batch_size=32,
        flop_count=1e9,
        memory_access_bytes=1e6,
        input_bytes=1e3,
        weight_traffic_bytes=(
            0.0 if architecture is Architecture.SINGLE else weight_traffic
        ),
        dense_weight_bytes=1e6,
    )
    return JobRecord(job_id=job_id, features=features, submit_day=submit_day)


def free_by_server(fleet):
    """Free GPU count per server, read from the fleet's own bytes."""
    return tuple(int(free) for free in fleet._free)
