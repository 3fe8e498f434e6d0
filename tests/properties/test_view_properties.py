"""Property tests: lazy ``FeatureView`` rows are bit-identical twins.

A :class:`~repro.core.population.FeatureView` must be indistinguishable
from the eager :class:`~repro.core.features.WorkloadFeatures` it
shadows -- every schema field, every derived property, and the record
it materializes.  Hypothesis drives arbitrary valid feature tuples
through both backing sources: columns packed from objects
(:meth:`FeatureArrays.from_workloads`) and columns decoded from an
on-disk columnar store.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architectures import Architecture
from repro.core.features import FEATURE_FIELDS, WorkloadFeatures
from repro.core.population import FeatureArrays, FeatureView
from repro.trace.columnar import ColumnarTrace, write_columnar
from repro.trace.schema import JobRecord

positive = st.floats(min_value=1.0, max_value=1e15)
non_negative = st.floats(min_value=0.0, max_value=1e12)


@st.composite
def workload(draw):
    architecture = draw(st.sampled_from(list(Architecture)))
    num_cnodes = draw(
        st.integers(
            min_value=1, max_value=min(architecture.max_local_cnodes, 128)
        )
    )
    if architecture is Architecture.SINGLE:
        weight_traffic = 0.0
        embedding_traffic = 0.0
    else:
        weight_traffic = draw(positive)
        embedding_traffic = draw(
            st.floats(min_value=0.0, max_value=weight_traffic)
        )
    return WorkloadFeatures(
        name=draw(st.text(min_size=1, max_size=24)),
        architecture=architecture,
        num_cnodes=num_cnodes,
        batch_size=draw(st.integers(min_value=1, max_value=65536)),
        flop_count=draw(positive),
        memory_access_bytes=draw(positive),
        input_bytes=draw(non_negative),
        weight_traffic_bytes=weight_traffic,
        embedding_traffic_bytes=embedding_traffic,
        dense_weight_bytes=draw(non_negative),
        embedding_weight_bytes=draw(non_negative),
    )


def _assert_view_is_twin(view, features):
    # Every schema field, bit for bit (floats compared by equality,
    # which for the columnar round trip means identical bits).
    for field_name in FEATURE_FIELDS:
        assert getattr(view, field_name) == getattr(features, field_name), (
            field_name
        )
        observed = getattr(view, field_name)
        assert type(observed) is type(getattr(features, field_name)), (
            field_name
        )
    # Derived properties route through the same columns.
    assert view.weight_bytes == features.weight_bytes
    assert view.dense_traffic_bytes == features.dense_traffic_bytes
    assert view.local_cnodes_per_server == features.local_cnodes_per_server
    # Materialization reconstructs the exact frozen dataclass.
    materialized = view.materialize()
    assert type(materialized) is WorkloadFeatures
    assert materialized == features


@settings(max_examples=40, deadline=None)
@given(st.lists(workload(), min_size=1, max_size=30))
def test_views_over_object_packed_columns(population):
    arrays = FeatureArrays.from_workloads(population)
    views = list(arrays.iter_views())
    assert len(views) == len(population)
    for view, features in zip(views, population):
        assert isinstance(view, FeatureView)
        _assert_view_is_twin(view, features)


@settings(max_examples=15, deadline=None)
@given(st.lists(workload(), min_size=1, max_size=30))
def test_views_over_columnar_store(tmp_path_factory, population):
    path = tmp_path_factory.mktemp("views") / "trace.columnar"
    records = [
        JobRecord(job_id=i, features=f, submit_day=i % 5)
        for i, f in enumerate(population)
    ]
    write_columnar(records, path, shard_rows=7)
    store = ColumnarTrace.open(path)
    views = list(store.feature_arrays().iter_views())
    assert len(views) == len(population)
    for view, features in zip(views, population):
        _assert_view_is_twin(view, features)
    # Full job views too: scheduling metadata plus feature equality.
    for job_view, record in zip(store.iter_views(), records):
        assert job_view.job_id == record.job_id
        assert job_view.features.materialize() == record.features
        assert job_view.submit_day == record.submit_day
        assert job_view.user_group == record.user_group
        assert job_view.workload_type is record.workload_type
        assert job_view.num_cnodes == record.num_cnodes


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_view_gather_rebuilds_identical_columns(data):
    """``from_workloads`` over views (the fast gather path) must equal
    the arrays built from the eager objects, column for column."""
    import dataclasses

    import numpy as np

    population = data.draw(st.lists(workload(), min_size=1, max_size=20))
    order = data.draw(st.permutations(range(len(population))))
    arrays = FeatureArrays.from_workloads(population)
    views = [arrays.view(i) for i in order]
    gathered = FeatureArrays.from_workloads(views)
    eager = FeatureArrays.from_workloads([population[i] for i in order])
    for field in dataclasses.fields(FeatureArrays):
        ours = np.asarray(getattr(gathered, field.name))
        theirs = np.asarray(getattr(eager, field.name))
        assert ours.dtype == theirs.dtype, field.name
        assert ours.tobytes() == theirs.tobytes(), field.name
