"""Population-level aggregation of per-job breakdowns (Sec. III).

The paper reports two aggregation levels throughout Figs. 5, 7 and 8:

* **job-level** -- every job counts once;
* **cNode-level** -- every job is weighted by its cNode count, so the
  view reflects where the cluster's GPUs actually spend their time.

The cNode-level percentages of Fig. 7 are "computed as weighted sum of
the job-level percentages, with the weight being the cNode number of
each job over the overall cNode number".

Every aggregate is computed columns-first: :class:`FeatureArrays` holds
a population as one NumPy array per feature, :func:`batch_breakdowns`
evaluates the Sec. II-B model over it with one vector operation per
model term, and :class:`PopulationBreakdown`'s methods reduce the
per-job arrays to the figure statistics.  The per-job model
(:func:`repro.core.timemodel.estimate_breakdown`) stays the single-job
API; the tests apply it job by job as the oracle these arrays must
match to 1e-9 relative.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .architectures import MEDIA_GPU_FLOPS, MEDIA_GPU_MEMORY, Architecture
from .efficiency import PAPER_DEFAULT_EFFICIENCY, EfficiencyModel
from .features import FEATURE_FIELDS, WorkloadFeatures
from .hardware import HardwareConfig
from .timemodel import PAPER_MODEL_OPTIONS, ModelOptions, OverlapMode

__all__ = [
    "COMPONENT_KEYS",
    "HARDWARE_KEYS",
    "FeatureArrays",
    "FeatureView",
    "PopulationBreakdown",
    "batch_breakdowns",
    "batch_step_times",
    "batch_projection_speedups",
]

#: The four logical execution-time components (Figs. 7 and 8(b-d)).
COMPONENT_KEYS: Tuple[str, ...] = (
    "data_io",
    "weight",
    "compute_bound",
    "memory_bound",
)

#: The hardware components of the Fig. 8(a) view.
HARDWARE_KEYS: Tuple[str, ...] = (
    "GPU_FLOPs",
    "GPU_memory",
    "PCIe",
    "Ethernet",
    "NVLink",
)


#: Architectures in a fixed order so populations can be encoded as codes.
_ARCHITECTURES: Tuple[Architecture, ...] = tuple(Architecture)
_ARCH_CODE: Dict[Architecture, int] = {
    arch: code for code, arch in enumerate(_ARCHITECTURES)
}

# Per-architecture lookup tables (indexed by population arch code) for
# the deployment-derived columns.  They vectorize the corresponding
# ``WorkloadFeatures`` properties so a columnar store can become a
# population without instantiating a single record.
_ARCH_PACKS_SERVERS = np.array(
    [
        arch in (Architecture.PEARL, Architecture.ALLREDUCE_CLUSTER)
        for arch in _ARCHITECTURES
    ]
)
_ARCH_IS_LOCAL = np.array([arch.is_local for arch in _ARCHITECTURES])
_ARCH_CONTENDS = np.array(
    [arch.input_contends_for_pcie for arch in _ARCHITECTURES]
)
_ARCH_MAX_LOCAL = np.array(
    [arch.max_local_cnodes for arch in _ARCHITECTURES], dtype=np.int64
)
_GPUS_PER_SERVER = 8

#: The columns :meth:`FeatureArrays.from_columnar` requires, each with
#: the dtype it is read as.
_REQUIRED_COLUMNS: Dict[str, type] = {
    "architecture": np.int64,
    "num_cnodes": np.int64,
    "batch_size": np.int64,
    "flop_count": float,
    "memory_access_bytes": float,
    "input_bytes": float,
    "weight_traffic_bytes": float,
    "embedding_traffic_bytes": float,
}

#: One row's schema field values, as a tuple in ``FEATURE_FIELDS`` order.
_SCHEMA_FIELDS = operator.attrgetter(*FEATURE_FIELDS)


@dataclass(frozen=True)
class FeatureArrays:
    """A workload population as columns (one NumPy array per feature).

    Extracting the columns costs one Python pass over the population;
    every subsequent model evaluation (a hardware sweep candidate, a
    projection, an efficiency perturbation) is pure array math.  All
    arrays share the same length and order as the source population.

    The three trailing columns (``names`` and the at-rest weight sizes)
    are not consumed by the analytical model; they exist so a row can be
    reconstructed losslessly as a :class:`FeatureView` (:meth:`view`,
    :meth:`iter_views`).  Both constructors populate them; hand-built
    instances may leave them ``None``, in which case :meth:`view`
    refuses rather than inventing field values.
    """

    arch_codes: np.ndarray
    num_cnodes: np.ndarray
    batch_size: np.ndarray
    flop_count: np.ndarray
    memory_access_bytes: np.ndarray
    input_bytes: np.ndarray
    weight_traffic_bytes: np.ndarray
    dense_traffic_bytes: np.ndarray
    embedding_traffic_bytes: np.ndarray
    local_cnodes: np.ndarray
    contends_for_pcie: np.ndarray
    names: Optional[np.ndarray] = field(default=None, repr=False)
    dense_weight_bytes: Optional[np.ndarray] = field(default=None, repr=False)
    embedding_weight_bytes: Optional[np.ndarray] = field(
        default=None, repr=False
    )

    @staticmethod
    def from_workloads(
        workloads: Iterable[WorkloadFeatures],
    ) -> "FeatureArrays":
        """Extract columns from a sequence of feature records.

        Accepts eager :class:`WorkloadFeatures` and lazy
        :class:`FeatureView` rows interchangeably.  When every element
        is a view over the *same* backing :class:`FeatureArrays`, the
        extraction collapses to one fancy-indexing gather per column --
        no per-row attribute access at all.  Otherwise the eleven schema
        fields are gathered into columns and handed to
        :meth:`from_columnar`, the one place that derives, validates
        and encodes them.
        """
        population = list(workloads)
        if not population:
            raise ValueError("workload population is empty")
        if isinstance(population[0], FeatureView):
            backing = population[0]._arrays
            if all(
                isinstance(f, FeatureView) and f._arrays is backing
                for f in population
            ):
                return backing.take(
                    np.fromiter(
                        (f._index for f in population),
                        dtype=np.int64,
                        count=len(population),
                    )
                )
        columns = dict(
            zip(FEATURE_FIELDS, zip(*map(_SCHEMA_FIELDS, population)))
        )
        columns["architecture"] = [
            _ARCH_CODE[arch] for arch in columns["architecture"]
        ]
        return FeatureArrays.from_columnar(columns)

    @staticmethod
    def from_columnar(
        columns: Dict[str, Sequence],
        architectures: Sequence[Architecture] = _ARCHITECTURES,
    ) -> "FeatureArrays":
        """Build a population directly from feature columns.

        The zero-materialization path for columnar trace stores
        (:mod:`repro.trace.columnar`): ``columns`` maps column names to
        equal-length arrays (or sequences), with ``"architecture"``
        holding integer codes into ``architectures`` (the store's label
        table).  No ``WorkloadFeatures`` objects are created; the
        per-record ``__post_init__`` invariants are enforced vectorized
        instead, and the derived columns (``dense_traffic_bytes``,
        ``local_cnodes``, ``contends_for_pcie``) are computed here and
        nowhere else -- :meth:`from_workloads` delegates to this.

        The optional ``name``, ``dense_weight_bytes`` and
        ``embedding_weight_bytes`` columns, when present, are carried
        through so rows can be materialized as :class:`FeatureView`
        objects without touching the store again.

        Columns may be memory-mapped; they are never written to.
        """
        missing = [name for name in _REQUIRED_COLUMNS if name not in columns]
        if missing:
            raise KeyError(f"missing columns: {', '.join(missing)}")

        def _reject(mask: np.ndarray, message: str) -> None:
            if mask.any():
                raise ValueError(f"row {int(np.argmax(mask))}: {message}")

        def _read(name: str, dtype: type) -> np.ndarray:
            column = np.asarray(columns[name])
            if column.dtype.kind == "f" and dtype is not float:
                # NaN and inf have no integer value: the cast would
                # invent one.
                _reject(~np.isfinite(column), f"{name} must be finite")
            return np.asarray(column, dtype=dtype)

        required = {
            name: _read(name, dtype) for name, dtype in _REQUIRED_COLUMNS.items()
        }
        store_codes = required["architecture"]
        count = int(store_codes.shape[0])
        if count == 0:
            raise ValueError("workload population is empty")
        for name, column in required.items():
            if column.shape[0] != count:
                raise ValueError(
                    f"column {name!r} has {column.shape[0]} rows, "
                    f"expected {count}"
                )
        translation = np.array(
            [_ARCH_CODE[arch] for arch in architectures], dtype=np.int64
        )
        if store_codes.min() < 0 or store_codes.max() >= len(translation):
            raise ValueError(
                "architecture code out of range for the given label table"
            )
        arch_codes = translation[store_codes]
        num_cnodes = required["num_cnodes"]
        batch_size = required["batch_size"]
        weight_traffic = required["weight_traffic_bytes"]
        embedding_traffic = required["embedding_traffic_bytes"]

        _reject(num_cnodes < 1, "num_cnodes must be at least 1")
        _reject(batch_size < 1, "batch_size must be at least 1")
        optional = {
            name: np.asarray(columns[name], dtype=float)
            for name in ("dense_weight_bytes", "embedding_weight_bytes")
            if columns.get(name) is not None
        }
        for name, column in {**required, **optional}.items():
            if column.dtype.kind == "f":
                _reject(
                    ~((0.0 <= column) & (column < np.inf)),
                    f"{name} must be finite and non-negative",
                )
        _reject(
            embedding_traffic > weight_traffic,
            "embedding_traffic_bytes cannot exceed weight_traffic_bytes",
        )
        single = arch_codes == _ARCH_CODE[Architecture.SINGLE]
        _reject(single & (num_cnodes != 1), "1w1g workloads use exactly one cNode")
        _reject(
            single & (weight_traffic != 0),
            "1w1g workloads exchange no weights",
        )
        _reject(
            _ARCH_IS_LOCAL[arch_codes]
            & (num_cnodes > _ARCH_MAX_LOCAL[arch_codes]),
            "num_cnodes exceeds the architecture's local-cNode bound",
        )
        names = columns.get("name")
        if names is not None and not (
            isinstance(names, np.ndarray) and names.dtype.kind == "S"
        ):
            # Fixed-width bytes with the columnar store's 0x01
            # terminator, because NumPy S dtypes strip trailing NULs.
            # Encode element by element: a unicode array strips them too.
            encoded = [str(n).encode("utf-8") + b"\x01" for n in names]
            width = max(max(map(len, encoded), default=0), 1)
            names = np.array(encoded, dtype=np.dtype(f"S{width}"))
        local_cnodes = np.where(
            _ARCH_PACKS_SERVERS[arch_codes],
            np.minimum(num_cnodes, _GPUS_PER_SERVER),
            np.where(_ARCH_IS_LOCAL[arch_codes], num_cnodes, 1),
        )
        return FeatureArrays(
            arch_codes=arch_codes,
            num_cnodes=num_cnodes,
            batch_size=batch_size,
            flop_count=required["flop_count"],
            memory_access_bytes=required["memory_access_bytes"],
            input_bytes=required["input_bytes"],
            weight_traffic_bytes=weight_traffic,
            dense_traffic_bytes=weight_traffic - embedding_traffic,
            embedding_traffic_bytes=embedding_traffic,
            local_cnodes=local_cnodes,
            contends_for_pcie=_ARCH_CONTENDS[arch_codes],
            names=names,
            dense_weight_bytes=optional.get("dense_weight_bytes"),
            embedding_weight_bytes=optional.get("embedding_weight_bytes"),
        )

    @staticmethod
    def coerce(
        workloads: Union["FeatureArrays", Iterable[WorkloadFeatures]],
    ) -> "FeatureArrays":
        """Pass through a :class:`FeatureArrays`, extract anything else."""
        if isinstance(workloads, FeatureArrays):
            return workloads
        return FeatureArrays.from_workloads(workloads)

    def __len__(self) -> int:
        return int(self.arch_codes.shape[0])

    def take(self, indices: np.ndarray) -> "FeatureArrays":
        """A row subset (or reordering) as a new population.

        ``indices`` is anything NumPy fancy indexing accepts (an index
        array or a boolean mask).  Values are copied, never recomputed,
        so the subset is byte-identical to extracting the same rows.
        """
        sel = np.asarray(indices)

        def pick(column: Optional[np.ndarray]) -> Optional[np.ndarray]:
            return None if column is None else column[sel]

        return FeatureArrays(
            arch_codes=self.arch_codes[sel],
            num_cnodes=self.num_cnodes[sel],
            batch_size=self.batch_size[sel],
            flop_count=self.flop_count[sel],
            memory_access_bytes=self.memory_access_bytes[sel],
            input_bytes=self.input_bytes[sel],
            weight_traffic_bytes=self.weight_traffic_bytes[sel],
            dense_traffic_bytes=self.dense_traffic_bytes[sel],
            embedding_traffic_bytes=self.embedding_traffic_bytes[sel],
            local_cnodes=self.local_cnodes[sel],
            contends_for_pcie=self.contends_for_pcie[sel],
            names=pick(self.names),
            dense_weight_bytes=pick(self.dense_weight_bytes),
            embedding_weight_bytes=pick(self.embedding_weight_bytes),
        )

    def of_architecture(self, architecture: Architecture) -> "FeatureArrays":
        """The rows of one workload type, possibly empty."""
        return self.take(np.flatnonzero(self.mask_of(architecture)))

    def view(self, index: int) -> "FeatureView":
        """A lazy ``WorkloadFeatures``-compatible view of one row."""
        count = len(self)
        if not -count <= index < count:
            raise IndexError(
                f"row {index} out of range for {count}-job population"
            )
        if (
            self.names is None
            or self.dense_weight_bytes is None
            or self.embedding_weight_bytes is None
        ):
            raise ValueError(
                "this FeatureArrays carries no name/at-rest weight "
                "columns; build it via from_workloads/from_columnar to "
                "use row views"
            )
        return FeatureView(self, index if index >= 0 else index + count)

    def iter_views(self) -> Iterator["FeatureView"]:
        """Lazy row views over the whole population, in order."""
        if len(self):
            self.view(0)  # validate the row-view columns once
        # repro: ignore[hot-path] lazy per-row views are this API's point
        for index in range(len(self)):
            yield FeatureView(self, index)

    def architectures_present(self) -> List[Architecture]:
        """Distinct architectures in the population, in enum order."""
        return [
            _ARCHITECTURES[code]
            for code in (
                np.unique(self.arch_codes).tolist()  # repro: ignore[hot-path] tiny set (|architectures| <= 6)
            )
        ]

    def mask_of(self, architecture: Architecture) -> np.ndarray:
        """Boolean mask selecting one architecture's jobs."""
        return self.arch_codes == _ARCH_CODE[architecture]

    def project_ps_to(self, target: Architecture) -> "FeatureArrays":
        """Vectorized Sec. III-C1 projection of a PS/Worker population.

        Mirrors :func:`repro.core.projection.project_to_allreduce_local`
        / ``project_to_allreduce_cluster``: AllReduce-Local caps the job
        at 8 cNodes (one server), AllReduce-Cluster keeps the cNode
        count and packs 8-GPU servers.
        """
        if not np.all(self.arch_codes == _ARCH_CODE[Architecture.PS_WORKER]):
            raise ValueError("projection is defined for PS/Worker populations")
        if target is Architecture.ALLREDUCE_LOCAL:
            num_cnodes = np.minimum(self.num_cnodes, 8)
            local_cnodes = num_cnodes
        elif target is Architecture.ALLREDUCE_CLUSTER:
            num_cnodes = self.num_cnodes
            local_cnodes = np.minimum(self.num_cnodes, 8)
        else:
            raise ValueError(f"unsupported projection target: {target}")
        return FeatureArrays(
            arch_codes=np.full_like(self.arch_codes, _ARCH_CODE[target]),
            num_cnodes=num_cnodes,
            batch_size=self.batch_size,
            flop_count=self.flop_count,
            memory_access_bytes=self.memory_access_bytes,
            input_bytes=self.input_bytes,
            weight_traffic_bytes=self.weight_traffic_bytes,
            dense_traffic_bytes=self.dense_traffic_bytes,
            embedding_traffic_bytes=self.embedding_traffic_bytes,
            local_cnodes=local_cnodes,
            contends_for_pcie=np.full_like(
                self.contends_for_pcie, target.input_contends_for_pcie
            ),
            names=self.names,
            dense_weight_bytes=self.dense_weight_bytes,
            embedding_weight_bytes=self.embedding_weight_bytes,
        )


class FeatureView:
    """One population row with ``WorkloadFeatures``-compatible access.

    The lazy inverse of column extraction: nothing is computed until an
    attribute is read, and every attribute decodes straight out of the
    backing :class:`FeatureArrays` columns -- bit-identical to the
    eagerly constructed record (the property tests in
    ``tests/properties`` pin all eleven fields plus the derived
    properties).  A view compares and hashes by identity; use
    :meth:`materialize` for value equality with a record.  Per-record
    ``__post_init__`` validation is skipped because the columnar
    constructors already enforced the same invariants vectorized.
    """

    __slots__ = ("_arrays", "_index")

    def __init__(self, arrays: FeatureArrays, index: int) -> None:
        self._arrays = arrays
        self._index = index

    # ---- the eleven schema fields ----------------------------------

    @property
    def name(self) -> str:
        raw = self._arrays.names[self._index]
        if isinstance(raw, bytes):
            # The name column is sentinel-terminated utf-8: a trailing
            # 0x01 byte guards real trailing NULs from the S dtype's
            # stripping.  Tolerate un-terminated bytes from hand-built
            # columns.
            if raw.endswith(b"\x01"):
                raw = raw[:-1]
            return raw.decode("utf-8")
        return str(raw)

    @property
    def architecture(self) -> Architecture:
        return _ARCHITECTURES[int(self._arrays.arch_codes[self._index])]

    @property
    def num_cnodes(self) -> int:
        return int(self._arrays.num_cnodes[self._index])

    @property
    def batch_size(self) -> int:
        return int(self._arrays.batch_size[self._index])

    @property
    def flop_count(self) -> float:
        return float(self._arrays.flop_count[self._index])

    @property
    def memory_access_bytes(self) -> float:
        return float(self._arrays.memory_access_bytes[self._index])

    @property
    def input_bytes(self) -> float:
        return float(self._arrays.input_bytes[self._index])

    @property
    def weight_traffic_bytes(self) -> float:
        return float(self._arrays.weight_traffic_bytes[self._index])

    @property
    def dense_weight_bytes(self) -> float:
        return float(self._arrays.dense_weight_bytes[self._index])

    @property
    def embedding_weight_bytes(self) -> float:
        return float(self._arrays.embedding_weight_bytes[self._index])

    @property
    def embedding_traffic_bytes(self) -> float:
        return float(self._arrays.embedding_traffic_bytes[self._index])

    # ---- derived properties (same arithmetic as the record) --------

    @property
    def weight_bytes(self) -> float:
        """Total model size at rest (dense + embedding weights)."""
        return self.dense_weight_bytes + self.embedding_weight_bytes

    @property
    def dense_traffic_bytes(self) -> float:
        """The dense share of the per-step synchronization traffic."""
        return float(self._arrays.dense_traffic_bytes[self._index])

    @property
    def local_cnodes_per_server(self) -> int:
        """cNodes co-located on one server, for PCIe contention."""
        return int(self._arrays.local_cnodes[self._index])

    # ---- record interoperability -----------------------------------

    def materialize(self) -> WorkloadFeatures:
        """The eager (validated) record for this row."""
        return WorkloadFeatures(
            **{field_name: getattr(self, field_name) for field_name in FEATURE_FIELDS}
        )

    def with_architecture(
        self, architecture: Architecture, num_cnodes: int = None
    ) -> WorkloadFeatures:
        """Re-deploy this row's job under a different architecture."""
        return self.materialize().with_architecture(architecture, num_cnodes)

    def __repr__(self) -> str:
        return (
            f"FeatureView(name={self.name!r}, "
            f"architecture={self.architecture}, row={self._index})"
        )


def _ring_factors(num_cnodes: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.core.timemodel.ring_allreduce_factor`."""
    n = num_cnodes.astype(float)
    return np.where(num_cnodes <= 1, 0.0, (n - 1.0) / np.maximum(n, 1.0))


def _effective_weight_volumes(
    features: FeatureArrays,
    architecture: Architecture,
    mask: np.ndarray,
    options: ModelOptions,
) -> np.ndarray:
    """Per-cNode traffic volumes after collective traffic shaping.

    Mirrors ``timemodel._effective_weight_volume`` for one architecture
    group of the population.
    """
    volume = features.weight_traffic_bytes[mask]
    if architecture is Architecture.PEARL and options.pearl_partition_parallelism:
        local = np.maximum(features.local_cnodes[mask], 1).astype(float)
        dense = features.dense_traffic_bytes[mask]
        if options.allreduce_ring_factor:
            dense = dense * _ring_factors(features.num_cnodes[mask])
        sparse = features.embedding_traffic_bytes[mask] / local
        return dense + sparse
    if (
        architecture
        in (Architecture.ALLREDUCE_LOCAL, Architecture.ALLREDUCE_CLUSTER)
        and options.allreduce_ring_factor
    ):
        return volume * _ring_factors(features.num_cnodes[mask])
    return volume


@dataclass(frozen=True)
class PopulationBreakdown:
    """Columnar per-job time breakdowns for one population.

    Each component is an array over the population, element ``i``
    equal to :func:`repro.core.timemodel.estimate_breakdown` of job
    ``i``.  Its aggregate methods (:meth:`average_fractions`,
    :meth:`fraction_samples`, :meth:`weighted_fraction_exceeding`, ...)
    are the library's one population aggregation API.
    """

    data_io: np.ndarray
    compute_flops: np.ndarray
    compute_memory: np.ndarray
    weight_comm: Dict[str, np.ndarray]
    features: FeatureArrays = field(repr=False)

    def __len__(self) -> int:
        return int(self.data_io.shape[0])

    # ---- per-job series --------------------------------------------

    @property
    def computation(self) -> np.ndarray:
        """T_c per job: compute-bound plus memory-bound time."""
        return self.compute_flops + self.compute_memory

    @property
    def weight_total(self) -> np.ndarray:
        """T_w per job: weight traffic summed over path media."""
        total = np.zeros_like(self.data_io)
        for seconds in self.weight_comm.values():
            total = total + seconds
        return total

    @property
    def total(self) -> np.ndarray:
        """T_total per job under the non-overlap composition."""
        return self.data_io + self.computation + self.weight_total

    @property
    def total_ideal_overlap(self) -> np.ndarray:
        """T_total per job when the three parts fully overlap."""
        return np.maximum(
            self.data_io, np.maximum(self.computation, self.weight_total)
        )

    def total_for(self, overlap: OverlapMode) -> np.ndarray:
        """Per-job step times under either composition mode."""
        if overlap is OverlapMode.NONE:
            return self.total
        return self.total_ideal_overlap

    def fractions(self) -> Dict[str, np.ndarray]:
        """Component shares per job (columns of the Fig. 7 view)."""
        total = self.total
        safe = total > 0
        out = {}
        for key, part in (
            ("data_io", self.data_io),
            ("weight", self.weight_total),
            ("compute_bound", self.compute_flops),
            ("memory_bound", self.compute_memory),
        ):
            out[key] = np.divide(
                part, total, out=np.zeros_like(part), where=safe
            )
        return out

    def hardware_shares(self) -> Dict[str, np.ndarray]:
        """Per-hardware-component shares per job (Fig. 8(a) view)."""
        zeros = np.zeros_like(self.data_io)
        seconds = {
            MEDIA_GPU_FLOPS: self.compute_flops,
            MEDIA_GPU_MEMORY: self.compute_memory,
            "PCIe": self.data_io + self.weight_comm.get("PCIe", zeros),
            "Ethernet": self.weight_comm.get("Ethernet", zeros),
            "NVLink": self.weight_comm.get("NVLink", zeros),
        }
        total = self.total
        safe = total > 0
        return {
            name: np.divide(part, total, out=np.zeros_like(part), where=safe)
            for name, part in seconds.items()
        }

    # ---- aggregates ------------------------------------------------

    def _weight_vector(self, cnode_level: bool) -> np.ndarray:
        if cnode_level:
            return self.features.num_cnodes.astype(float)
        return np.ones(len(self), dtype=float)

    def _require_jobs(self) -> None:
        if len(self) == 0:
            raise ValueError("population is empty")

    def average_fractions(self, cnode_level: bool = False) -> Dict[str, float]:
        """Average component shares (one Fig. 7 column)."""
        self._require_jobs()
        weights = self._weight_vector(cnode_level)
        total_weight = float(weights.sum())
        fractions = self.fractions()
        return {
            key: float(np.dot(fractions[key], weights) / total_weight)
            for key in COMPONENT_KEYS
        }

    def average_hardware_shares(
        self, cnode_level: bool = False
    ) -> Dict[str, float]:
        """Average per-hardware-component shares (Fig. 8(a) summary)."""
        self._require_jobs()
        weights = self._weight_vector(cnode_level)
        total_weight = float(weights.sum())
        shares = self.hardware_shares()
        return {
            key: float(np.dot(shares[key], weights) / total_weight)
            for key in HARDWARE_KEYS
        }

    def fraction_samples(self, component: str) -> np.ndarray:
        """Per-job shares of one component (CDF input, Fig. 8(b-d))."""
        if component not in COMPONENT_KEYS:
            raise KeyError(f"unknown component: {component!r}")
        return self.fractions()[component]

    def weighted_fraction_exceeding(
        self,
        component: str,
        threshold: float,
        cnode_level: bool = False,
    ) -> float:
        """Population fraction whose component share exceeds a bound."""
        self._require_jobs()
        weights = self._weight_vector(cnode_level)
        hits = self.fraction_samples(component) > threshold
        return float(weights[hits].sum() / weights.sum())

    def cnode_weights(self) -> np.ndarray:
        """Per-job cNode weights, for cNode-level CDFs."""
        return self.features.num_cnodes.astype(float)


def batch_breakdowns(
    workloads: Union[FeatureArrays, Iterable[WorkloadFeatures]],
    hardware: HardwareConfig,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
    options: ModelOptions = PAPER_MODEL_OPTIONS,
) -> PopulationBreakdown:
    """Vectorized :func:`repro.core.timemodel.estimate_breakdown`.

    Applies the Sec. II-B analytical model to a whole population with
    one array operation per model term, grouping jobs by architecture
    only where the synchronization path differs.
    """
    features = FeatureArrays.coerce(workloads)
    gpu = hardware.gpu
    compute_flops = features.flop_count / (gpu.peak_flops * efficiency.compute)
    compute_memory = features.memory_access_bytes / (
        gpu.memory_bandwidth * efficiency.memory
    )

    contention = np.ones(len(features), dtype=float)
    if options.input_pcie_contention:
        contention = np.where(
            features.contends_for_pcie,
            features.local_cnodes.astype(float),
            1.0,
        )
    data_io = (features.input_bytes * contention) / (
        hardware.pcie.bandwidth * efficiency.pcie
    )

    weight_comm: Dict[str, np.ndarray] = {}
    for architecture in features.architectures_present():
        media = architecture.weight_media
        if not media:
            continue
        mask = features.mask_of(architecture)
        volume = _effective_weight_volumes(
            features, architecture, mask, options
        )
        for medium in media:
            seconds = volume / (
                hardware.bandwidth_of(medium) * efficiency.for_medium(medium)
            )
            if medium not in weight_comm:
                weight_comm[medium] = np.zeros(len(features), dtype=float)
            weight_comm[medium][mask] = seconds
    return PopulationBreakdown(
        data_io=data_io,
        compute_flops=compute_flops,
        compute_memory=compute_memory,
        weight_comm=weight_comm,
        features=features,
    )


def batch_step_times(
    workloads: Union[FeatureArrays, Iterable[WorkloadFeatures]],
    hardware: HardwareConfig,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
    options: ModelOptions = PAPER_MODEL_OPTIONS,
) -> np.ndarray:
    """Vectorized :func:`repro.core.timemodel.estimate_step_time`."""
    breakdown = batch_breakdowns(workloads, hardware, efficiency, options)
    return breakdown.total_for(options.overlap)


@dataclass(frozen=True)
class ProjectionArrays:
    """Speedup arrays of a projected PS/Worker population (Fig. 9)."""

    single_cnode_speedup: np.ndarray
    throughput_speedup: np.ndarray


def batch_projection_speedups(
    workloads: Union[FeatureArrays, Iterable[WorkloadFeatures]],
    target: Architecture,
    hardware: HardwareConfig,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
    options: ModelOptions = PAPER_MODEL_OPTIONS,
) -> ProjectionArrays:
    """Vectorized :func:`repro.core.projection.projection_speedups`."""
    base = FeatureArrays.coerce(workloads)
    projected = base.project_ps_to(target)
    base_times = batch_step_times(base, hardware, efficiency, options)
    new_times = batch_step_times(projected, hardware, efficiency, options)
    if np.any(new_times <= 0) or np.any(base_times <= 0):
        raise ValueError("workload has zero estimated step time")
    base_throughput = (
        base.num_cnodes.astype(float) / base_times * base.batch_size
    )
    new_throughput = (
        projected.num_cnodes.astype(float) / new_times * projected.batch_size
    )
    return ProjectionArrays(
        single_cnode_speedup=base_times / new_times,
        throughput_speedup=new_throughput / base_throughput,
    )
