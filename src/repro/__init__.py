"""repro — reproduction of "Optimizing Machine Learning Workloads in
Collaborative Environments" (Derakhshan et al., SIGMOD 2020).

Top-level convenience exports cover the system's primary surface: build
workloads with :class:`~repro.client.api.Workspace`, run them through a
:class:`~repro.server.service.CollaborativeOptimizer`, and choose a
materialization strategy from :mod:`repro.materialization` and a reuse
algorithm from :mod:`repro.reuse`.
"""

from .automl import PipelineAdvisor
from .client import (
    ExecutionReport,
    Executor,
    VirtualCostModel,
    WallClockCostModel,
    Workspace,
    parse_workload,
)
from .dataframe import Column, DataFrame
from .eg import (
    DedupArtifactStore,
    ExperimentGraph,
    LoadCostModel,
    SimpleArtifactStore,
    StorageTier,
    Updater,
)
from .graph import (
    ArtifactType,
    DataOperation,
    TrainOperation,
    WorkloadDAG,
    prune_workload,
)
from .materialization import (
    HelixMaterializer,
    HeuristicMaterializer,
    MaterializeAll,
    MaterializeNone,
    StorageAwareMaterializer,
)
from .reuse import AllMaterializedReuse, HelixReuse, LinearReuse, NoReuse
from .server import CollaborativeOptimizer
from .storage import TieredArtifactStore, TieredLoadCostModel

__version__ = "1.0.0"

__all__ = [
    "Workspace",
    "Executor",
    "ExecutionReport",
    "WallClockCostModel",
    "VirtualCostModel",
    "parse_workload",
    "DataFrame",
    "Column",
    "ExperimentGraph",
    "SimpleArtifactStore",
    "DedupArtifactStore",
    "TieredArtifactStore",
    "LoadCostModel",
    "TieredLoadCostModel",
    "StorageTier",
    "Updater",
    "WorkloadDAG",
    "ArtifactType",
    "DataOperation",
    "TrainOperation",
    "prune_workload",
    "HeuristicMaterializer",
    "StorageAwareMaterializer",
    "HelixMaterializer",
    "MaterializeAll",
    "MaterializeNone",
    "LinearReuse",
    "HelixReuse",
    "AllMaterializedReuse",
    "NoReuse",
    "CollaborativeOptimizer",
    "PipelineAdvisor",
    "__version__",
]
