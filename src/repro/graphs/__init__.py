"""Op-level deep-learning model substrate and Table IV case studies."""

from ..core.architectures import Architecture
from .builders import (
    RESNET_CONFIGS,
    all_case_studies,
    build_bert,
    build_gcn,
    build_multi_interests,
    build_nmt,
    build_resnet,
    build_resnet50,
    build_speech,
)
from .features_from_graph import Deployment, features_for, ring_sync_bytes, sync_traffic
from .graph import GraphTotals, ModelGraph
from .ops import (
    Op,
    OpKind,
    activation_op,
    backward_ops,
    batchnorm_op,
    conv2d_op,
    elementwise_op,
    embedding_lookup_op,
    layernorm_op,
    lstm_layer_ops,
    matmul_op,
    pooling_op,
    softmax_op,
)
from .optimizers import ADAGRAD, ADAM, MOMENTUM, SGD, Optimizer

__all__ = [
    "ADAGRAD",
    "ADAM",
    "Deployment",
    "GraphTotals",
    "MOMENTUM",
    "ModelGraph",
    "Op",
    "OpKind",
    "Optimizer",
    "RESNET_CONFIGS",
    "SGD",
    "activation_op",
    "all_case_studies",
    "backward_ops",
    "batchnorm_op",
    "build_bert",
    "build_gcn",
    "build_multi_interests",
    "build_nmt",
    "build_resnet",
    "build_resnet50",
    "build_speech",
    "case_study_deployments",
    "case_study_features",
    "conv2d_op",
    "elementwise_op",
    "embedding_lookup_op",
    "features_for",
    "layernorm_op",
    "lstm_layer_ops",
    "matmul_op",
    "pooling_op",
    "ring_sync_bytes",
    "softmax_op",
    "sync_traffic",
]


def case_study_deployments() -> dict:
    """The Table IV "System Architecture" column as deployments.

    ResNet50/NMT/BERT fit in GPU memory and use AllReduce-Local on one
    8-GPU server; Speech trains 1w1g; Multi-Interests requires
    PS/Worker (239 GB of embeddings); GCN uses PEARL on 8 GPUs.
    """
    return {
        "ResNet50": Deployment(Architecture.ALLREDUCE_LOCAL, num_cnodes=8),
        "NMT": Deployment(Architecture.ALLREDUCE_LOCAL, num_cnodes=8),
        "BERT": Deployment(
            Architecture.ALLREDUCE_LOCAL, num_cnodes=8, embedding_sync_dense=True
        ),
        "Speech": Deployment(Architecture.SINGLE, num_cnodes=1),
        "Multi-Interests": Deployment(Architecture.PS_WORKER, num_cnodes=32),
        "GCN": Deployment(Architecture.PEARL, num_cnodes=8),
    }


def case_study_features() -> dict:
    """Analytical-model feature records for all six case studies."""
    deployments = case_study_deployments()
    return {
        name: features_for(graph, deployments[name])
        for name, graph in all_case_studies().items()
    }
