"""(2,1)-total labeling of outerplanar graphs.

A (2,1)-total labeling assigns integers to vertices and edges so that a
vertex and an incident edge differ by at least 2 while adjacent vertices and
adjacent edges differ by at least 1.  Every connected outerplanar graph
admits such a labeling using labels 0..max_degree+2; this package provides
the constructive labelers realizing that bound for maximum degree up to 4,
an exact backtracking oracle, the structural analyzers behind the
constructions, graph generators, and a small CLI.
"""

from .graphs import Graph, norm_edge
from .labeling import (
    TotalLabeling,
    Violation,
    complement,
    incidence_graph,
    span,
    verify,
    verify_around,
)
from .embedding import (
    NotOuterplanar,
    OuterplanarEmbedding,
    boundary_decompose,
    endfaces,
    recognize_embed,
)
from .exact import extend_bounded, find_labeling_bounded, lambda_exact
from .structure import (
    Chain,
    ChainNotFound,
    Configuration,
    enumerate_chains,
    find_closed_chain,
    find_configuration,
)
from .delta3 import LabelK2Options, label_cycle_or_path, label_delta3, label_k2
from .delta4 import (
    availability,
    canonicalize,
    chain_template,
    claim_pair,
    label_delta4,
)
from .pipeline import label_outerplanar

__all__ = [
    "Graph",
    "norm_edge",
    "TotalLabeling",
    "Violation",
    "verify",
    "verify_around",
    "span",
    "complement",
    "incidence_graph",
    "NotOuterplanar",
    "OuterplanarEmbedding",
    "recognize_embed",
    "endfaces",
    "boundary_decompose",
    "find_labeling_bounded",
    "lambda_exact",
    "extend_bounded",
    "Configuration",
    "Chain",
    "ChainNotFound",
    "find_configuration",
    "enumerate_chains",
    "find_closed_chain",
    "LabelK2Options",
    "label_k2",
    "label_cycle_or_path",
    "label_delta3",
    "availability",
    "claim_pair",
    "canonicalize",
    "chain_template",
    "label_delta4",
    "label_outerplanar",
]
