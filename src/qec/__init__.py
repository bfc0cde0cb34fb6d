"""Quadratic embedding constants of small connected graphs.

Compute QEC values, decide QE / non-QE membership exactly, construct
explicit quadratic embeddings, and reproduce the complete classification
of connected graphs on up to seven vertices (`classify.ENUM_MAX_ORDER`).
"""

__version__ = "0.1.0"

import os

# Graph-sized matrices gain nothing from BLAS threads, and an OpenBLAS thread
# spins ~0.1 s of CPU once numpy starts it.  Acts only before numpy's import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .canon import CanonicalCert, canonical_cert
from .classify import (
    ClassificationRecord,
    Summary,
    Verdict,
    classify,
    classify_all,
    enumerate_connected,
    non_qe_witness,
    sieve_trace,
)
from .embedding import Embedding, embed, gram_from_distance, pendant_rule, verify_embedding
from .engine import QecReport, is_cnd_exact, qec
from .formulas import qec_formula, qec_multipartite
from .graph6 import Catalog, CatalogEntry, identify, load_catalog, parse_graph6, to_graph6
from .graphs import (
    FamilySpec,
    Graph,
    build_family,
    complement,
    compose,
    distance_matrix,
    find_pendant_edge,
    from_edges,
    induced_subgraph,
)

__all__ = [
    "CanonicalCert",
    "Catalog",
    "CatalogEntry",
    "ClassificationRecord",
    "Embedding",
    "FamilySpec",
    "Graph",
    "QecReport",
    "Summary",
    "Verdict",
    "build_family",
    "canonical_cert",
    "classify",
    "classify_all",
    "complement",
    "compose",
    "distance_matrix",
    "embed",
    "enumerate_connected",
    "find_pendant_edge",
    "from_edges",
    "gram_from_distance",
    "identify",
    "induced_subgraph",
    "is_cnd_exact",
    "load_catalog",
    "non_qe_witness",
    "parse_graph6",
    "pendant_rule",
    "qec",
    "qec_formula",
    "qec_multipartite",
    "sieve_trace",
    "to_graph6",
    "verify_embedding",
]
