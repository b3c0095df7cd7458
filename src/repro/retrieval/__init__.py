"""Similarity-seeded lifting: a retrieval layer over the result store.

The semantic-cache subsystem.  The content-addressed store answers only
*exact* digest hits; this package turns every stored solution into
guidance for the next lift:

* :mod:`repro.retrieval.features` — lexical (C-source token shingles)
  and structural (loop-nest shape, signature shape, dimension signature,
  templatized skeleton) features of stored lifts and query tasks;
* :mod:`repro.retrieval.index` — the deterministic on-disk index kept
  beside the store (``<root>/v5/index/``), incrementally maintained on
  every store write/eviction and byte-identically rebuildable from the
  objects;
* :mod:`repro.retrieval.retriever` — reciprocal-rank fusion of the
  lexical and structural rankings into the k nearest solved kernels;
* :mod:`repro.retrieval.seeding` — the ``seed`` pipeline stage: tier-0
  neighbor candidates through validate-then-verify before any search,
  plus pCFG weight boosting on a miss.
"""

from .features import entry_row, lexical_shingles, source_features, task_features
from .index import INDEX_SCHEMA_VERSION, RetrievalIndex
from .retriever import DEFAULT_NEIGHBORS, Neighbor, Retriever, RRF_K
from .seeding import SEED_STAGE_NAME, SeedStage, seeded_lifter

__all__ = [
    "DEFAULT_NEIGHBORS",
    "INDEX_SCHEMA_VERSION",
    "Neighbor",
    "RetrievalIndex",
    "Retriever",
    "RRF_K",
    "SEED_STAGE_NAME",
    "SeedStage",
    "entry_row",
    "lexical_shingles",
    "seeded_lifter",
    "source_features",
    "task_features",
]
