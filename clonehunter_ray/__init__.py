"""clonehunter_ray — a Ray-Data-native near-duplicate code detection engine.

A from-scratch rebuild of the capabilities of drogers0/clonehunter
(reference at /root/reference) on ray.data.Dataset pipelines:

* input = one Parquet table ``files(repo, path, commit, lang, content)``
* extract function/file units (AST for python, whole file otherwise)
* FUNC / WIN snippets with docstring-strip normalization
* token shingles -> MinHash + SimHash signatures (Ray tasks)
* LSH band-hash groupby shuffle -> candidate pairs (salted for skew)
* exact Jaccard + lexical verification -> per-function-pair rollup
* union-find connected-component clustering
* per-stage partitioned Parquet checkpoints with lineage for resume

The execution engine is Ray Data's streaming executor over zero-copy
Arrow batches; nothing here ports the reference's in-memory list
pipeline (reference: src/clonehunter/core/pipeline.py:91-255).
"""

from clonehunter_ray.config import EngineConfig

__all__ = ["EngineConfig"]
__version__ = "0.1.0"
