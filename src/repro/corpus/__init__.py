"""Corpus-scale dataset layer.

Sharded, disk-backed block corpora (:mod:`repro.corpus.sharded`) and a
memory-mapped featurization store indexed like its corpus
(:mod:`repro.corpus.store`).
A :class:`~repro.corpus.sharded.CorpusView` is a block source like any
block list: :func:`repro.core.simulated_dataset.collect_simulated_dataset`
collects over it, and both training phases read its per-block arrays
from the store the view carries
(:meth:`~repro.corpus.sharded.CorpusView.with_featurization_store`, read
by :meth:`repro.core.surrogate.BlockFeaturizer.lookup`).  Together they let
generation, collection, and surrogate training run at 10^5–10^6+ blocks
with flat peak RSS, shared featurization across processes, and
bit-identical ``--resume`` at every shard boundary of a build and every
stage boundary of a run.
"""

from repro.corpus.sharded import (CorpusError, CorpusShard, CorpusView,
                                  ShardedCorpus, block_content_digest)
from repro.corpus.store import ShardedFeaturizationStore, vocabulary_digest

__all__ = [
    "CorpusError",
    "CorpusShard",
    "CorpusView",
    "ShardedCorpus",
    "block_content_digest",
    "ShardedFeaturizationStore",
    "vocabulary_digest",
]
