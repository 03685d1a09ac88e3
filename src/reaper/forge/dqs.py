"""Diverse query sampling.

Given a small curated query pool and a large candidate pool, score every
candidate by its maximum cosine similarity to the curated pool, drop the
``extreme_pairs`` highest- and lowest-scoring candidates (ties broken by
lower index), and draw a seeded uniform sample of exactly the curated pool's
size from what remains. Sampling is done with ``random.Random(seed).sample``
over the refined pool in its original order, which is part of the contract
so independent reimplementations can reproduce the output exactly.

With no extremes to drop (``extreme_pairs == 0``, every ``reaper forge``
run), the scores cannot change the refined pool, which is all of the
candidates in order. DQS then only embeds each distinct text once and checks
the vectors, in O(n), and scores nothing: a query with no cosine similarity,
such as ``"???"``, still raises, naming its text.
"""

from __future__ import annotations

from typing import Sequence

import random

from ..embedding import EmbeddingProvider, embed_distinct, similarity_matrix
from .records import ForgeConfig


def dqs_partition(
    q_initial: Sequence[str],
    q_large: Sequence[str],
    provider: EmbeddingProvider,
    extreme_pairs: int,
) -> tuple[list[int], list[int]]:
    """Split ``q_large`` indices into (extreme, refined)."""
    if extreme_pairs == 0:
        embed_distinct(provider, q_initial, q_large)
        return [], list(range(len(q_large)))
    scores = similarity_matrix(provider, q_initial, q_large).values.max(axis=0)
    columns = range(len(q_large))
    most_similar = sorted(columns, key=lambda j: (-scores[j], j))[:extreme_pairs]
    most_dissimilar = sorted(columns, key=lambda j: (scores[j], j))[:extreme_pairs]
    extreme = set(most_similar) | set(most_dissimilar)
    refined = [j for j in columns if j not in extreme]
    return sorted(extreme), refined


def dqs_sample_indices(
    q_initial: Sequence[str],
    q_large: Sequence[str],
    provider: EmbeddingProvider,
    cfg: ForgeConfig,
) -> list[int]:
    """Indices into ``q_large`` of the sampled diverse queries, dropping
    ``cfg.extreme_pairs`` and drawing with ``cfg.seed``."""
    if len(q_large) - 2 * cfg.extreme_pairs < len(q_initial):
        raise ValueError(
            f"cannot draw {len(q_initial)} queries from a pool of "
            f"{len(q_large)} after removing up to {2 * cfg.extreme_pairs} "
            "extremes"
        )
    _, refined = dqs_partition(q_initial, q_large, provider, cfg.extreme_pairs)
    return random.Random(cfg.seed).sample(refined, len(q_initial))
