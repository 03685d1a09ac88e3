"""Embedding providers and cosine-similarity computations.

Two providers are shipped: a deterministic offline hashing embedder, good
enough for exercising the sampling machinery without any model weights, and
a remote adapter speaking a one-endpoint JSON protocol so a real encoder can
be swapped in (``POST /embed {"texts": [...]} -> {"vectors": [...], "dim": n}``).

The similarity matrix is computed entry-by-entry with :func:`cosine` so that
an independent double loop over the same provider reproduces it bit-exactly.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .boundary import post_json
from .errors import ReaperError


class ProviderError(ReaperError):
    """Remote embedding provider unreachable or misbehaving."""


class DimensionMismatchError(ReaperError):
    pass


class ZeroVectorError(ReaperError):
    pass


class EmbeddingProvider(Protocol):
    def embed(self, text: str) -> np.ndarray: ...


_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


class HashingEmbedder:
    """Offline embedder: lowercase tokens hashed into signed buckets, then
    L2-normalized. Deterministic across processes; makes no semantic claims."""

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("text must be non-empty")
        vector = np.zeros(self.dim, dtype=np.float64)
        for token in _TOKEN_SPLIT.split(text.lower()):
            if not token:
                continue
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            h = int.from_bytes(digest, "big")
            bucket = h % self.dim
            sign = 1.0 if (h >> 32) & 1 == 0 else -1.0
            vector[bucket] += sign
        norm = float(np.linalg.norm(vector))
        if norm > 0.0:
            vector /= norm
        return vector


class RemoteEmbedder:
    """Adapter for a remote encoder behind the one-endpoint JSON protocol."""

    def __init__(self, base_url: str, timeout_s: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("text must be non-empty")
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        url = f"{self.base_url}/embed"
        body, _ = post_json(url, {"texts": list(texts)}, self.timeout_s, ProviderError)
        try:
            vectors = [np.asarray(v, dtype=np.float64) for v in body["vectors"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise ProviderError(f"malformed embedding response: {exc}") from exc
        if len(vectors) != len(texts):
            raise ProviderError(
                f"expected {len(texts)} vectors, got {len(vectors)}"
            )
        return vectors


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding; exactly 1.0
    for equal nonzero vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimensions differ: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVectorError("cosine similarity is undefined for a zero vector")
    if np.array_equal(a, b):
        return 1.0
    value = float(np.dot(a, b)) / (norm_a * norm_b)
    return min(1.0, max(-1.0, value))


@dataclass(frozen=True)
class SimilarityMatrix:
    """Pairwise cosine similarities; rows index the first query list, columns
    the second."""

    values: np.ndarray

    @property
    def rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def cols(self) -> int:
        return int(self.values.shape[1])


def similarity_matrix(
    provider: EmbeddingProvider,
    q_initial: Sequence[str],
    q_large: Sequence[str],
) -> SimilarityMatrix:
    """S[i, j] = cosine(embed(q_initial[i]), embed(q_large[j])), with per-run
    memoization of embeddings."""
    if not q_initial or not q_large:
        raise ValueError("both query lists must be non-empty")
    cache: dict[str, np.ndarray] = {}

    def vector(text: str) -> np.ndarray:
        if text not in cache:
            cache[text] = provider.embed(text)
        return cache[text]

    values = np.empty((len(q_initial), len(q_large)), dtype=np.float64)
    for i, left in enumerate(q_initial):
        for j, right in enumerate(q_large):
            values[i, j] = cosine(vector(left), vector(right))
    return SimilarityMatrix(values)
