"""Embedding providers and cosine-similarity computations.

Two providers are shipped: a deterministic offline hashing embedder, good
enough for exercising the sampling machinery without any model weights, and
a remote adapter speaking a one-endpoint JSON protocol so a real encoder can
be swapped in (``POST /embed {"texts": [...]} -> {"vectors": [...], "dim": n}``).

:func:`cosine` and :func:`similarity_matrix` share one contract: the dot
product over the product of the norms, clamped to [-1, 1], exactly 1.0 for
equal vectors, and an error naming the text for a zero or non-finite vector.
The matrix embeds each distinct text once and computes a block of rows per
``np.vecdot`` call, which runs the same ``ddot`` per pair as ``np.dot``, with
norms that equal ``np.linalg.norm``'s. So a double loop of :func:`cosine`
over the same provider reproduces the matrix bit for bit. A BLAS matrix
product (``V @ V.T``), ``einsum`` or ``np.linalg.norm(axis=1)`` would differ
in the last bits and is not used.

numpy and hashlib are imported on first use, not with this module, so the
subcommands that never embed do not pay for them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

from .boundary import post_json
from .errors import ReaperError

if TYPE_CHECKING:
    import numpy as np


class ProviderError(ReaperError):
    """Remote embedding provider unreachable or misbehaving."""


class DimensionMismatchError(ReaperError):
    pass


class VectorError(ReaperError):
    """An embedding for which cosine similarity is undefined; ``text`` is
    the embedded text when it is known."""

    def __init__(self, message: str, text: str | None = None):
        super().__init__(message if text is None else f"{message}: {text!r}")
        self.text = text


class ZeroVectorError(VectorError):
    pass


class NonFiniteVectorError(VectorError):
    pass


class EmbeddingProvider(Protocol):
    """``embed`` is required. A provider may also have ``embed_batch(texts)
    -> list of vectors``, as :class:`RemoteEmbedder` does; :func:`embed_distinct`
    then embeds all its texts in one call."""

    def embed(self, text: str) -> np.ndarray: ...


_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


class HashingEmbedder:
    """Offline embedder: lowercase tokens hashed into signed buckets, then
    L2-normalized. Deterministic across processes; makes no semantic claims.

    Each instance remembers the ``(bucket, sign)`` of every token it has
    hashed, so a token is hashed once per instance and the vectors are the
    same bit for bit."""

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self._slots: dict[str, tuple[int, float]] = {}

    def _slot(self, token: str) -> tuple[int, float]:
        import hashlib

        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "big")
        slot = self._slots[token] = (h % self.dim, 1.0 if (h >> 32) & 1 == 0 else -1.0)
        return slot

    def embed(self, text: str) -> np.ndarray:
        import numpy as np

        if not text:
            raise ValueError("text must be non-empty")
        vector = np.zeros(self.dim, dtype=np.float64)
        slots = self._slots
        for token in _TOKEN_SPLIT.split(text.lower()):
            if not token:
                continue
            bucket, sign = slots.get(token) or self._slot(token)
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
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One vector per text, from one request."""
        import numpy as np

        if not all(texts):
            raise ValueError("text must be non-empty")
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
        for text, vector in zip(texts, vectors):
            if not np.isfinite(np.linalg.norm(vector)):
                raise ProviderError(
                    f"embedding of {text!r} has a non-finite component or norm"
                )
        return vectors


def _norms(vectors: np.ndarray, texts: Sequence[str | None]) -> np.ndarray:
    """The norm of each row: ``sqrt`` of the same ``ddot`` that
    ``np.linalg.norm`` runs, so bit for bit its value. A zero or non-finite
    norm raises, naming the row's text."""
    import numpy as np

    with np.errstate(over="ignore"):  # an overflowed norm is reported below
        norms = np.sqrt(np.vecdot(vectors, vectors))
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
    if bad.size:
        k = bad[0]
        if norms[k] == 0.0:
            raise ZeroVectorError(
                "cosine similarity is undefined for a zero vector", texts[k]
            )
        raise NonFiniteVectorError(
            "cosine similarity is undefined for a vector with a non-finite norm",
            texts[k],
        )
    return norms


def _cosine_rule(dots, row_norms, col_norms, equal):
    """The cosine contract on one pair or a block of pairs: the dot product
    over the product of the norms, clamped to [-1, 1] against rounding, and
    exactly 1.0 where the two vectors are equal."""
    import numpy as np

    values = np.clip(dots / np.multiply.outer(row_norms, col_norms), -1.0, 1.0)
    return np.where(equal, 1.0, values)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding; exactly 1.0
    for equal nonzero vectors. A zero vector or a non-finite norm raises.
    The one-pair reference that :func:`similarity_matrix` reproduces bit for
    bit; the tests compare the matrix against it."""
    import numpy as np

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimensions differ: {a.shape} vs {b.shape}")
    pair = np.stack([a.ravel(), b.ravel()])
    norm_a, norm_b = _norms(pair, (None, None))
    return float(
        _cosine_rule(np.dot(pair[0], pair[1]), norm_a, norm_b, np.array_equal(a, b))
    )


_ROW_BLOCK = 16  # matrix rows per vecdot call; bounds its temporaries


def _embed_rows(provider: EmbeddingProvider, texts: list[str]) -> np.ndarray:
    """One row per text, from one ``provider.embed_batch`` call if the
    provider has one, else from one ``provider.embed`` call per text; every
    vector must have the first one's shape."""
    import numpy as np

    embed_batch = getattr(provider, "embed_batch", None)
    embedded = map(provider.embed, texts) if embed_batch is None else embed_batch(texts)
    vectors = np.empty(0)
    for k, (text, vector) in enumerate(zip(texts, embedded, strict=True)):
        vector = np.asarray(vector, dtype=np.float64)
        if k == 0:
            vectors = np.empty((len(texts), vector.size))
        if vector.shape != vectors.shape[1:]:
            raise DimensionMismatchError(
                f"embedding of {text!r} has shape {vector.shape}, "
                f"expected {vectors.shape[1:]}"
            )
        vectors[k] = vector
    return vectors


def _equal_groups(vectors: np.ndarray) -> np.ndarray:
    """A group id per row; two rows share one exactly when ``np.array_equal``
    holds for them. Adding 0.0 folds -0.0 into 0.0 in the keys."""
    import numpy as np

    ids: dict[bytes, int] = {}
    return np.array([ids.setdefault((v + 0.0).tobytes(), len(ids)) for v in vectors])


def embed_distinct(
    provider: EmbeddingProvider,
    q_initial: Sequence[str],
    q_large: Sequence[str],
) -> tuple[dict[str, int], int, np.ndarray, np.ndarray]:
    """Embed each distinct text of both lists once and check every vector.
    A provider with ``embed_batch`` gets one call for all the texts.

    Returns ``(slots, width, vectors, norms)``: ``slots`` maps each distinct
    text to its row of ``vectors`` and ``norms``. q_large's texts take the
    first ``width`` slots and q_initial's new ones follow. A vector of the
    wrong shape, a zero vector or a non-finite norm raises, naming its text;
    :func:`similarity_matrix` and a DQS run that scores nothing both embed
    through here, so the same input raises the same error in either.
    """
    if not q_initial or not q_large:
        raise ValueError("both query lists must be non-empty")
    slots: dict[str, int] = {}
    for text in q_large:
        slots.setdefault(text, len(slots))
    width = len(slots)
    for text in q_initial:
        slots.setdefault(text, len(slots))
    texts = list(slots)
    vectors = _embed_rows(provider, texts)
    return slots, width, vectors, _norms(vectors, texts)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Pairwise cosine similarities; rows index the first query list, columns
    the second."""

    values: np.ndarray


def similarity_matrix(
    provider: EmbeddingProvider,
    q_initial: Sequence[str],
    q_large: Sequence[str],
) -> SimilarityMatrix:
    """S[i, j] = cosine(embed(q_initial[i]), embed(q_large[j])), bit for bit.

    ``provider.embed`` is called once per distinct text, and each norm is
    computed once. Each block of rows is one ``vecdot`` over broadcast views,
    which runs the same ``ddot`` per pair as ``np.dot``, so the matrix equals
    a double loop of :func:`cosine` bit for bit. A zero or non-finite
    embedding raises, naming its text.
    """
    import numpy as np

    # q_large's distinct texts take the first ``width`` slots, so the
    # matrix's distinct columns are a leading slice of the embeddings
    slots, width, vectors, norms = embed_distinct(provider, q_initial, q_large)
    group = _equal_groups(vectors)

    rows = np.array([slots[text] for text in q_initial])
    cols = None if width == len(q_large) else np.array([slots[text] for text in q_large])
    values = np.empty((len(q_initial), len(q_large)), dtype=np.float64)
    for start in range(0, len(rows), _ROW_BLOCK):
        block = rows[start : start + _ROW_BLOCK]
        dots = np.vecdot(vectors[block, None, :], vectors[None, :width, :])
        equal = group[block, None] == group[None, :width]
        sims = _cosine_rule(dots, norms[block], norms[:width], equal)
        values[start : start + len(block)] = sims if cols is None else sims[:, cols]
    return SimilarityMatrix(values)
