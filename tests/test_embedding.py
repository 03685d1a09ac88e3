import hashlib
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reaper.embedding import (
    DimensionMismatchError,
    HashingEmbedder,
    NonFiniteVectorError,
    ProviderError,
    RemoteEmbedder,
    ZeroVectorError,
    cosine,
    embed_distinct,
    similarity_matrix,
)

from .httpserve import json_server


@pytest.fixture(scope="module")
def provider():
    return HashingEmbedder()


class StubProvider:
    """Serves fixed vectors and records every ``embed`` call."""

    def __init__(self, vectors):
        self.vectors = vectors
        self.calls = []

    def embed(self, text):
        self.calls.append(text)
        return np.array(self.vectors[text], dtype=np.float64)


class TestHashingEmbedder:
    def test_deterministic(self, provider):
        first = provider.embed("red shoes")
        second = provider.embed("red shoes")
        assert np.array_equal(first, second)

    def test_unit_norm(self, provider):
        assert math.isclose(
            float(np.linalg.norm(provider.embed("red shoes"))), 1.0, rel_tol=1e-12
        )

    def test_cosine_in_range_for_different_texts(self, provider):
        value = cosine(provider.embed("red shoes"), provider.embed("crimson footwear"))
        assert -1.0 <= value <= 1.0

    def test_tokenization_case_and_punctuation_insensitive(self, provider):
        assert np.array_equal(
            provider.embed("Red, Shoes!"), provider.embed("red shoes")
        )

    def test_empty_text_rejected(self, provider):
        with pytest.raises(ValueError):
            provider.embed("")

    def test_dimension(self):
        assert HashingEmbedder(dim=16).embed("abc").shape == (16,)


def _reference_embed(text: str, dim: int) -> np.ndarray:
    """The hashing embedder written out: every token hashed on every call."""
    vector = np.zeros(dim, dtype=np.float64)
    for token in re.split(r"[^a-z0-9]+", text.lower()):
        if not token:
            continue
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "big")
        vector[h % dim] += 1.0 if (h >> 32) & 1 == 0 else -1.0
    norm = float(np.linalg.norm(vector))
    if norm > 0.0:
        vector /= norm
    return vector


# one embedder per dimension for the whole property, so later examples
# read tokens that earlier ones put in its memo
_SHARED = {dim: HashingEmbedder(dim) for dim in (1, 7, 256)}
_WORDS = st.sampled_from(["red", "Red", "shoes", "kettle", "2", "x9", "é", "漢字", "???"])
_TEXTS = st.lists(
    st.one_of(_WORDS, st.text(max_size=6)), min_size=1, max_size=12
).map(" ".join).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_SHARED)), _TEXTS)
def test_embed_with_its_token_memo_equals_hashing_every_token(dim, text):
    expected = _reference_embed(text, dim)
    for _ in range(2):  # the second call reads every token from the memo
        got = _SHARED[dim].embed(text)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


def test_question_marks_still_name_their_text():
    provider = HashingEmbedder()
    provider.embed("??? red")  # a memo that has seen other tokens
    with pytest.raises(ZeroVectorError, match=r"zero vector: '\?\?\?'") as excinfo:
        embed_distinct(provider, ["red shoes"], ["red shoes", "???"])
    assert excinfo.value.text == "???"


class TestCosine:
    def test_identical_axes(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_forty_five_degrees(self):
        # sqrt(2)/2 by hand
        value = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert abs(value - 0.7071067811865476) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine(np.array([1.0]), np.array([1.0, 0.0]))

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            cosine(np.zeros(3), np.ones(3))

    def test_self_similarity_is_exactly_one(self, provider):
        for text in ("red shoes", "a", "many words in this one"):
            vector = provider.embed(text)
            assert cosine(vector, vector) == 1.0


# components are zero or of representable magnitude: tiny values underflow
# when squared, making the norm (and so the cosine) uncomputable in float64
_component = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e6),
    st.floats(min_value=-1e6, max_value=-1e-3),
)
finite_vectors = st.lists(_component, min_size=4, max_size=4).filter(
    lambda values: any(v != 0 for v in values)
)


@settings(max_examples=200, deadline=None)
@given(finite_vectors, finite_vectors)
def test_cosine_symmetry(left, right):
    a, b = np.array(left), np.array(right)
    assert abs(cosine(a, b) - cosine(b, a)) <= 1e-12


class TestSimilarityMatrix:
    def test_identical_lists_have_unit_diagonal(self, provider):
        queries = ["red shoes", "blue hat", "green scarf"]
        matrix = similarity_matrix(provider, queries, queries)
        assert np.array_equal(np.diag(matrix.values), np.ones(3))

    def test_single_entry(self, provider):
        matrix = similarity_matrix(provider, ["red shoes"], ["crimson footwear"])
        expected = cosine(
            provider.embed("red shoes"), provider.embed("crimson footwear")
        )
        assert matrix.values.shape == (1, 1)
        assert matrix.values[0, 0] == expected

    def test_matches_brute_force_recomputation_exactly(self, provider):
        q_initial = ["red shoes", "blue hat", "garden hose"]
        q_large = [
            "crimson footwear",
            "red shoes",
            "a blue hat for winter",
            "kitchen knife set",
            "hose for the garden",
        ]
        matrix = similarity_matrix(provider, q_initial, q_large)
        for i, left in enumerate(q_initial):
            for j, right in enumerate(q_large):
                expected = cosine(provider.embed(left), provider.embed(right))
                assert matrix.values[i, j] == expected

    def test_distinct_texts_with_equal_vectors_are_exactly_one(self, provider):
        matrix = similarity_matrix(provider, ["Red shoes"], ["red shoes!", "blue hat"])
        assert matrix.values[0, 0] == 1.0

    def test_negative_zero_components_count_as_equal(self):
        # without the equal-vector rule this pair gives 0.9999999999999998
        stub = StubProvider({"a": [1.0, -0.0, 3.0], "b": [1.0, 0.0, 3.0]})
        matrix = similarity_matrix(stub, ["a"], ["b"])
        assert matrix.values[0, 0] == 1.0 == cosine(stub.embed("a"), stub.embed("b"))

    def test_mixed_dimensions_rejected(self):
        stub = StubProvider({"a": [1.0, 0.0], "b": [1.0, 0.0, 0.0]})
        with pytest.raises(DimensionMismatchError, match="'b'"):
            similarity_matrix(stub, ["a"], ["a", "b"])

    def test_embeds_each_distinct_text_once(self):
        stub = StubProvider({t: [1.0, float(len(t))] for t in ("a", "bb", "ccc")})
        similarity_matrix(stub, ["a", "bb", "a"], ["bb", "ccc", "ccc", "a"])
        assert sorted(stub.calls) == ["a", "bb", "ccc"]

    def test_duplicate_columns_and_rows_match_cosine(self, provider):
        texts = [f"query {i % 23} about item {i % 7}" for i in range(50)]
        q_initial, q_large = texts + texts[:9], texts[5:] + texts[:3]
        matrix = similarity_matrix(provider, q_initial, q_large)
        for i, left in enumerate(q_initial):
            for j, right in enumerate(q_large):
                expected = cosine(provider.embed(left), provider.embed(right))
                assert matrix.values[i, j] == expected

    @pytest.mark.parametrize(
        "vector, error",
        [
            ([0.0, 0.0], ZeroVectorError),
            ([float("nan"), 1.0], NonFiniteVectorError),
            ([float("inf"), 1.0], NonFiniteVectorError),
            ([1e200, 1e200], NonFiniteVectorError),
        ],
    )
    def test_degenerate_vector_names_its_text(self, vector, error):
        stub = StubProvider({"fine": [1.0, 2.0], "bad one": vector})
        with pytest.raises(error, match="'bad one'") as caught:
            similarity_matrix(stub, ["fine"], ["fine", "bad one"])
        assert caught.value.text == "bad one"
        with pytest.raises(error):
            cosine(np.array([1.0, 2.0]), np.array(vector))

    def test_empty_inputs_rejected(self, provider):
        with pytest.raises(ValueError):
            similarity_matrix(provider, [], ["a"])
        with pytest.raises(ValueError):
            similarity_matrix(provider, ["a"], [])


class TestRemoteEmbedder:
    def test_round_trip(self):
        def handler(path, body):
            assert path == "/embed"
            vectors = [[float(len(text)), 1.0] for text in body["texts"]]
            return 200, {"vectors": vectors, "dim": 2}

        with json_server(handler) as url:
            remote = RemoteEmbedder(url)
            assert np.array_equal(remote.embed("abc"), np.array([3.0, 1.0]))
            batch = remote.embed_batch(["a", "ab"])
            assert np.array_equal(batch[1], np.array([2.0, 1.0]))

    def test_dead_endpoint_is_provider_error(self):
        remote = RemoteEmbedder("http://127.0.0.1:9", timeout_s=0.2)
        with pytest.raises(ProviderError):
            remote.embed("red shoes")

    def test_non_200_is_provider_error(self):
        with json_server(lambda path, body: (503, {"error": "down"})) as url:
            with pytest.raises(ProviderError):
                RemoteEmbedder(url).embed("red shoes")

    def test_non_finite_vector_is_provider_error(self):
        def handler(path, body):
            return 200, {"vectors": [[float("nan"), 1.0]], "dim": 2}

        with json_server(handler) as url:
            with pytest.raises(ProviderError, match="'red shoes'"):
                RemoteEmbedder(url).embed("red shoes")

    def test_embed_distinct_makes_one_request(self):
        requests = []

        def handler(path, body):
            requests.append(body["texts"])
            vectors = [[1.0, float(len(t))] for t in body["texts"]]
            return 200, {"vectors": vectors, "dim": 2}

        with json_server(handler) as url:
            slots, width, vectors, norms = embed_distinct(
                RemoteEmbedder(url), ["a", "bb", "a"], ["ccc", "bb", "ccc"]
            )
        assert requests == [["ccc", "bb", "a"]]
        assert (slots, width) == ({"ccc": 0, "bb": 1, "a": 2}, 2)
        assert vectors.tolist() == [[1.0, 3.0], [1.0, 2.0], [1.0, 1.0]]
        assert norms.tolist() == [math.sqrt(10.0), math.sqrt(5.0), math.sqrt(2.0)]

    @pytest.mark.parametrize(
        "vector, error",
        [
            ([0.0, 0.0], ZeroVectorError),
            ([1.0, 2.0, 3.0], DimensionMismatchError),
            ([float("nan"), 1.0], ProviderError),
        ],
    )
    def test_one_request_raises_what_one_per_text_raises(self, vector, error):
        def handler(path, body):
            vectors = [vector if t == "bad one" else [1.0, 2.0] for t in body["texts"]]
            return 200, {"vectors": vectors, "dim": 2}

        with json_server(handler) as url:
            remote = RemoteEmbedder(url)
            per_text = SimpleNamespace(embed=remote.embed)  # has no embed_batch
            raised = []
            for provider in (remote, per_text):
                with pytest.raises(error, match="'bad one'") as caught:
                    embed_distinct(provider, ["fine"], ["fine", "bad one"])
                raised.append(str(caught.value))
        assert raised[0] == raised[1]

    def test_malformed_body_is_provider_error(self):
        with json_server(lambda path, body: (200, {"nope": []})) as url:
            with pytest.raises(ProviderError):
                RemoteEmbedder(url).embed("red shoes")
