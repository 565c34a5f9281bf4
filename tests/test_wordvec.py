"""Vector-file parsing and unified-embedding tests."""

import numpy as np
import numpy.testing as npt
import pytest

from iben.corpus import PAD_TOKEN, pad_truncate
from iben.errors import DataFormatError
from iben.wordvec import (
    EmbeddingMatrix,
    OovPolicy,
    UnifiedEmbedder,
    WordVectorTable,
    load_text_vectors,
)


def table_from(words, dim, seed=0, name="t"):
    """Small in-memory table with reproducible random vectors."""
    rng = np.random.default_rng(seed)
    return WordVectorTable(dim, {w: rng.normal(size=dim) for w in words}, name=name)


class TestLoadTextVectors:
    def test_glove_single_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("the 0.1 0.2 0.3\n")
        table = load_text_vectors(path)
        assert table.dim == 3
        npt.assert_allclose(table.get("the"), [0.1, 0.2, 0.3])

    def test_w2v_header_format(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\ncat 1 2 3\ndog 4 5 6\n")
        table = load_text_vectors(path, format="w2v_text")
        assert table.dim == 3
        assert len(table) == 2
        npt.assert_array_equal(table.get("dog"), [4.0, 5.0, 6.0])

    def test_dimension_mismatch_names_the_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("the 0.1 0.2 0.3\ncat 0.1 0.2\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_text_vectors(path)

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("the 0.1 x 0.3\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_text_vectors(path)

    def test_non_finite_component(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("the 0.1 inf 0.3\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            load_text_vectors(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_text_vectors(path)

    def test_duplicates_keep_first_occurrence(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("the 1 1\nthe 2 2\ncat 3 3\n")
        table = load_text_vectors(path)
        npt.assert_array_equal(table.get("the"), [1.0, 1.0])
        assert table.duplicates == 1
        assert len(table) == 2

    def test_bad_w2v_header(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("not-a-header\ncat 1 2\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_text_vectors(path, format="w2v_text")

    def test_w2v_count_counts_duplicates(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2\ncat 1 2\ncat 3 4\n\ndog 5 6\n")
        table = load_text_vectors(path, format="w2v_text")
        assert len(table) == 2 and table.duplicates == 1

    @pytest.mark.parametrize("header, message", [
        ("5 2", r"header declares 5 vectors, the file holds 2"),
        ("1 2", r"header declares 1 vectors, the file holds 2"),
        ("-2 2", r"header declares -2 vectors, the file holds 2"),
        ("two 2", r"line 1: bad header 'two 2'"),
    ])
    def test_w2v_count_must_match_the_rows(self, tmp_path, header, message):
        path = tmp_path / "count.txt"
        path.write_text(header + "\ncat 1 2\ndog 3 4\n")
        with pytest.raises(DataFormatError, match=r"count\.txt.*" + message):
            load_text_vectors(path, format="w2v_text")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_text_vectors(tmp_path / "v.txt", format="w2v_binary")


class TestOovPolicy:
    def test_zeros_policy_fills_zeros(self):
        emb = UnifiedEmbedder([table_from(["known"], 4)])
        npt.assert_array_equal(emb.embed_token("missing"), np.zeros(4))

    def test_seeded_uniform_is_deterministic(self):
        policy = OovPolicy(kind="seeded_uniform", seed=9)
        emb_a = UnifiedEmbedder([table_from(["x"], 5)], policy)
        emb_b = UnifiedEmbedder([table_from(["x"], 5)], policy)
        va = emb_a.embed_token("missing")
        vb = emb_b.embed_token("missing")
        npt.assert_array_equal(va, vb)
        assert va.any()  # not the zero fill

    def test_seeded_uniform_respects_the_range(self):
        policy = OovPolicy(kind="seeded_uniform", low=-0.25, high=0.25, seed=1)
        emb = UnifiedEmbedder([table_from([], 300, name="empty")], policy)
        for token in ("a", "b", "c"):
            v = emb.embed_token(token)
            assert np.all(v >= -0.25) and np.all(v < 0.25)

    def test_different_tables_get_independent_fills(self):
        """The fill is keyed by table position, not just the token."""
        policy = OovPolicy(kind="seeded_uniform", seed=4)
        emb = UnifiedEmbedder([table_from([], 6, name="a"),
                               table_from([], 6, name="b")], policy)
        v = emb.embed_token("missing")
        assert not np.array_equal(v[:6], v[6:])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            OovPolicy(kind="random")

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            OovPolicy(kind="seeded_uniform", low=0.5, high=-0.5)


class TestUnifiedEmbedder:
    def test_blocks_match_per_table_lookups(self):
        """Slicing the unified vector at the table offsets recovers each lookup."""
        tables = [table_from(["w"], 3, seed=1), table_from(["w"], 5, seed=2),
                  table_from(["w"], 2, seed=3)]
        emb = UnifiedEmbedder(tables)
        v = emb.embed_token("w")
        offsets = np.cumsum([0] + [t.dim for t in tables])
        assert v.shape == (offsets[-1],)
        for i, t in enumerate(tables):
            npt.assert_array_equal(v[offsets[i]:offsets[i + 1]], t.get("w"))

    def test_pad_token_embeds_to_zeros(self):
        emb = UnifiedEmbedder([table_from([PAD_TOKEN], 4, seed=5)])
        npt.assert_array_equal(emb.embed_token(PAD_TOKEN), np.zeros(4))

    def test_total_dim_is_the_sum(self):
        emb = UnifiedEmbedder([table_from([], 300, name="a"),
                               table_from([], 300, name="b"),
                               table_from([], 300, name="c")])
        assert emb.total_dim == 900

    def test_needs_at_least_one_table(self):
        with pytest.raises(ValueError):
            UnifiedEmbedder([])


class TestBuildMatrix:
    def test_all_pad_sequence_is_the_zero_matrix(self):
        emb = UnifiedEmbedder([table_from(["x"], 7)])
        seq = pad_truncate([], max_len=40)
        m = emb.build_matrix(seq)
        assert (m.rows, m.cols) == (40, 7)
        assert not m.data.any()

    def test_single_known_token_gives_one_nonzero_row(self):
        emb = UnifiedEmbedder([table_from(["word"], 4, seed=8)])
        m = emb.build_matrix(pad_truncate(["word"], max_len=40))
        nonzero_rows = np.flatnonzero(m.data.any(axis=1))
        npt.assert_array_equal(nonzero_rows, [0])
        npt.assert_array_equal(m.data[0], emb.embed_token("word"))

    def test_three_300_dim_tables_give_900_columns(self):
        tables = [table_from(["unrest"], 300, seed=s, name=f"t{s}")
                  for s in (1, 2, 3)]
        emb = UnifiedEmbedder(tables)
        m = emb.build_matrix(pad_truncate(["unrest", "grows"], max_len=40))
        assert (m.rows, m.cols) == (40, 900)

    def test_shape_over_random_vocabularies(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            dims = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 4)))]
            tables = [table_from([f"w{i}" for i in range(5)], d, seed=i, name=f"t{i}")
                      for i, d in enumerate(dims)]
            emb = UnifiedEmbedder(tables)
            tokens = [f"w{int(rng.integers(0, 10))}" for _ in range(int(rng.integers(0, 12)))]
            m = emb.build_matrix(pad_truncate(tokens, max_len=11))
            assert (m.rows, m.cols) == (11, sum(dims))

    def test_deterministic_under_seeded_oov(self):
        policy = OovPolicy(kind="seeded_uniform", seed=23)
        seq = pad_truncate(["alpha", "beta", "gamma"], max_len=6)
        builds = []
        for _ in range(2):
            emb = UnifiedEmbedder([table_from(["alpha"], 5, seed=1)], policy)
            builds.append(emb.build_matrix(seq).data)
        npt.assert_array_equal(builds[0], builds[1])

    def test_matrix_validates_pad_rows(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(np.ones(3))  # not 2-D

