"""Vector-file parsing and unified-embedding tests."""

import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iben.corpus import PAD_TOKEN, pad_truncate
from iben.errors import DataFormatError
from iben.wordvec import (
    EmbeddingMatrix,
    OovPolicy,
    UnifiedEmbedder,
    VocabularyStore,
    WordVectorTable,
    load_text_vectors,
)
import oracle_io


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on an empty parse
            with pytest.raises(DataFormatError, match=r"v\.txt: no vector entries"):
                load_text_vectors(path)

    @pytest.mark.parametrize("text, format", [("\n\r\n\n", "glove_text"),
                                              ("0 3\n", "w2v_text")])
    def test_blank_or_header_only_file_rejected(self, tmp_path, text, format):
        path = tmp_path / "v.txt"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=r"v\.txt: no vector entries"):
                load_text_vectors(path, format=format)

    def test_duplicates_keep_first_occurrence(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("the 1 1\nthe 2 2\ncat 3 3\n")
        table = load_text_vectors(path)
        npt.assert_array_equal(table.get("the"), [1.0, 1.0])
        assert table.duplicates == 1
        assert len(table) == 2

    @pytest.mark.parametrize("dim", [0, -3])
    def test_a_w2v_header_dim_below_1_is_refused(self, tmp_path, dim):
        path = tmp_path / "v.txt"
        path.write_text(f"1 {dim}\ncat 1 2\n")
        with pytest.raises(DataFormatError, match=r"v.txt line 1: dim must be positive"):
            load_text_vectors(path, format="w2v_text")

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

    def test_header_count_allocates_nothing(self, tmp_path):
        """A header declaring 10^12 vectors fails on its count, not on memory."""
        path = tmp_path / "huge.txt"
        path.write_text("1000000000000 2\ncat 1 2\ndog 3 4\n")
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError,
                               match=r"header declares 1000000000000 vectors, the file holds 2"):
                load_text_vectors(path, format="w2v_text")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_entries_are_rows_of_one_matrix(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("the 1 2\ncat 3 4\nthe 5 6\n")
        table = load_text_vectors(path)
        assert table.get("the").base is table.get("cat").base
        assert table.get("the").base.shape == (3, 2)


class TestLateBadLine:
    """A bad line after 20,000 good ones is still named, whatever the fault."""

    GOOD = 20_000

    def write(self, path, last: bytes):
        good = b"".join(b"w%d 0.5 -1.25\n" % i for i in range(self.GOOD))
        path.write_bytes(good + last + b"\n")
        return path

    @pytest.mark.parametrize("last, message", [
        (b"\xff 1 2", "not valid UTF-8"),
        (b"bad 1 x", "non-numeric component"),
        (b"bad 1_0 2", "non-numeric component"),
        (b"bad inf 2", "non-finite component"),
        (b"bad 1 nan", "non-finite component"),
        (b"bad 1 2 3", "expected 2 components, found 3"),
    ])
    def test_line_20001_is_named(self, tmp_path, last, message):
        path = self.write(tmp_path / "late.txt", last)
        with pytest.raises(DataFormatError, match=rf"late\.txt line 20001: {message}"):
            load_text_vectors(path)


# Components as vector files print them: fixed width, Python's repr and %g.
FORMATS = {"fixed": "{:+.5f}".format, "repr": repr, "g": "{:.6g}".format}
VALUES = {"fixed": st.floats(-1, 1), "repr": st.floats(allow_nan=False, allow_infinity=False),
          "g": st.floats(-1e300, 1e300)}
WORDS = st.text(st.characters(blacklist_characters=" \n\r", blacklist_categories=("Cs",)),
                max_size=5)


@st.composite
def vector_files(draw):
    """A valid table: its text lines and format."""
    style = draw(st.sampled_from(sorted(FORMATS)))
    dim = draw(st.integers(1, 5))
    pool = draw(st.lists(WORDS, min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(st.sampled_from(pool),
                                   st.lists(VALUES[style], min_size=dim, max_size=dim)),
                         min_size=1, max_size=12))
    lines = [" ".join([word] + [FORMATS[style](v) for v in values]) for word, values in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    format = draw(st.sampled_from(["glove_text", "w2v_text"]))
    if format == "w2v_text":
        lines.insert(0, f"{len(rows)} {dim}")
    return lines, format


def write_lines(path, lines, ending, final):
    path.write_bytes((ending.join(lines) + (ending if final else "")).encode(
        "utf-8", "surrogateescape"))


def mutate(draw, lines, format):
    """Break one vector line of a valid table in one of the ways a file goes bad."""
    first = 1 if format == "w2v_text" else 0
    candidates = [i for i in range(first, len(lines)) if lines[i]]
    i = draw(st.sampled_from(candidates))
    word, *parts = lines[i].split(" ")
    kinds = ["non_numeric", "non_finite", "drop", "extra", "empty", "trailing_space",
             "word_only", "bad_utf8"] + (["count"] if first else [])
    kind = draw(st.sampled_from(kinds))
    if not parts and kind in ("non_numeric", "non_finite", "drop"):
        return  # a line holding only its word is already broken
    k = draw(st.integers(0, max(len(parts) - 1, 0)))
    if kind == "non_numeric":
        parts[k] = draw(st.sampled_from(["x", "1#x", "0x10", "1e", "--1", "1.2.3", "\t",
                                         '"1"', "1\x00", "1\t2", "nan1"]))
    elif kind == "non_finite":
        parts[k] = draw(st.sampled_from(["inf", "-inf", "nan", "Infinity", "-NaN", "1e999"]))
    elif kind == "drop":
        del parts[k]
    elif kind == "extra":
        parts.insert(k, "0.5")
    elif kind == "empty":
        parts.insert(k, "")
    elif kind == "trailing_space":
        parts.append("")
    elif kind == "word_only":
        parts = []
    elif kind == "bad_utf8":
        word += "\udcff"
    elif kind == "count":
        count, header_dim = lines[0].split(" ")
        lines[0] = f"{int(count) + draw(st.sampled_from([-1, 1]))} {header_dim}"
        return
    lines[i] = " ".join([word] + parts) or "w"  # an empty line would be a blank one


def outcome(load, path, format):
    """What a loader makes of a file: the table's contents, or its error message."""
    try:
        table = load(path, format=format)
    except DataFormatError as exc:
        return str(exc)
    return (table.dim, table.duplicates, table.name,
            [(word, vector.tobytes()) for word, vector in table.entries.items()])


class TestAgainstTheOracle:
    """The one-pass parse equals the per-line ``float`` loader it replaced."""

    @given(table=vector_files(), ending=st.sampled_from(["\n", "\r\n"]), final=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_valid_tables_load_bit_identically(self, tmp_path_factory, table, ending, final):
        lines, format = table
        path = tmp_path_factory.mktemp("valid") / "v.txt"
        write_lines(path, lines, ending, final)
        want = outcome(oracle_io.load_text_vectors, path, format)
        assert not isinstance(want, str)
        assert outcome(load_text_vectors, path, format) == want

    @given(table=vector_files(), data=st.data(), ending=st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300, deadline=None)
    def test_broken_tables_name_the_same_line(self, tmp_path_factory, table, data, ending):
        """Both refuse with the same message; a mutation that leaves the table
        valid (a longer only line, say) must load the same in both."""
        lines, format = table
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(data.draw, lines, format)
        path = tmp_path_factory.mktemp("broken") / "v.txt"
        write_lines(path, lines, ending, True)
        assert outcome(load_text_vectors, path, format) == outcome(
            oracle_io.load_text_vectors, path, format)


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
        with pytest.raises(ValueError, match="1-D row indices"):
            EmbeddingMatrix(VocabularyStore(3), np.zeros((2, 2), dtype=np.intp))


# a token: text of any kind (the pad token among it), or one of a few short words
TOKENS = st.one_of(st.text(min_size=1, max_size=6),
                   st.sampled_from([PAD_TOKEN, "a", "b", "cd", "é", "a b"]))


class TestVocabularyStore:
    @given(words=st.lists(TOKENS, max_size=30),
           dims=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           seqs=st.lists(st.lists(TOKENS, max_size=45), min_size=1, max_size=12),
           max_len=st.integers(1, 45),
           policy=st.one_of(st.just(OovPolicy()),
                            st.builds(OovPolicy, kind=st.just("seeded_uniform"),
                                      seed=st.integers(0, 2**32)),
                            st.builds(OovPolicy, kind=st.just("seeded_uniform"),
                                      low=st.floats(-1, 0), high=st.floats(0, 1),
                                      seed=st.integers(0, 9))))
    @settings(max_examples=200, deadline=None)
    def test_gathered_matrices_have_the_bytes_of_the_dense_build(self, words, dims, seqs,
                                                                 max_len, policy):
        """Every matrix one embedder builds, read again after later builds have
        grown the store, equals the dense oracle byte for byte."""
        tables = [table_from(words[i::len(dims)], d, seed=i, name=f"t{i}")
                  for i, d in enumerate(dims)]
        emb = UnifiedEmbedder(tables, policy)
        seqs = [pad_truncate(tokens, max_len=max_len) for tokens in seqs]
        built = [emb.build_matrix(seq) for seq in seqs]
        for seq, m in zip(seqs, built):
            want = oracle_io.build_matrix(emb, seq)
            assert (m.rows, m.cols) == want.shape
            assert m.data.dtype == want.dtype and m.data.tobytes() == want.tobytes()
        distinct = {t for seq in seqs for t in seq.tokens} | {PAD_TOKEN}
        assert set(emb.store.rows) == distinct

    def test_each_token_is_embedded_once(self, monkeypatch):
        emb = UnifiedEmbedder([table_from(["a"], 3)], OovPolicy(kind="seeded_uniform"))
        embedded = []
        monkeypatch.setattr(emb, "embed_token",
                            lambda token, _embed=emb.embed_token: embedded.append(token)
                            or _embed(token))
        for tokens in (["a", "b", "a"], ["b", "c"], ["c", "a"]):
            emb.build_matrix(pad_truncate(tokens, max_len=5))
        assert embedded == ["a", "b", "c"]
        assert emb.store.rows == {PAD_TOKEN: 0, "a": 1, "b": 2, "c": 3}
        assert not emb.store.matrix[0].any()

    def test_every_matrix_reads_the_same_rows_after_the_store_grows(self):
        """300 tokens grow the store from 64 rows to 128, 256 and 512."""
        emb = UnifiedEmbedder([table_from(["w0", "w5"], 4)], OovPolicy(kind="seeded_uniform"))
        seqs = [pad_truncate([f"w{j}" for j in range(i, i + 5)], max_len=6)
                for i in range(0, 300, 5)]
        built = [emb.build_matrix(seq) for seq in seqs]
        assert emb.store.matrix.shape == (512, 4) and len(emb.store.rows) == 301
        for seq, m in zip(seqs, built):
            assert m.data.tobytes() == oracle_io.build_matrix(emb, seq).tobytes()

    def test_the_store_grows_with_the_vocabulary_not_the_record_count(self):
        """Paper widths: 40 rows of 3 x 300 columns.  A record keeps its 40 row
        indices (320 bytes) and two small objects, under 1 KB, where the dense
        matrix took 288 KB; 60 more distinct tokens take 60 more store rows."""
        words = [f"w{i}" for i in range(120)]
        tables = [table_from(words, 300, seed=i, name=f"t{i}") for i in range(3)]

        def retained(n_records, vocab):
            seqs = [pad_truncate([words[(7 * i + k) % vocab] for k in range(9)], max_len=40)
                    for i in range(n_records)]
            emb = UnifiedEmbedder(tables)
            tracemalloc.start()
            try:
                built = [emb.build_matrix(seq) for seq in seqs]
                current = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(built) == n_records and len(emb.store.rows) == vocab + 1
            return current

        row_bytes = 900 * 8
        assert retained(400, 60) - retained(200, 60) < 200 * 1024
        assert retained(200, 120) - retained(200, 60) >= 60 * row_bytes

