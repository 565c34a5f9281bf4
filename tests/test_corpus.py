"""Dataset parsing, edit application, tokenization, and binning tests."""

import csv
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iben import corpus
from iben.corpus import (
    DEFAULT_MAX_LEN,
    PAD_TOKEN,
    HeadlineRecord,
    StopList,
    apply_edit,
    default_stoplist,
    grade_histogram,
    pad_truncate,
    parse_dataset,
    prepare,
    remove_stopwords,
    tokenize,
)
from iben.errors import DataFormatError

ROW1_ORIGINAL = "Trump wants you to take his <tweets/> seriously. His aides don't"


def make_record(original=ROW1_ORIGINAL, substitute="hair",
                grades=(3, 3, 3, 3, 2), mean=2.8, record_id="1"):
    return HeadlineRecord(id=record_id, original=original, substitute=substitute,
                          grades=tuple(grades), mean_grade=mean)


def write_csv(path, rows, header=("id", "original", "edit", "grades", "meanGrade")):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)
    return path


class TestHeadlineRecord:
    def test_valid_record(self):
        r = make_record()
        assert r.substitute == "hair"
        assert r.mean_grade == 2.8
        assert r.grades == (3, 3, 3, 3, 2)

    def test_all_zero_grades(self):
        r = make_record(grades=(0, 0, 0, 0, 0), mean=0.0)
        assert r.mean_grade == 0.0

    def test_mean_consistency_enforced(self):
        make_record(grades=(3, 3, 3, 3, 3), mean=3.0)  # passes
        with pytest.raises(DataFormatError):
            make_record(grades=(3, 3, 3, 3, 3), mean=2.9)

    def test_exactly_one_edit_span_required(self):
        with pytest.raises(DataFormatError):
            make_record(original="no span at all")
        with pytest.raises(DataFormatError):
            make_record(original="two <spans/> in one <line/>")

    def test_stray_angle_bracket_rejected(self):
        with pytest.raises(DataFormatError):
            make_record(original="a <tweets/> and a < stray bracket")

    def test_grade_out_of_range_rejected(self):
        with pytest.raises(DataFormatError):
            make_record(grades=(4, 0, 0, 0, 0), mean=0.8)

    def test_empty_grades_rejected(self):
        with pytest.raises(DataFormatError):
            make_record(grades=(), mean=0.0)


class TestParseDataset:
    def test_parses_a_well_formed_file(self, tmp_path):
        path = write_csv(tmp_path / "data.csv", [
            ("1", ROW1_ORIGINAL, "hair", "33332", "2.8"),
            ("2", "Scientists find <fish/> on Mars", "cheese", "00000", "0.0"),
        ])
        records = parse_dataset(path)
        assert len(records) == 2
        assert records[0].substitute == "hair"
        assert records[0].mean_grade == 2.8
        assert records[1].grades == (0, 0, 0, 0, 0)

    def test_header_only_file_gives_no_records(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", [])
        assert parse_dataset(path) == []

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            parse_dataset(path)

    def test_missing_column_is_an_error(self, tmp_path):
        path = write_csv(tmp_path / "col.csv", [("1", "a <b/> c", "d")],
                         header=("id", "original", "edit"))
        with pytest.raises(DataFormatError, match="missing columns"):
            parse_dataset(path)

    def test_bad_row_error_names_the_row_number(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", [
            ("1", ROW1_ORIGINAL, "hair", "33332", "2.8"),
            ("2", "no span here", "word", "00000", "0.0"),
        ])
        with pytest.raises(DataFormatError, match="row 3"):
            parse_dataset(path)

    def test_non_digit_grades_rejected(self, tmp_path):
        path = write_csv(tmp_path / "g.csv",
                         [("1", ROW1_ORIGINAL, "hair", "3a332", "2.8")])
        with pytest.raises(DataFormatError, match="row 2"):
            parse_dataset(path)

    def test_grade_digit_above_three_rejected(self, tmp_path):
        path = write_csv(tmp_path / "g4.csv",
                         [("1", ROW1_ORIGINAL, "hair", "93332", "4.0")])
        with pytest.raises(DataFormatError):
            parse_dataset(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("id,original,edit,grades,meanGrade\n1,only three,fields\n")
        with pytest.raises(DataFormatError, match="row 2"):
            parse_dataset(path)

    @pytest.mark.parametrize("corruption", [
        {"grades": ""},           # no grades at all
        {"grades": "3-332"},      # stray character
        {"meanGrade": "high"},    # non-numeric mean
        {"meanGrade": "nan"},     # non-finite mean
        {"original": "span <a/> and <b/> twice"},
        {"original": "span-free headline"},
    ])
    def test_fuzzed_corrupt_rows_are_rejected(self, tmp_path, corruption):
        row = {"id": "1", "original": ROW1_ORIGINAL, "edit": "hair",
               "grades": "33332", "meanGrade": "2.8"}
        row.update(corruption)
        path = write_csv(tmp_path / "fuzz.csv",
                         [(row["id"], row["original"], row["edit"],
                           row["grades"], row["meanGrade"])])
        with pytest.raises(DataFormatError):
            parse_dataset(path)


class TestApplyEdit:
    def test_edited_variant_substitutes_the_span(self):
        r = make_record()
        assert apply_edit(r, "edited") == \
            "Trump wants you to take his hair seriously. His aides don't"

    def test_original_variant_keeps_the_marked_word(self):
        r = make_record()
        assert apply_edit(r, "original") == \
            "Trump wants you to take his tweets seriously. His aides don't"

    def test_identity_substitution(self):
        r = make_record(substitute="tweets")
        assert apply_edit(r, "edited") == apply_edit(r, "original")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            apply_edit(make_record(), "both")

    def test_variants_differ_exactly_at_the_span(self):
        """Common prefix/suffix around the marked word, nothing else."""
        r = make_record(original="A <b/> c d", substitute="xyz",
                        grades=(1,), mean=1.0)
        before = apply_edit(r, "original")
        after = apply_edit(r, "edited")
        assert before == "A b c d"
        assert after == "A xyz c d"
        assert before.startswith("A ") and after.startswith("A ")
        assert before.endswith(" c d") and after.endswith(" c d")

    def test_no_markers_remain(self):
        r = make_record()
        for variant in ("original", "edited"):
            text = apply_edit(r, variant)
            assert "<" not in text and ">" not in text


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("Trump wants you.") == ["trump", "wants", "you"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_internal_hyphen_kept_edge_punctuation_stripped(self):
        assert tokenize("Nagorno-Karabakh fighting: Officials") == \
            ["nagorno-karabakh", "fighting", "officials"]

    def test_pure_punctuation_tokens_dropped(self):
        assert tokenize("hello , world ! ?") == ["hello", "world"]

    def test_output_is_lowercase(self):
        for tok in tokenize("MIXED Case TEXT here"):
            assert tok == tok.lower()


class TestStopwords:
    def test_hand_filtration(self):
        tokens = ["trump", "wants", "you", "to", "take", "his", "hair"]
        assert remove_stopwords(tokens, default_stoplist()) == \
            ["trump", "wants", "take", "hair"]

    def test_empty_list(self):
        assert remove_stopwords([], default_stoplist()) == []

    def test_no_stopwords_is_identity(self):
        tokens = ["quantum", "headline", "cheese"]
        assert remove_stopwords(tokens, default_stoplist()) == tokens

    def test_bundled_list_is_a_plausible_english_stoplist(self):
        stop = default_stoplist()
        assert len(stop) > 100
        for w in ("the", "is", "a", "of", "and"):
            assert w in stop

    def test_stoplist_file_roundtrip(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment line\nfoo\nbar\n\n")
        stop = StopList.from_file(path)
        assert "foo" in stop and "bar" in stop and "# comment line" not in stop
        assert len(stop) == 2

    def test_bad_entries_rejected(self):
        with pytest.raises(DataFormatError):
            StopList(["Upper"])
        with pytest.raises(DataFormatError):
            StopList(["two words"])
        with pytest.raises(DataFormatError):
            StopList([])


class TestPadTruncate:
    def test_short_input_padded(self):
        seq = pad_truncate(["a"] * 7)
        assert len(seq.tokens) == DEFAULT_MAX_LEN
        assert sum(t != PAD_TOKEN for t in seq.tokens) == 7
        assert seq.tokens[7:] == (PAD_TOKEN,) * 33

    def test_exact_length_unchanged(self):
        tokens = [f"t{i}" for i in range(40)]
        seq = pad_truncate(tokens)
        assert seq.tokens == tuple(tokens)
        assert sum(t != PAD_TOKEN for t in seq.tokens) == 40

    def test_long_input_keeps_the_head(self):
        tokens = [f"t{i}" for i in range(45)]
        seq = pad_truncate(tokens)
        assert seq.tokens == tuple(tokens[:40])
        assert sum(t != PAD_TOKEN for t in seq.tokens) == 40

    def test_max_len_below_one_rejected(self):
        with pytest.raises(ValueError):
            pad_truncate(["a"], max_len=0)

    @given(st.lists(st.text("abcdefg", min_size=1, max_size=6), max_size=100),
           st.integers(min_value=1, max_value=60))
    @settings(max_examples=120, deadline=None)
    def test_output_length_always_max_len(self, tokens, max_len):
        seq = pad_truncate(tokens, max_len)
        real = sum(t != PAD_TOKEN for t in seq.tokens)
        assert len(seq.tokens) == max_len
        assert real == min(len(tokens), max_len)
        assert seq.tokens[:real] == tuple(tokens[:max_len])
        assert all(t == PAD_TOKEN for t in seq.tokens[real:])


class TestPrepare:
    def test_full_pipeline_on_the_sample_row(self):
        seq = prepare(make_record(), "edited", default_stoplist(), max_len=10)
        assert "hair" in seq.tokens
        assert "tweets" not in seq.tokens
        assert "his" not in seq.tokens  # stopword gone
        assert len(seq.tokens) == 10

    def test_without_stoplist_keeps_function_words(self):
        seq = prepare(make_record(), "edited", None, max_len=15)
        assert "his" in seq.tokens


class TestGradeHistogram:
    def test_counting_example(self):
        records = [SimpleNamespace(mean_grade=g) for g in (0.0, 0.2, 1.0)]
        assert grade_histogram(records, 1.0) == [(0.0, 2), (1.0, 1), (2.0, 0)]

    def test_empty_records_all_zero_counts(self):
        bins = grade_histogram([], 1.0)
        assert [c for _, c in bins] == [0, 0, 0]

    def test_boundary_is_left_inclusive(self):
        bins = grade_histogram([SimpleNamespace(mean_grade=1.0)], 1.0)
        assert bins == [(0.0, 0), (1.0, 1), (2.0, 0)]

    def test_top_edge_lands_in_the_last_bin(self):
        bins = grade_histogram([SimpleNamespace(mean_grade=3.0)], 0.2)
        assert bins[-1][1] == 1
        assert sum(c for _, c in bins) == 1

    def test_default_width_has_fifteen_bins(self):
        assert len(grade_histogram([], 0.2)) == 15

    def test_bin_width_must_be_positive(self):
        with pytest.raises(ValueError):
            grade_histogram([], 0.0)

    @given(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=8),
                    max_size=30),
           st.sampled_from([0.2, 0.25, 0.3, 0.5, 0.7, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_rational_binning(self, grade_lists, width):
        """Oracle: redo the binning in exact Fraction arithmetic."""
        means = [Fraction(sum(g), len(g)) for g in grade_lists]
        records = [SimpleNamespace(mean_grade=float(m)) for m in means]
        bins = grade_histogram(records, width)

        wf = Fraction(str(width))
        n_bins = 1
        while n_bins * wf < 3:
            n_bins += 1
        assert len(bins) == n_bins
        expect = [0] * n_bins
        for m in means:
            expect[min(int(m / wf), n_bins - 1)] += 1
        assert [c for _, c in bins] == expect
        assert sum(c for _, c in bins) == len(records)


class TestPipelineInvariants:
    def test_tokenized_edits_are_clean(self):
        """Lowercase, marker-free tokens for both variants of real records."""
        records = [
            make_record(),
            make_record(original="U.S. <Senate/> Votes: No", substitute="Llama",
                        grades=(1, 2), mean=1.5, record_id="2"),
            make_record(original="<Liftoff/>!", substitute="Naptime",
                        grades=(3,), mean=3.0, record_id="3"),
        ]
        for r in records:
            for variant in ("original", "edited"):
                for tok in tokenize(apply_edit(r, variant)):
                    assert tok == tok.lower()
                    assert "<" not in tok and ">" not in tok
