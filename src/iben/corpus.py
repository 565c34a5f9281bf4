"""Headline dataset parsing, micro-edit application, and token pipeline.

A dataset row carries a headline with exactly one ``<word/>`` edit span,
the substitute word, the judge grades as a string of ASCII digits, and
their mean.
The pipeline lowercases, splits on whitespace, strips edge punctuation,
optionally drops stopwords, and pads or truncates to a fixed length.
"""

from __future__ import annotations

import csv
import math
import re
import string
from dataclasses import dataclass
from importlib import resources

from .errors import DataFormatError, open_text

PAD_TOKEN = "<pad>"
DEFAULT_MAX_LEN = 40
MIN_BIN_WIDTH = 0.001  # at most 3,000 histogram bins over [0, 3]

_SPAN_RE = re.compile(r"<([^<>]*)/>")
_EDGE_PUNCT = string.punctuation


@dataclass(frozen=True)
class HeadlineRecord:
    """One dataset row, validated against its invariants."""

    id: str
    original: str
    substitute: str
    grades: tuple[int, ...]
    mean_grade: float

    def __post_init__(self):
        spans = _SPAN_RE.findall(self.original)
        if len(spans) != 1:
            raise DataFormatError(
                f"record {self.id!r}: expected exactly one <word/> span, found {len(spans)}"
            )
        stripped = _SPAN_RE.sub("", self.original)
        if "<" in stripped or ">" in stripped:
            raise DataFormatError(
                f"record {self.id!r}: stray angle bracket outside the edit span"
            )
        if not self.grades:
            raise DataFormatError(f"record {self.id!r}: empty grade list")
        for g in self.grades:
            if g not in (0, 1, 2, 3):
                raise DataFormatError(f"record {self.id!r}: grade {g} outside 0-3")
        mean = sum(self.grades) / len(self.grades)
        if abs(self.mean_grade - mean) > 1e-6:
            raise DataFormatError(
                f"record {self.id!r}: meanGrade {self.mean_grade} != mean of grades {mean}"
            )


@dataclass(frozen=True)
class TokenSequence:
    """A token list, pads included; every token other than the pad token is real."""

    tokens: tuple[str, ...]


class StopList:
    """Set of lowercase stopwords loaded from a one-word-per-line file."""

    def __init__(self, words):
        cleaned = set()
        for w in words:
            if not w or w != w.lower() or any(c.isspace() for c in w):
                raise DataFormatError(f"bad stoplist entry {w!r}")
            cleaned.add(w)
        if not cleaned:
            raise DataFormatError("stoplist is empty")
        self.words = frozenset(cleaned)

    def __contains__(self, token: str) -> bool:
        return token in self.words

    def __len__(self) -> int:
        return len(self.words)

    @classmethod
    def from_file(cls, path) -> "StopList":
        with open_text(path) as fh:
            return cls.from_lines(fh)

    @classmethod
    def from_lines(cls, lines) -> "StopList":
        words = []
        for line in lines:
            line = line.strip()
            if line and not line.startswith("#"):
                words.append(line)
        return cls(words)


def default_stoplist() -> StopList:
    """The stoplist bundled with the package."""
    text = resources.files("iben").joinpath("data/stopwords.txt").read_text("utf-8")
    return StopList.from_lines(text.splitlines())


def parse_dataset(path) -> list[HeadlineRecord]:
    """Read a headline CSV with columns id, original, edit, grades, meanGrade.

    A row the ``csv`` module cannot split, such as one with a field longer
    than ``csv.field_size_limit()``, raises :class:`DataFormatError` naming it.
    """
    required = ("id", "original", "edit", "grades", "meanGrade")
    records = []
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = None
        try:
            header = reader.fieldnames
            if header is None:
                raise DataFormatError(f"{path}: empty file, expected a CSV header")
            missing = [c for c in required if c not in header]
            if missing:
                raise DataFormatError(f"{path}: header is missing columns {missing}")
            for lineno, row in enumerate(reader, start=2):
                if any(row.get(c) is None for c in required) or row.get(None):
                    raise DataFormatError(f"{path} row {lineno}: wrong column count")
                try:
                    records.append(_parse_row(row))
                except DataFormatError as exc:
                    raise DataFormatError(f"{path} row {lineno}: {exc}") from exc
        except csv.Error as exc:
            row = 1 if header is None else len(records) + 2
            raise DataFormatError(f"{path} row {row}: {exc}") from exc
    return records


def _parse_row(row) -> HeadlineRecord:
    grades_str = row["grades"].strip()
    if not (grades_str.isascii() and grades_str.isdigit()):  # only 0-9, not ² or ٣
        raise DataFormatError(f"grades {row['grades']!r} is not a string of the digits 0-9")
    grades = tuple(int(c) for c in grades_str)
    try:
        mean_grade = float(row["meanGrade"])
    except ValueError:
        raise DataFormatError(f"meanGrade {row['meanGrade']!r} is not a number") from None
    if not math.isfinite(mean_grade):
        raise DataFormatError(f"meanGrade {row['meanGrade']!r} is not finite")
    return HeadlineRecord(
        id=row["id"].strip(),
        original=row["original"],
        substitute=row["edit"].strip(),
        grades=grades,
        mean_grade=mean_grade,
    )


def apply_edit(record: HeadlineRecord, variant: str) -> str:
    """Resolve the edit span: keep the marked word or swap in the substitute."""
    if variant == "edited":
        return _SPAN_RE.sub(lambda m: record.substitute, record.original, count=1)
    if variant == "original":
        return _SPAN_RE.sub(lambda m: m.group(1), record.original, count=1)
    raise ValueError(f"variant must be 'original' or 'edited', got {variant!r}")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, drop empties."""
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(_EDGE_PUNCT)
        if token:
            tokens.append(token)
    return tokens


def remove_stopwords(tokens, stoplist: StopList) -> list[str]:
    return [t for t in tokens if t not in stoplist]


def pad_truncate(tokens, max_len: int = DEFAULT_MAX_LEN) -> TokenSequence:
    """Clip to max_len or fill with pad tokens; truncation keeps the head."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    tokens = tuple(tokens)[:max_len]
    return TokenSequence(tokens + (PAD_TOKEN,) * (max_len - len(tokens)))


def prepare(record: HeadlineRecord, variant: str, stoplist: StopList | None,
            max_len: int = DEFAULT_MAX_LEN) -> TokenSequence:
    """Full per-record pipeline: edit, tokenize, filter, pad."""
    tokens = tokenize(apply_edit(record, variant))
    if stoplist is not None:
        tokens = remove_stopwords(tokens, stoplist)
    return pad_truncate(tokens, max_len)


def grade_histogram(records, bin_width: float) -> list[tuple[float, int]]:
    """Counts of mean grades in left-inclusive bins covering [0, 3].

    The top edge (grade 3.0) falls into the last bin.  Values within
    1e-9 * bin_width below a boundary count as on the boundary, so the
    exact decimal grades of the task data bin as written.  The width must
    be finite and at least :data:`MIN_BIN_WIDTH`.
    """
    if not MIN_BIN_WIDTH <= bin_width < math.inf:
        raise ValueError(f"bin width {bin_width:g} is not a finite number of at least "
                         f"{MIN_BIN_WIDTH:g}")
    n_bins = 1
    while n_bins * bin_width < 3.0 - 1e-9 * bin_width:
        n_bins += 1
    counts = [0] * n_bins
    for record in records:
        idx = int(math.floor(record.mean_grade / bin_width + 1e-9))
        idx = min(max(idx, 0), n_bins - 1)
        counts[idx] += 1
    return [(i * bin_width, counts[i]) for i in range(n_bins)]
