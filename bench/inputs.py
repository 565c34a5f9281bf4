"""Seeded synthetic raw inputs for one benchmark workload.

Run as a script, it writes the files `iben train` reads into a directory:
``train.csv`` and ``dev.csv`` (headline edits), ``train.hs`` and ``dev.hs``
(hidden-state containers made with ``pseudo_encode``, as ``iben preprocess``
followed by ``iben pseudo-encode`` makes them), and ``table<i>.txt`` word
vectors.  Nothing is downloaded, and a (workload, seed) pair always gives
the same bytes.

    python3 bench/inputs.py --workload train_paper --seed 1 --out DIR

The ``headlines`` source draws words, headline lengths and the edit from the
seed.  Headline lengths and mean grades are a fixed multiset that the seed
only permutes, so every seed gives containers of the same size and the same
target distribution.  The ``criterion4`` source rebuilds the inputs of the
overfit acceptance criterion, which do not depend on the seed; its targets
are rounded to the 0.2 grid that five judges' grades can express.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

HEAD_LENGTHS = (6, 7, 8, 9, 10)  # content words per headline, cycled
GRADE_SUMS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 5, 10)  # five judges
STOPWORDS = ("the", "of", "on", "a")  # in the bundled stoplist; removed by prepare
VALUE_SCALE = 100000  # table components are written as +-0.ddddd


def _letters(rng, n: int, low: int, high: int, alphabet: str) -> list[str]:
    chars = np.array(list(alphabet))
    return ["".join(chars[rng.integers(0, len(chars), int(rng.integers(low, high)))])
            for _ in range(n)]


def vocabulary(seed: int, size: int, stoplist) -> list[str]:
    """Distinct dataset words; none is a stopword or starts with 'z'."""
    rng = np.random.default_rng([seed, 1])
    words: list[str] = []
    seen = set()
    while len(words) < size:
        for w in _letters(rng, size, 3, 10, "abcdefghijklmnopqrstuvwxy"):
            if w not in seen and w not in stoplist and len(words) < size:
                seen.add(w)
                words.append(w)
    return words


def _grades(total: int) -> str:
    digits = [3] * (total // 3) + ([total % 3] if total % 3 else [])
    return "".join(str(d) for d in digits + [0] * (5 - len(digits)))


def headline_rows(seed: int, split: str, n: int, vocab: list[str]) -> list[dict]:
    """CSV rows: one stopword and one ``<word/>`` edit span per headline."""
    rng = np.random.default_rng([seed, 2 if split == "train" else 3])
    lengths = rng.permutation(np.resize(HEAD_LENGTHS, n))
    sums = rng.permutation(np.resize(GRADE_SUMS, n))
    rows = []
    for i in range(n):
        words = [vocab[j] for j in rng.integers(0, len(vocab), int(lengths[i]))]
        edit_at = int(rng.integers(0, len(words)))
        substitute = vocab[int(rng.integers(0, len(vocab)))]
        words[edit_at] = f"<{words[edit_at]}/>"
        words.insert(int(rng.integers(0, len(words) + 1)),
                     STOPWORDS[int(rng.integers(0, len(STOPWORDS)))])
        grades = _grades(int(sums[i]))
        rows.append({"id": f"{split}{i}", "original": " ".join(words).capitalize(),
                     "edit": substitute, "grades": grades,
                     "meanGrade": repr(int(sums[i]) / 5)})
    return rows


def criterion4_rows() -> list[dict]:
    """The 16 headlines of acceptance criterion 4, with grid-rounded targets."""
    rng = np.random.default_rng(2024)
    pool = [f"word{i}" for i in range(40)]
    rows = []
    for i in range(16):
        tokens = [pool[int(j)] for j in rng.integers(0, 40, size=int(rng.integers(3, 8)))]
        total = min(15, max(0, round(float(rng.uniform(0, 3)) * 5)))
        rows.append({"id": f"h{i}", "original": " ".join(["<was/>"] + tokens[1:]),
                     "edit": tokens[0], "grades": _grades(total),
                     "meanGrade": repr(total / 5)})
    return rows


def table_values(seed: int, index: int, rows: int, dim: int) -> np.ndarray:
    """Integer components of table ``index``; value = integer / VALUE_SCALE."""
    rng = np.random.default_rng([seed, 10 + index])
    return rng.integers(-VALUE_SCALE // 2, VALUE_SCALE // 2 + 1, size=(rows, dim))


def table_words(seed: int, index: int, used: list[str], filler_rows: int) -> list[str]:
    """Row order of table ``index``: the dataset words plus 'z' fillers, shuffled.

    Table 1 leaves out every tenth dataset word, so the OOV policy fills it.
    """
    words = [w for k, w in enumerate(used) if index != 1 or k % 10 != 9]
    words += [f"z{k:07d}" for k in range(filler_rows)]
    order = np.random.default_rng([seed, 20 + index]).permutation(len(words))
    return [words[k] for k in order]


def _encode_values(values: np.ndarray) -> list[bytes]:
    """Fixed-width ' +0.ddddd' text for each row of integer components."""
    rows, dim = values.shape
    mag = np.abs(values)
    cells = np.empty((rows, dim, 9), dtype=np.uint8)
    cells[..., 0] = ord(" ")
    cells[..., 1] = np.where(values < 0, ord("-"), ord("+"))
    cells[..., 2] = ord("0")
    cells[..., 3] = ord(".")
    for k in range(5):
        cells[..., 8 - k] = ord("0") + (mag // 10 ** k) % 10
    flat = cells.reshape(rows, dim * 9)
    return [flat[r].tobytes() for r in range(rows)]


def write_csv(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["id", "original", "edit", "grades",
                                                "meanGrade"])
        writer.writeheader()
        writer.writerows(rows)


def write_inputs(workload, seed: int, out: Path) -> None:
    from iben import bertfuse, corpus, wordvec

    stop = corpus.default_stoplist()
    if workload.source == "criterion4":
        seed, hs_seed = 0, 3  # criterion 4's inputs ignore the workload seed
        splits = {"train": criterion4_rows()}
    else:
        hs_seed = seed
        vocab = vocabulary(seed, workload.vocab_pool, stop)
        splits = {"train": headline_rows(seed, "train", workload.n_train, vocab),
                  "dev": headline_rows(seed, "dev", workload.n_dev, vocab)}

    max_len = workload.config["max_len"]
    used: list[str] = []
    for split, rows in splits.items():
        write_csv(rows, out / f"{split}.csv")
        stacks = []
        for r in corpus.parse_dataset(out / f"{split}.csv"):
            seq = corpus.prepare(r, "edited", stop, max_len)
            used += [t for t in seq.tokens if t != corpus.PAD_TOKEN]
            stacks.append(bertfuse.pseudo_encode(seq, workload.layers, workload.hidden,
                                                 hs_seed, stack_id=r.id))
        bertfuse.write_hs_file(stacks, out / f"{split}.hs")
        del stacks
    used = sorted(set(used))

    for i, (dim, fmt) in enumerate(zip(workload.table_dims, workload.table_formats)):
        words = table_words(seed, i, used, workload.filler_rows)
        if workload.source == "criterion4":
            # criterion 4 embeds every token with seeded OOV fills; writing
            # those vectors exactly (repr round-trips) keeps its numbers
            o = workload.config["oov"]
            fill = wordvec.UnifiedEmbedder(
                [wordvec.WordVectorTable(dim, {})],
                wordvec.OovPolicy(kind=o["kind"], low=o["low"], high=o["high"],
                                  seed=o["seed"]))
            lines = [(w + " " + " ".join(repr(float(v)) for v in fill.embed_token(w))
                      ).encode() for w in words]
        else:
            encoded = _encode_values(table_values(seed, i, len(words), dim))
            lines = [w.encode() + row for w, row in zip(words, encoded)]
        with open(out / f"table{i}.txt", "wb") as fh:
            if fmt == "w2v_text":
                fh.write(f"{len(words)} {dim}\n".encode())
            fh.write(b"\n".join(lines) + b"\n")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    write_inputs(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.exit(main())
