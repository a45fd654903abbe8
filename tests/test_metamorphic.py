"""Metamorphic relations of `pmi` and `align`: related corpora give
related outputs. Each relation is checked through the CLI in-process on
small seeded mixed corpora, for every cost configuration."""

import functools
import os
import random
import tempfile

import pytest

from dialign.cli import main
from dialign.synth import make_mixed_corpus

SEEDS = (7, 8)

COMMANDS = {
    "pmi": ("pmi", "--max-iter", "3"),
    "align-binary": ("align", "--mode", "binary"),
    "align-binary-unconstrained": ("align", "--mode", "binary", "--unconstrained"),
    "align-pmi": ("align", "--mode", "pmi", "--max-iter", "3"),
    "align-pmi-unconstrained": (
        "align", "--mode", "pmi", "--max-iter", "3", "--unconstrained",
    ),
}


@functools.lru_cache(maxsize=None)
def outputs(corpus: str, command: tuple) -> dict:
    """Every output of one run but run_manifest.json, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "corpus.tsv"), os.path.join(tmp, "o")
        with open(path, "w", encoding="utf-8") as f:
            f.write(corpus)
        assert main([*command, "--corpus", path, "--out-dir", out]) == 0
        files = {}
        for name in os.listdir(out):
            if name != "run_manifest.json":
                with open(os.path.join(out, name), "rb") as f:
                    files[name] = f.read()
        return files


def rename_reversed(corpus: str, columns: tuple) -> tuple[str, dict]:
    """The corpus with the names in the given columns renamed so that
    their sort order reverses ("standard" kept), and the map back."""
    header, *rows = (line.split("\t") for line in corpus.splitlines())
    names = sorted({row[c] for row in rows for c in columns} - {"standard"})
    new = {name: f"n{len(names) - i:03d}" for i, name in enumerate(names)}
    for row in rows:
        for c in columns:
            row[c] = new.get(row[c], row[c])
    text = "\n".join("\t".join(row) for row in [header, *rows]) + "\n"
    return text, {v: k for k, v in new.items()}


def sorted_records(records: bytes, field: int, back: dict) -> list[str]:
    """The header of change_records.csv, then its rows sorted, with the
    name in the given field mapped through ``back``."""
    header, *rows = records.decode("utf-8").splitlines()
    renamed = []
    for row in rows:
        fields = row.split(",")
        fields[field] = back.get(fields[field], fields[field])
        renamed.append(",".join(fields))
    return [header, *sorted(renamed)]


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "columns, field", [((0,), 0), ((1, 4), 1)], ids=["locations", "words"]
)
def test_reversing_the_name_order_renames_the_outputs(seed, command, columns, field):
    # The corpus's word column and cognate_id column hold the same names.
    corpus = make_mixed_corpus(seed, 20, 10)
    renamed, back = rename_reversed(corpus, columns)
    originals = [back[name] for name in sorted(back)]
    assert originals == sorted(originals, reverse=True)
    base, moved = outputs(corpus, command), outputs(renamed, command)
    assert base.keys() == moved.keys()
    if "pmi_table.tsv" in base:
        assert moved["pmi_table.tsv"] == base["pmi_table.tsv"]
    if "change_records.csv" in base:
        assert sorted_records(moved["change_records.csv"], field, back) == (
            sorted_records(base["change_records.csv"], field, {})
        )


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
@pytest.mark.parametrize("seed", SEEDS)
def test_shuffling_the_corpus_lines_changes_no_output(seed, command):
    corpus = make_mixed_corpus(seed, 20, 10)
    header, *rows = corpus.splitlines()
    random.Random(seed).shuffle(rows)
    shuffled = "\n".join([header, *rows]) + "\n"
    assert shuffled != corpus
    assert outputs(shuffled, command) == outputs(corpus, command)
