"""Metamorphic relations of the commands: related inputs give related
outputs. Each relation is checked through the CLI in-process on small
seeded mixed corpora, for every cost configuration of `pmi` and `align`."""

import functools
import json
import os
import random
import tempfile
import unicodedata

import pytest

from dialign.cli import main
from dialign.synth import make_coords, make_group_map, make_mixed_corpus

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
def run(command: tuple, **inputs: str) -> dict:
    """Every output of one run by file name, each input given as the text
    of the file its option names. The manifest is read without its input
    digests and with the run's directory left out of its paths."""
    with tempfile.TemporaryDirectory() as tmp:
        out, argv = os.path.join(tmp, "o"), list(command)
        for option, text in inputs.items():
            path = os.path.join(tmp, option)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            argv += [f"--{option}", path]
        assert main([*argv, "--out-dir", out]) == 0
        files = {}
        for name in os.listdir(out):
            with open(os.path.join(out, name), "rb") as f:
                files[name] = f.read()
        manifest = json.loads(files["run_manifest.json"].decode().replace(tmp, ""))
        del manifest["inputs"]
        files["run_manifest.json"] = manifest
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
    base, moved = run(command, corpus=corpus), run(command, corpus=renamed)
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
    assert run(command, corpus=shuffled) == run(command, corpus=corpus)


def nfd(text: str) -> str:
    return unicodedata.normalize("NFD", text)


def accented(corpus: str) -> str:
    """The corpus in NFC with 'ô' in its location names, 'ŵ' in its word
    names and 'ç' for each 's' of its transcriptions: each has a canonical
    decomposition."""
    header, *rows = (line.split("\t") for line in corpus.splitlines())
    for row in rows:
        row[0] = row[0].replace("loc", "lôc")
        row[1], row[4] = (name.replace("w", "ŵ") for name in (row[1], row[4]))
        row[3] = row[3].replace("s", "ç")
    return "\n".join("\t".join(row) for row in [header, *rows]) + "\n"


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
@pytest.mark.parametrize("seed", SEEDS)
def test_nfd_inputs_give_the_outputs_of_nfc_inputs(seed, command):
    corpus = accented(make_mixed_corpus(seed, 20, 10))
    assert "ç" in corpus and nfd(corpus) != corpus
    assert run(command, corpus=nfd(corpus)) == run(command, corpus=corpus)


@pytest.mark.parametrize("seed", SEEDS)
def test_nfd_report_inputs_give_the_outputs_of_nfc_inputs(seed):
    corpus = accented(make_mixed_corpus(seed, 20, 10))
    records = run(COMMANDS["align-binary"], corpus=corpus)["change_records.csv"]
    inputs = {
        "records": records.decode(),
        "groups": make_group_map(20).replace("loc", "lôc"),
        "coords": make_coords(20).replace("loc", "lôc"),
    }
    assert all(nfd(text) != text for text in inputs.values())
    command = ("report", "--n-perm", "999", "--seed", str(seed))
    base = run(command, **inputs)
    assert set(base) == {"summary.txt", "contrasts.csv", "geo.csv", "run_manifest.json"}
    assert run(command, **{k: nfd(text) for k, text in inputs.items()}) == base
