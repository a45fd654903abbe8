"""Deterministic synthetic corpora for validation and calibration.

The original field transcriptions are not redistributable, so pipeline
claims are checked against generated corpora with known injected change
rates instead. All generators are seeded and reproducible.

Run ``python -m dialign.synth OUTDIR`` to write the bundled benchmark
corpus (injected convergence 0.020, divergence 0.014) plus its group
map and coordinates files.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from .corpus import HEADER

CONSONANTS = "ptkbdgszfvmnlrx"
VOWELS = "aeiouɪʊɛɔə"


def _corpus_tsv(rows) -> str:
    lines = [HEADER]
    for location, word, source, raw in rows:
        lines.append(f"{location}\t{word}\t{source}\t{raw}\t{word}\t-")
    return "\n".join(lines) + "\n"


def make_benchmark_corpus(
    seed: int = 20260823,
    n_locations: int = 24,
    words_per_location: int = 30,
    word_length: int = 10,
    conv_rate: float = 0.020,
    div_rate: float = 0.014,
) -> str:
    """Corpus TSV with known injected convergence/divergence proportions.

    Words are consonant strings, so every substitution is class-legal.
    A convergent cell replaces one older-variant segment (the newer
    variant already matches the standard there); a divergent cell
    replaces one newer-variant segment. Under binary costs each event
    contributes exactly 1/word_length to its measure, so the corpus-wide
    means are conv_rate and div_rate up to event-count rounding.
    """
    rng = random.Random(seed)
    locations = [f"loc{i:02d}" for i in range(1, n_locations + 1)]
    words = [f"w{i:02d}" for i in range(1, words_per_location + 1)]
    base = {
        w: "".join(rng.choice(CONSONANTS) for _ in range(word_length)) for w in words
    }

    cells = [(loc, w) for loc in locations for w in words]
    n_cells = len(cells)
    n_conv = round(conv_rate * word_length * n_cells)
    n_div = round(div_rate * word_length * n_cells)
    assert n_conv + n_div <= n_cells
    order = cells[:]
    rng.shuffle(order)
    conv_cells = set(order[:n_conv])
    div_cells = set(order[n_conv : n_conv + n_div])

    rows = [("standard", w, "standard", base[w]) for w in words]
    for loc, w in cells:
        older = newer = base[w]
        if (loc, w) in conv_cells:
            older = _mutate_one(rng, base[w])
        elif (loc, w) in div_cells:
            newer = _mutate_one(rng, base[w])
        rows.append((loc, w, "older", older))
        rows.append((loc, w, "newer", newer))
    return _corpus_tsv(rows)


def _mutate_one(rng: random.Random, word: str) -> str:
    pos = rng.randrange(len(word))
    alt = rng.choice([c for c in CONSONANTS if c != word[pos]])
    return word[:pos] + alt + word[pos + 1 :]


def _mutate_string(rng: random.Random, s: str, n_edits: int) -> str:
    """Apply random class-preserving substitutions, insertions, deletions."""
    chars = list(s)
    for _ in range(n_edits):
        op = rng.choice(("sub", "ins", "del"))
        if op == "del" and len(chars) > 3:
            del chars[rng.randrange(len(chars))]
        elif op == "ins":
            pool = rng.choice((CONSONANTS, VOWELS))
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(pool))
        else:
            pos = rng.randrange(len(chars))
            pool = CONSONANTS if chars[pos] in CONSONANTS else VOWELS
            alt = [c for c in pool if c != chars[pos]]
            chars[pos] = rng.choice(alt)
    return "".join(chars)


def _random_word(rng: random.Random, length: int) -> str:
    # CV-ish alternation keeps strings pronounceable and class-mixed
    out = []
    for i in range(length):
        out.append(rng.choice(CONSONANTS if i % 2 == 0 else VOWELS))
    return "".join(out)


def make_mixed_corpus(
    seed: int = 7,
    n_locations: int = 20,
    words_per_location: int = 10,
    max_edits: int = 3,
) -> str:
    """Corpus of triples with mixed random edit patterns, for the
    3D-vs-double-2D correlation check and PMI induction at scale."""
    rng = random.Random(seed)
    words = [f"w{i:02d}" for i in range(1, words_per_location + 1)]
    base = {w: _random_word(rng, rng.randint(6, 10)) for w in words}
    rows = [("standard", w, "standard", base[w]) for w in words]
    for i in range(1, n_locations + 1):
        loc = f"loc{i:02d}"
        for w in words:
            older = _mutate_string(rng, base[w], rng.randint(0, max_edits))
            newer = _mutate_string(rng, older, rng.randint(0, max_edits))
            rows.append((loc, w, "older", older))
            rows.append((loc, w, "newer", newer))
    return _corpus_tsv(rows)


def make_group_map(n_locations: int = 24) -> str:
    """Group map splitting locations across the four dialect groups."""
    groups = ["FR"] * 7 + ["DU-FR"] * 3 + ["GR"] * 5 + ["LS"] * (n_locations - 15)
    lines = [
        f"loc{i:02d}\t{groups[(i - 1) % len(groups)]}" for i in range(1, n_locations + 1)
    ]
    return "\n".join(lines) + "\n"


def make_coords(n_locations: int = 24, seed: int = 11) -> str:
    rng = random.Random(seed)
    lines = []
    for i in range(1, n_locations + 1):
        lon = 5.0 + rng.random() * 2.0
        lat = 52.5 + rng.random() * 1.0
        lines.append(f"loc{i:02d}\t{lon:.6f}\t{lat:.6f}")
    return "\n".join(lines) + "\n"


def write_benchmark(outdir) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "corpus.tsv").write_text(make_benchmark_corpus(), encoding="utf-8")
    (outdir / "groups.tsv").write_text(make_group_map(), encoding="utf-8")
    (outdir / "coords.tsv").write_text(make_coords(), encoding="utf-8")


if __name__ == "__main__":
    write_benchmark(sys.argv[1] if len(sys.argv) > 1 else "data/synthetic")
