import random
import unicodedata

import pytest

from dialign.errors import DialignError, ParseError, UnknownSymbol
from dialign.phonetics import (
    MODIFIER_CHARS,
    Segment,
    SegmentTable,
    tokenize,
)


def symbols(segments):
    return [s.symbol for s in segments]


def test_tokenize_with_length_mark(table):
    segs = tokenize("stroːdə", table)
    assert symbols(segs) == ["s", "t", "r", "oː", "d", "ə"]
    assert segs[3] == Segment("oː", "V", False, False)
    assert segs[5].is_schwa


def test_tokenize_newer_variant(table):
    segs = tokenize("strɔət", table)
    assert len(segs) == 6
    assert symbols(segs) == ["s", "t", "r", "ɔ", "ə", "t"]


def test_tokenize_empty_raises(table):
    with pytest.raises(DialignError) as info:
        tokenize("", table)
    assert str(info.value) == "empty transcription"


def test_tokenize_unknown_symbol(table):
    with pytest.raises(UnknownSymbol) as exc:
        tokenize("st7a", table)
    assert exc.value.position == 2
    assert exc.value.char == "7"


def test_tokenize_leading_modifier_rejected(table):
    with pytest.raises(UnknownSymbol):
        tokenize("ːa", table)


def test_tokenize_combining_diacritic(table):
    # combining ring below attaches to the preceding base
    segs = tokenize("ər̥", table)
    assert len(segs) == 2
    assert segs[1].symbol == "r̥"
    assert segs[1].is_sonorant_consonant


def test_tokenize_nfc_normalizes_input(table):
    # ç has a precomposed NFC form; the decomposed input must round-trip
    # to the composed symbol
    decomposed = unicodedata.normalize("NFD", "ça")
    assert len(decomposed) == 3
    segs = tokenize(decomposed, table)
    assert [s.symbol for s in segs] == ["ç", "a"]


def test_tokenize_composed_char_not_in_table_fails(table):
    # NFC composition can produce precomposed symbols; if the table does
    # not list them the tokenizer must fail loudly, never guess
    with pytest.raises(UnknownSymbol):
        tokenize(unicodedata.normalize("NFD", "ã"), table)


def test_roundtrip_random_strings(table):
    # Table symbols followed by modifiers: the spacing ones and some
    # combining marks (tilde, ring below, syllabic, diaeresis, no audible
    # release). The tokens join back to the NFC input, and each is the
    # table's one Segment for its symbol. NFC can compose a base and a mark
    # into a character the table lacks (a + tilde = ã); only that may fail.
    rng = random.Random(42)
    bases = list(table.entries)
    marks = ["\u0303", "\u0325", "\u0329", "\u0308", "\u031a"]
    assert all(unicodedata.category(ch) == "Mn" for ch in marks)
    modifiers = sorted(MODIFIER_CHARS) + marks
    composed = 0
    for _ in range(500):
        written = "".join(
            rng.choice(bases)
            + "".join(rng.choice(modifiers) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(1, 8))
        )
        raw = unicodedata.normalize("NFC", written)
        try:
            segs = tokenize(raw, table)
        except UnknownSymbol as exc:
            assert exc.char == raw[exc.position]
            assert exc.char not in table.entries and exc.char not in written
            composed += 1
            continue
        assert "".join(s.symbol for s in segs) == raw
        assert all(s is table.segment(s.symbol) for s in segs)
    assert composed < 250  # most strings round-trip


@pytest.mark.parametrize(
    "symbol,klass,sonorant,schwa",
    [
        ("n", "C", True, False),
        ("ə", "V", False, True),
        ("s", "C", False, False),
        ("oː", "V", False, False),
    ],
)
def test_classify(table, symbol, klass, sonorant, schwa):
    assert table.classify(symbol) == (klass, sonorant, schwa)


def test_classify_unknown(table):
    with pytest.raises(UnknownSymbol):
        table.classify("!")


def test_exactly_seven_sonorants(table):
    sonorants = {
        sym
        for sym, (_, son, _) in table.entries.items()
        if son
    }
    assert sonorants == set("mlnrŋjw")


def test_segment_invariants():
    with pytest.raises(ValueError):
        Segment("ə", "C", False, True)
    with pytest.raises(ValueError):
        Segment("n", "V", True, False)


def test_table_from_file(tmp_path):
    path = tmp_path / "segments.tsv"
    path.write_text(
        "# comment line\n"
        "a\tV\n"
        "ə\tV\tschwa\n"
        "n\tC\tsonorant\n"
        "p\tC\t-\n"
        "tʰ\tC\n",
        encoding="utf-8",
    )
    table = SegmentTable.from_file(path)
    assert table.classify("ə") == ("V", False, True)
    assert table.classify("n") == ("C", True, False)
    segs = tokenize("pan", table)
    assert [s.symbol for s in segs] == ["p", "a", "n"]
    # an entry may carry modifiers without its base
    assert [s.symbol for s in tokenize("tʰa", table)] == ["tʰ", "a"]
    with pytest.raises(UnknownSymbol) as info:
        tokenize("ata", table)  # the entry does not stand for its base
    assert (info.value.position, info.value.char) == (1, "t")


TABLE_ERRORS = [
    ("a\tX", "line 1: class must be V or C, got 'X'"),
    ("a", "line 1: expected symbol<TAB>V|C[<TAB>flags], got 1 field(s)"),
    ("ə\tC\tschwa", "line 1: 'ə': schwa flag requires a vowel"),
    ("n\tV\tsonorant", "line 1: 'n': sonorant flag requires a consonant"),
    ("a\tV\tbogus", "line 1: unknown flag 'bogus'"),
    ("-\tC", "line 1: '-' is the gap symbol"),
    # two base characters: tokenize never matches it
    ("ts\tC", "line 1: 'ts' is not one base character plus modifiers"),
    # a modifier with no base character
    ("ː\tV", "line 1: 'ː' is not one base character plus modifiers"),
    ("a\tV\na\tV", "line 2: duplicate entry for 'a' (first at line 1)"),
]


@pytest.mark.parametrize(
    "text,reason", TABLE_ERRORS, ids=[text for text, _ in TABLE_ERRORS]
)
def test_table_file_errors(tmp_path, text, reason):
    path = tmp_path / "segments.tsv"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        SegmentTable.from_file(path)
    assert str(info.value) == f"{path}: {reason}"
