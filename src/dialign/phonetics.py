"""Phonetic segment model and IPA tokenization.

A segment is one phonetic token: a base IPA character plus any length
marks or diacritics attached to it. Its symbol, the full base+modifier
string, is its identity, so [oː] and [o] are distinct segments. Its
class is the segment table's token, "V" for a vowel or "C" for a
consonant.
"""

from __future__ import annotations

import unicodedata
from collections import namedtuple
from functools import cache

from .errors import DialignError, FirstLines, ParseError, UnknownSymbol, read_table


# The seven sonorant consonants that a schwa may align with.
SONORANTS = frozenset("mlnrŋjw")
SCHWA = "ə"

# The gap symbol of distance tables and serialized alignments; no segment
# may use it.
GAP = "-"

# Spacing characters that attach to the preceding base symbol. Combining
# characters (Unicode category Mn) are always treated as modifiers.
MODIFIER_CHARS = frozenset("ːˑ˞ʰʷʲˠˤⁿˡʼ")

_VOWELS = "iyɨʉɯuɪʏʊeøɘɵɤoəɛœɜɞʌɔæɐaɶɑɒ"
_CONSONANTS = (
    "pbtdʈɖcɟkgɡqɢʔ"  # plosives
    "mɱnɳɲŋɴ"  # nasals
    "ʙrʀⱱɾɽ"  # trills, taps
    "ɸβfvθðszʃʒʂʐçʝxɣχʁħʕhɦɬɮ"  # fricatives
    "ʋɹɻjɰwlɭʎʟ"  # approximants
)


@cache  # a corpus holds few distinct characters
def _is_modifier(ch: str) -> bool:
    return ch in MODIFIER_CHARS or unicodedata.category(ch) == "Mn"


class Segment(namedtuple("Segment", "symbol klass is_sonorant_consonant is_schwa")):
    """A segment's symbol, its class klass, "V" or "C", and two flags: a
    sonorant is a consonant and a schwa is a vowel."""

    __slots__ = ()

    def __new__(cls, symbol, klass, is_sonorant_consonant, is_schwa):
        if is_schwa and klass != "V":
            raise ValueError("schwa flag requires a vowel")
        if is_sonorant_consonant and klass != "C":
            raise ValueError("sonorant flag requires a consonant")
        return super().__new__(cls, symbol, klass, is_sonorant_consonant, is_schwa)

    def __str__(self) -> str:
        return self.symbol


class SegmentTable:
    """Maps symbol strings to (class, sonorant, schwa) classifications.

    Unknown base symbols are a hard error: silent misclassification would
    corrupt the vowel-consonant alignment constraint downstream.
    """

    def __init__(self, entries: dict[str, tuple[str, bool, bool]]):
        self.entries = dict(entries)
        self._by_symbol: dict[str, Segment] = {}

    @classmethod
    def default(cls) -> "SegmentTable":
        entries = {}
        for ch in _VOWELS:
            entries[ch] = ("V", False, ch == SCHWA)
        for ch in _CONSONANTS:
            entries[ch] = ("C", ch in SONORANTS, False)
        return cls(entries)

    @classmethod
    def from_file(cls, path) -> "SegmentTable":
        """Parse a line-oriented table: ``symbol<TAB>V|C<TAB>flags``.

        Flags are comma-separated members of {sonorant, schwa}; the flags
        column may be omitted or "-". Lines starting with '#' are comments.
        A symbol is one base character followed only by modifiers, the
        only form tokenize can match; the gap symbol "-" may not be an entry.
        """
        entries, seen = {}, FirstLines(path)
        for lineno, fields in read_table(path, "symbol<TAB>V|C[<TAB>flags]", 2, 3):
            symbol = fields[0]
            if symbol == GAP:
                raise ParseError(path, lineno, f"{GAP!r} is the gap symbol")
            if _is_modifier(symbol[0]) or not all(map(_is_modifier, symbol[1:])):
                reason = f"{symbol!r} is not one base character plus modifiers"
                raise ParseError(path, lineno, reason)
            klass, sonorant, schwa = fields[1], False, False
            if klass not in ("V", "C"):
                raise ParseError(path, lineno, f"class must be V or C, got {klass!r}")
            if len(fields) > 2 and fields[2] not in ("", "-"):
                for flag in fields[2].split(","):
                    flag = flag.strip()
                    if flag == "sonorant":
                        sonorant = True
                    elif flag == "schwa":
                        schwa = True
                    else:
                        raise ParseError(path, lineno, f"unknown flag {flag!r}")
            seen.add(symbol, lineno, "duplicate entry for %r")
            try:  # Segment holds the rule that ties the flags to the class
                Segment(symbol, klass, sonorant, schwa)
            except ValueError as exc:
                raise ParseError(path, lineno, f"{symbol!r}: {exc}") from None
            entries[symbol] = (klass, sonorant, schwa)
        return cls(entries)

    def classify(self, symbol: str) -> tuple[str, bool, bool]:
        """Classification for a full symbol; falls back to its base symbol."""
        if symbol in self.entries:
            return self.entries[symbol]
        base = "".join(ch for ch in symbol if not _is_modifier(ch))
        if base in self.entries:
            return self.entries[base]
        raise UnknownSymbol(0, symbol)

    def segment(self, symbol: str) -> Segment:
        """The table's one Segment for a symbol, classified on first use."""
        seg = self._by_symbol.get(symbol)
        if seg is None:
            seg = self._by_symbol[symbol] = Segment(symbol, *self.classify(symbol))
        return seg


def tokenize(raw: str, table: SegmentTable) -> tuple[Segment, ...]:
    """Segment an IPA string by maximal munch.

    The input is NFC-normalized first; each base symbol plus all
    immediately following modifier characters forms one segment.
    Concatenating the segment symbols reproduces the normalized input.
    """
    if raw == "":
        raise DialignError("empty transcription")
    raw = unicodedata.normalize("NFC", raw)
    # A segment starts at each character that is not a modifier.
    starts = [i for i, mod in enumerate(map(_is_modifier, raw)) if not mod]
    if not starts or starts[0]:  # a modifier with no preceding base symbol
        raise UnknownSymbol(0, raw[0])
    segments = []
    for i, j in zip(starts, starts[1:] + [len(raw)]):
        try:  # the table knows the segment or its base symbol
            segments.append(table.segment(raw[i:j]))
        except UnknownSymbol:
            raise UnknownSymbol(i, raw[i]) from None
    return tuple(segments)
