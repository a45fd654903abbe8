"""Corpus ingestion, triple pairing, and exclusion handling.

Input rows are manual annotations: cognate identity and exclusion
judgments are consumed, never inferred. A (location, word) cell yields a
comparison triple only when the older, newer, and standard transcriptions
are all present, unflagged, and the older/newer cognates match.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import FirstLines, ParseError, UnknownSymbol, read_table
from .phonetics import Segment, SegmentTable, Source

# perfbench/tracer.py wraps the tokenizer under this module-level name.
from .phonetics import tokenize as make_transcription


class Exclusion(Enum):
    LEXICAL_MISMATCH = "lex"
    MORPHOLOGICAL_VARIANT = "morph"
    PHONETIC_REDUCTION = "reduction"
    MISSING_DATA = "missing"


# Reporting priority when several reasons apply to one cell.
_EXCLUSION_PRIORITY = (
    Exclusion.MISSING_DATA,
    Exclusion.LEXICAL_MISMATCH,
    Exclusion.MORPHOLOGICAL_VARIANT,
    Exclusion.PHONETIC_REDUCTION,
)

_SOURCE_TOKENS = {s.value: s for s in Source}
_EXCLUSION_TOKENS = {e.value: e for e in Exclusion}

GROUPS = ("FR", "DU-FR", "GR", "LS")

_HEADER = "location\tword\tsource\ttranscription\tcognate_id\texclusion"


@dataclass(frozen=True)
class CorpusRecord:
    location: str
    word: str
    source: Source
    raw: str
    cognate_id: str | None
    exclusion: Exclusion | None
    path: str  # the corpus file and line the record was read from
    line: int


@dataclass(frozen=True)
class PairedTriple:
    """A (location, word) cell's transcriptions as segment tuples, in the
    role order older, newer, standard that align_triple takes."""

    location: str
    word: str
    older: tuple[Segment, ...]
    newer: tuple[Segment, ...]
    standard: tuple[Segment, ...]


@dataclass(frozen=True)
class ExcludedPair:
    location: str
    word: str
    reason: Exclusion


def ingest(path) -> list[CorpusRecord]:
    """Parse the corpus TSV; duplicate (location, word, source) rows and
    malformed fields are errors."""
    records = []
    rows, standards = FirstLines(path), FirstLines(path)
    usage = "6 tab-separated fields"
    for lineno, fields in read_table(path, usage, 6, header=_HEADER):
        location, word, source_tok, raw, cognate_id, exclusion_tok = fields
        if not location or not word:
            raise ParseError(path, lineno, "location and word must be non-empty")
        if "," in location or "," in word:
            raise ParseError(path, lineno, "location and word may not contain ','")
        if source_tok not in _SOURCE_TOKENS:
            raise ParseError(path, lineno, f"unknown source {source_tok!r}")
        source = _SOURCE_TOKENS[source_tok]
        if exclusion_tok == "-":
            exclusion = None
        elif exclusion_tok in _EXCLUSION_TOKENS:
            exclusion = _EXCLUSION_TOKENS[exclusion_tok]
        else:
            raise ParseError(
                path, lineno, f"unknown exclusion tag {exclusion_tok!r}"
            )
        if raw in ("", "-"):
            if exclusion is not Exclusion.MISSING_DATA:
                raise ParseError(
                    path,
                    lineno,
                    "empty transcription requires the 'missing' exclusion tag",
                )
            raw = ""
        key = (location, word, source_tok)  # str keys: enum hashing is slow
        rows.add(key, lineno, "duplicate record for location %r, word %r, source %s")
        if source is Source.STANDARD:
            standards.add(word, lineno, "second standard transcription for word %r")
        records.append(
            CorpusRecord(
                location, word, source, raw, cognate_id or None, exclusion,
                str(path), lineno,
            )
        )
    return records


def pair(
    records: list[CorpusRecord], table: SegmentTable
) -> tuple[list[PairedTriple], list[ExcludedPair]]:
    """Group records into (location, word) comparison triples.

    Exclusions are data, not errors; each excluded cell carries the
    highest-priority governing reason. Output is ordered by location then
    word for reproducibility.
    """
    standard = {
        r.word: r for r in records if r.source is Source.STANDARD and r.raw
    }
    cells: dict[tuple[str, str], list[CorpusRecord | None]] = {}  # [older, newer]
    for r in records:
        if r.source is not Source.STANDARD:
            cell = cells.setdefault((r.location, r.word), [None, None])
            cell[1 if r.source is Source.NEWER else 0] = r

    triples = []
    excluded = []
    for (location, word) in sorted(cells):
        older, newer = cells[(location, word)]
        std = standard.get(word)

        reasons = set()
        if older is None or newer is None or std is None:
            reasons.add(Exclusion.MISSING_DATA)
        for r in (older, newer, std):
            if r is None:
                continue
            if r.exclusion is not None:
                reasons.add(r.exclusion)
            if not r.raw:
                reasons.add(Exclusion.MISSING_DATA)
        if (
            older is not None
            and newer is not None
            and older.cognate_id != newer.cognate_id
        ):
            reasons.add(Exclusion.LEXICAL_MISMATCH)

        if reasons:
            reason = next(p for p in _EXCLUSION_PRIORITY if p in reasons)
            excluded.append(ExcludedPair(location, word, reason))
            continue
        triples.append(
            PairedTriple(
                location,
                word,
                _transcribe(older, table),
                _transcribe(newer, table),
                _transcribe(std, table),
            )
        )
    return triples, excluded


def _transcribe(r: CorpusRecord, table: SegmentTable) -> tuple[Segment, ...]:
    """The segments of a record's transcription; an unknown symbol is a
    ParseError naming the record's file, line, location and word."""
    try:
        return make_transcription(r.raw, table)
    except UnknownSymbol as exc:
        raise ParseError(
            r.path,
            r.line,
            f"location {r.location!r}, word {r.word!r}, {r.source.value} "
            f"transcription {r.raw!r}: unknown symbol {exc.char!r} "
            f"at position {exc.position}",
        ) from None


@dataclass(frozen=True)
class RetentionReport:
    per_location: dict[str, tuple[int, int]]  # location -> (retained, total)
    retained: int
    total: int

    @property
    def retention(self) -> float:
        return self.retained / self.total if self.total else 0.0

    def format(self) -> str:
        lines = ["location\tretained\ttotal"]
        for loc in sorted(self.per_location):
            kept, total = self.per_location[loc]
            lines.append(f"{loc}\t{kept}\t{total}")
        lines.append(
            f"overall\t{self.retained}\t{self.total}\t(retention {self.retention:.4f})"
        )
        return "\n".join(lines) + "\n"


def retention_report(
    triples: list[PairedTriple], excluded: list[ExcludedPair]
) -> RetentionReport:
    per_location: dict[str, list[int]] = {}
    for t in triples:
        per_location.setdefault(t.location, [0, 0])[0] += 1
        per_location[t.location][1] += 1
    for e in excluded:
        per_location.setdefault(e.location, [0, 0])[1] += 1
    return RetentionReport(
        {loc: (kept, total) for loc, (kept, total) in per_location.items()},
        retained=len(triples),
        total=len(triples) + len(excluded),
    )


@dataclass(frozen=True)
class GroupMap:
    assignments: dict[str, str]  # location -> group in GROUPS

    def group(self, location: str) -> str:
        return self.assignments[location]

    def is_ls(self, location: str) -> bool:
        return self.assignments[location] == "LS"

    @classmethod
    def from_file(cls, path) -> "GroupMap":
        assignments, seen = {}, FirstLines(path)
        for lineno, (location, group) in read_table(path, "location<TAB>group", 2):
            group = "DU-FR" if group == "DUFR" else group
            if group not in GROUPS:
                raise ParseError(path, lineno, f"unknown group {group!r}")
            seen.add(location, lineno, "duplicate location %r")
            assignments[location] = group
        return cls(assignments)
