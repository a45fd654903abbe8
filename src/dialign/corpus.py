"""Corpus ingestion, triple pairing, exclusion handling, and the group map.

Input rows are manual annotations: cognate identity and exclusion
judgments are consumed, never inferred, and a record holds its source
and exclusion tag as the file's tokens. A (location, word) cell yields a
comparison triple only when the older, newer, and standard transcriptions
are all present, unflagged, and the older/newer cognates match.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import FirstLines, ParseError, UnknownSymbol, read_table
from .phonetics import Segment, SegmentTable

# perfbench/tracer.py wraps the tokenizer under this module-level name.
from .phonetics import tokenize as make_transcription

SOURCES = ("older", "newer", "standard")
# The exclusion tags, in reporting priority when several apply to one cell.
EXCLUSIONS = ("missing", "lex", "morph", "reduction")
GROUPS = ("FR", "DU-FR", "GR", "LS")

HEADER = "location\tword\tsource\ttranscription\tcognate_id\texclusion"


class CorpusRecord(
    namedtuple(
        "CorpusRecord", "location word source raw cognate_id exclusion path line"
    )
):
    """A corpus row: its source in SOURCES, its transcription raw, its
    cognate_id and exclusion tag (in EXCLUSIONS), each None for "-" (a
    cognate_id also for an empty field), and the corpus file path and
    line it was read from."""

    __slots__ = ()


class PairedTriple(namedtuple("PairedTriple", "location word older newer standard")):
    """A (location, word) cell's transcriptions as segment tuples, in the
    role order older, newer, standard that align_triple takes."""

    __slots__ = ()


def distinct(items) -> tuple[list[int], list[int]]:
    """The same-work map of tuples of transcriptions, keyed on their
    segments, of which a segment table gives one per symbol: the index of
    the first item of each key, in first-seen order, and for each item its
    key's slot in that list. Equal keys give equal work."""
    slot_of: dict = {}
    firsts, slots = [], []
    for i, item in enumerate(items):
        slot = slot_of.setdefault(tuple(map(tuple, item)), len(firsts))
        if slot == len(firsts):  # the key's first item
            firsts.append(i)
        slots.append(slot)
    return firsts, slots


class ExcludedPair(namedtuple("ExcludedPair", "location word reason")):
    """A (location, word) cell left out, with its reason in EXCLUSIONS."""

    __slots__ = ()


def ingest(path) -> list[CorpusRecord]:
    """Parse the corpus TSV; duplicate (location, word, source) rows and
    malformed fields are errors."""
    records = []
    rows, standards = FirstLines(path), FirstLines(path)
    usage = "6 tab-separated fields"
    for lineno, fields in read_table(path, usage, 6, header=HEADER):
        location, word, source, raw, cognate_id, exclusion = fields
        if not location or not word:
            raise ParseError(path, lineno, "location and word must be non-empty")
        if "," in location or "," in word:
            raise ParseError(path, lineno, "location and word may not contain ','")
        if location[0] == "#" or location[0].isspace():  # groups.tsv could not map it
            raise ParseError(path, lineno, "location starts with '#' or whitespace")
        if source not in SOURCES:
            raise ParseError(path, lineno, f"unknown source {source!r}")
        if exclusion == "-":
            exclusion = None
        elif exclusion not in EXCLUSIONS:
            raise ParseError(path, lineno, f"unknown exclusion tag {exclusion!r}")
        if raw in ("", "-"):
            if exclusion != "missing":
                raise ParseError(
                    path,
                    lineno,
                    "empty transcription requires the 'missing' exclusion tag",
                )
            raw = ""
        key = (location, word, source)
        rows.add(key, lineno, "duplicate record for location %r, word %r, source %s")
        if source == "standard":
            standards.add(word, lineno, "second standard transcription for word %r")
        records.append(
            CorpusRecord(
                location, word, source, raw,
                None if cognate_id in ("", "-") else cognate_id, exclusion,
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
    word for reproducibility. Each distinct transcription is tokenized
    once, so an unknown symbol names the first record, in that order,
    that holds it.
    """
    standard = {r.word: r for r in records if r.source == "standard" and r.raw}
    cells: dict[tuple[str, str], list[CorpusRecord | None]] = {}  # [older, newer]
    for r in records:
        if r.source != "standard":
            cell = cells.setdefault((r.location, r.word), [None, None])
            cell[1 if r.source == "newer" else 0] = r

    triples = []
    excluded = []
    segments: dict[str, tuple[Segment, ...]] = {}  # transcription -> its segments
    for (location, word) in sorted(cells):
        older, newer = cells[(location, word)]
        std = standard.get(word)

        reasons = set()
        if older is None or newer is None or std is None:
            reasons.add("missing")
        for r in (older, newer, std):
            if r is None:
                continue
            if r.exclusion is not None:
                reasons.add(r.exclusion)
            if not r.raw:
                reasons.add("missing")
        if (
            older is not None
            and newer is not None
            and older.cognate_id != newer.cognate_id
        ):
            reasons.add("lex")

        if reasons:
            reason = next(p for p in EXCLUSIONS if p in reasons)
            excluded.append(ExcludedPair(location, word, reason))
            continue
        triples.append(
            PairedTriple(
                location,
                word,
                _transcribe(older, table, segments),
                _transcribe(newer, table, segments),
                _transcribe(std, table, segments),
            )
        )
    return triples, excluded


def _transcribe(r: CorpusRecord, table: SegmentTable, segments: dict):
    """The segments of a record's transcription, tokenized on first sight
    and kept in segments; an unknown symbol is a ParseError naming the
    record's file, line, location and word."""
    if r.raw not in segments:
        try:
            segments[r.raw] = make_transcription(r.raw, table)
        except UnknownSymbol as exc:
            raise ParseError(
                r.path,
                r.line,
                f"location {r.location!r}, word {r.word!r}, {r.source} "
                f"transcription {r.raw!r}: {exc}",
            ) from None
    return segments[r.raw]


def retention_report(
    triples: list[PairedTriple], excluded: list[ExcludedPair]
) -> str:
    """The text of retention.txt: the retained and total cells of each
    location, then of the whole corpus with the retained share."""
    per_location: dict[str, list[int]] = {}  # location -> [retained, total]
    for t in triples:
        per_location.setdefault(t.location, [0, 0])[0] += 1
    for cell in [*triples, *excluded]:
        per_location.setdefault(cell.location, [0, 0])[1] += 1
    lines = ["location\tretained\ttotal"]
    for loc in sorted(per_location):
        kept, total = per_location[loc]
        lines.append(f"{loc}\t{kept}\t{total}")
    retained, total = len(triples), len(triples) + len(excluded)
    retention = retained / total if total else 0.0
    lines.append(f"overall\t{retained}\t{total}\t(retention {retention:.4f})")
    return "\n".join(lines) + "\n"


def read_groups(path) -> dict[str, str]:
    """The location<TAB>group map, location -> group in GROUPS; "DUFR" is
    read as "DU-FR", and an unknown group or a repeated location is a
    ParseError naming its line."""
    groups, seen = {}, FirstLines(path)
    for lineno, (location, group) in read_table(path, "location<TAB>group", 2):
        group = "DU-FR" if group == "DUFR" else group
        if group not in GROUPS:
            raise ParseError(path, lineno, f"unknown group {group!r}")
        seen.add(location, lineno, "duplicate location %r")
        groups[location] = group
    return groups
