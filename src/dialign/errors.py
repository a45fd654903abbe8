"""The input layer: the reader of every line-oriented input table, which
decodes it as UTF-8 and normalises it to NFC once, so that names and
symbols differing only in normal form are one; the duplicate-key check;
and the two error types that bad input raises, DialignError and
ParseError, a DialignError that names the file and line."""

import unicodedata


class DialignError(Exception):
    """Base class for all toolkit errors."""


class ParseError(DialignError):
    def __init__(self, path, line, reason):
        self.path = path
        self.line = line
        self.reason = reason
        super().__init__(f"{path}: line {line}: {reason}")


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file in NFC, without a leading byte order
    mark or a line's trailing "\\r"; only "\\n" ends a line, so a line
    number counts the "\\n" before it. No canonical composition involves
    a tab, a comma, "\\r" or "\\n", so normalising the whole text keeps
    every line and field as normalising each field would. A byte that is
    not UTF-8 is a ParseError naming its line."""
    with open(path, "rb") as f:
        data = f.read()
    if data.startswith(b"\xef\xbb\xbf"):  # stripped here, not by utf-8-sig,
        data = data[3:]  # so that error offsets index this data
    try:
        text = unicodedata.normalize("NFC", data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line, f"not UTF-8: {exc.reason}") from None
    return [line.removesuffix("\r") for line in text.split("\n")]


def read_table(
    path,
    usage: str,
    n_fields: int,
    max_fields: int | None = None,
    header: str | None = None,
):
    """Yield (line number, fields) of a table; blank lines are skipped.

    A headed table must start with exactly the line ``header`` and is
    comma-separated if the header holds a ',', else tab-separated; its
    lines are split as they are. A headerless table is tab-separated; its
    lines are stripped, and lines starting with '#' are skipped. A line
    with fewer than n_fields or more than max_fields (default n_fields)
    fields is a ParseError quoting ``usage`` and the line's field count.
    """
    lines = read_lines(path)
    if header is not None and lines[:1] != [header]:
        raise ParseError(path, 1, f"expected header {header!r}")
    sep = "," if header and "," in header else "\t"
    for lineno, line in enumerate(lines, 1):
        if header is None:
            line = line.strip()
            if line.startswith("#"):
                continue
        elif lineno == 1:
            continue
        if not line.strip():
            continue
        fields = line.split(sep)
        if not n_fields <= len(fields) <= (max_fields or n_fields):
            reason = f"expected {usage}, got {len(fields)} field(s)"
            raise ParseError(path, lineno, reason)
        yield lineno, fields


class FirstLines:
    """The line of each key's first record in one file; a repeated key is
    a ParseError naming its line and the first one. Its message is
    ``what % key``, formatted only then."""

    def __init__(self, path):
        self.path = path
        self.lines = {}

    def add(self, key, lineno: int, what: str) -> None:
        first = self.lines.setdefault(key, lineno)
        if first != lineno:
            reason = f"{what % key} (first at line {first})"
            raise ParseError(self.path, lineno, reason)
