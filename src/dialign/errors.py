"""Exception types shared across the toolkit, and the reader of its
line-oriented input files, which raises them."""

from pathlib import Path


class DialignError(Exception):
    """Base class for all toolkit errors."""


class UnknownSymbol(DialignError):
    def __init__(self, position, char):
        self.position = position
        self.char = char
        super().__init__(f"unknown symbol {char!r} at position {position}")


class EmptyInput(DialignError):
    pass


class EmptyCorpus(DialignError):
    pass


class ParseError(DialignError):
    def __init__(self, path, line, reason):
        self.path = path
        self.line = line
        self.reason = reason
        super().__init__(f"{path}: line {line}: {reason}")


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; a byte that is not UTF-8 is a
    ParseError naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line, f"not UTF-8: {exc.reason}") from None


def read_table(path, usage: str, n_fields: int, max_fields: int | None = None):
    """Yield (line number, fields) of a headerless tab-separated table.

    Lines are stripped; blank lines and lines starting with '#' are
    skipped. A line with fewer than n_fields or more than max_fields
    (default n_fields) fields is a ParseError quoting ``usage``.
    """
    for lineno, line in enumerate(read_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if not n_fields <= len(fields) <= (max_fields or n_fields):
            raise ParseError(path, lineno, f"expected {usage}")
        yield lineno, fields


class DuplicateRecord(ParseError):
    pass


class UnmappedLocation(DialignError):
    pass


class DegenerateContrast(DialignError):
    pass


class MissingCoordinates(DialignError):
    pass
