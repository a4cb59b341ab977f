"""Text files in and out, by the rules weftprint's file formats share.

Files are UTF-8, read untranslated.  In .tg, .fp and spec files a line ends
at LF, CR LF or CR only, split here; '#' starts a comment line, blank lines
are ignored, and fields are separated by ASCII spaces and tabs.  One rule
spells every CSV field a file holds, quoting a CR as it quotes an LF.
"""

import csv
import io
import re
from pathlib import Path

LINE_END = re.compile(r"\r\n?|\n")  # str.splitlines also breaks at FF, VT, NEL, U+2028
FIELD = re.compile(r"[^ \t]+")  # \S+ would also split at NBSP
DECIMAL = re.compile(r"[+-]?[0-9]+")  # ASCII digits only, unlike int()
# A decimal, as in a distance-CSV cell: ASCII digits, or a nan/inf spelling for a range check to reject.
CELL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:nan|inf|infinity))")


class GraphParseError(ValueError):
    """Raised for malformed ``.tg`` or ``.fp`` text; carries the offending position."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}" + (f", column {column}" if column is not None else "") + f": {message}"
        super().__init__(message)
        self.line, self.column = line, column


def shown(text: str) -> str:
    """``repr(text)`` for a message; past 40 characters, the first 20, ``…`` and the length."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}… ({len(text)} characters)"


def shown_number(value) -> str:
    """``value`` as a range message echoes it: whole up to 40 characters, else cut as :func:`shown` cuts text."""
    text = str(value)
    return text if len(text) <= 40 else shown(text)


def read_number(text: str, as_type: type, where: str):
    """``text`` as an ``int`` or ``float`` spelled in ASCII, where ``int()`` alone takes ``1_0`` and ``٣``."""
    rule, noun = (DECIMAL, "an integer") if as_type is int else (CELL, "a decimal number")
    if not rule.fullmatch(text):
        raise ValueError(f"{where}: {shown(text)} is not {noun}")
    try:
        return as_type(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ValueError(f"{where}: integer has too many digits: {len(text)}") from None


def load(path, parse, data=None):
    """``parse`` of the UTF-8 text at ``path``, or of ``data``, its bytes read already, line ends as written.

    A byte that is not UTF-8 is refused by path and offset, and a refusal by
    ``parse`` names the file too, as an I/O error does.
    """
    if data is None:
        data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: byte {exc.start}: {exc.reason}") from None
    try:
        return parse(text)
    except ValueError as exc:  # a plain ValueError, which pickles as it is, out of a pool worker too
        raise ValueError(f"{path}: {exc}") from None


def encoded(path, text: str) -> bytes:
    """``text`` as UTF-8 for the file at ``path``; a character UTF-8 cannot encode is refused by path and offset."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise ValueError(f"{path}: not UTF-8: character {exc.start}: {exc.reason}") from None


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, its line ends as they are: the one writer of every text file.

    The text is encoded before the file is opened, so a refused text leaves the file as it was.
    """
    Path(path).write_bytes(encoded(path, text))


def csv_field(value: str) -> str:
    """``value`` as a CSV field: ``csv.writer`` quotes it by Python's rule, and its CR LF row end makes a CR quoted too."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([value, ""])  # two fields: csv quotes a lone empty one
    return buf.getvalue()[:-3]


def csv_rows(text: str, what: str) -> list[list[str]]:
    """The non-blank rows of CSV ``text``, read strictly; a malformed row is refused as ``<what>: <reason>``."""
    try:
        return [r for r in csv.reader(io.StringIO(text, newline=""), strict=True) if r]
    except csv.Error as exc:  # malformed quoting or a field over the size limit
        raise ValueError(f"{what}: {exc}") from None


def significant_lines(text):
    for lineno, raw in enumerate(LINE_END.split(text), start=1):
        stripped = raw.strip(" \t")
        if stripped and not stripped.startswith("#"):
            yield lineno, raw, stripped


def fields(raw):
    """Space- and tab-separated tokens of a line, each with its 1-based column."""
    return [(m.group(), m.start() + 1) for m in FIELD.finditer(raw)]


def int_field(token, lineno, column, what):
    try:
        return read_number(token, int, what)
    except ValueError as exc:
        raise GraphParseError(str(exc), lineno, column) from None
