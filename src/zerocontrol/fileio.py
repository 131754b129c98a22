"""Plain-text pattern files.

Format (UTF-8, '#' starts a comment, tokens whitespace-separated):

    n 5        size of the square state pattern (required, first directive)
    m 1        number of input columns (optional, default 0)
    a 1 2      state entry at row 1, column 2 is a nonzero
    b 4 1      input entry at row 4, column 1 is a nonzero

Line-based and sparse on purpose: large patterns stay diffable.
"""

from __future__ import annotations

import re
import warnings

import numpy as np

from .patterns import DuplicateEntryWarning, PatternMatrix, _pair

_SIZE_NAMES = {"n": "size 'n'", "m": "input count 'm'"}
_COMMENT = re.compile("#[^\n]*")
# Classes of the bytes a plain file holds once comments are gone (0 for any
# other byte): blanks, on which alone str.split() separates, digits, signs and
# keyword letters.
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[list(b" \t\n0123456789+-abmn")] = [1] * 3 + [2] * 10 + [3] * 2 + [4] * 4
_BLANK_KEYWORDS = str.maketrans("abmn", "    ")


class PatternFormatError(ValueError):
    """Malformed pattern file; carries the offending line number."""

    def __init__(self, line_no: int | None, message: str):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


def parse_pattern_file(text: str) -> tuple[PatternMatrix, PatternMatrix | None]:
    """Parse a pattern file into the state pattern and, when inputs are
    declared, the input pattern (None when m = 0).

    Lines end at '\\n', '\\r\\n' or '\\r' only; str.splitlines also breaks at
    '\\x0b', '\\x0c', '\\x1c'-'\\x1e', '\\x85', '\\u2028' and '\\u2029'.
    """
    text = text.removeprefix("\ufeff")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _parse_bulk(text) or _parse_lines(text)


def _parse_bulk(text: str) -> tuple[PatternMatrix, PatternMatrix | None] | None:
    """The common file in whole-array steps: plain ASCII, one directive per
    line, sizes before the entries that need them, no entry out of range or
    repeated.  Anything else returns None, for the line scan to word."""
    body = _COMMENT.sub("", text) if "#" in text else text
    raw = np.frombuffer(body.encode("ascii", "replace"), dtype=np.uint8)  # '?' is not plain
    kind = _CLASS[raw]
    blank = np.concatenate(([True], kind == 1, [True]))
    starts = np.flatnonzero(blank[:-2] & ~blank[1:-1])
    length = np.flatnonzero(~blank[1:-1] & blank[2:]) - starts + 1
    lead = kind[starts]
    kpos = np.flatnonzero(lead == 4)
    letters = raw[starts[kpos]]
    kinds = letters.tobytes()
    line = np.cumsum(raw == ord("\n"))[starts]
    if not (
        kind.all()
        # signs and letters only start tokens: signed integers and keywords
        and np.count_nonzero(kind >= 3) == np.count_nonzero((lead >= 3) & ((lead == 4) == (length == 1)))
        and length.max(initial=0) <= 18  # int64 holds every integer this short
        # each line: a keyword, then one size or two indices
        and np.array_equal(np.diff(line, prepend=-1) > 0, lead == 4)
        and np.array_equal(np.diff(kpos, append=len(starts)), np.where(letters <= ord("b"), 3, 2))
        # 'n' first and once, 'm' at most once and before every 'b' (with no
        # 'm', the range check below refuses a 'b' entry)
        and kinds[:1] == b"n" and kinds.count(b"n") == 1 and kinds.count(b"m") <= 1
        and b"b" not in kinds[:kinds.find(b"m")]
    ):
        return None
    values = np.fromstring(body.translate(_BLANK_KEYWORDS), dtype=np.int64, sep=" ")
    at = kpos - np.arange(len(kpos))  # each keyword's first value
    n, m = int(values[0]), int(values[at[kinds.find(b"m")]]) if b"m" in kinds else 0
    entry = letters <= ord("b")
    rows, cols, in_b = values[at[entry]], values[at[entry] + 1], letters[entry] == ord("b")
    width = max(n, m) + 1
    key = (in_b * width + cols) * width + rows  # by matrix, column, then row
    order = np.argsort(key)
    if min(n, m) < 0 or width > 2**31 or not (
        ((rows >= 1) & (rows <= n) & (cols >= 1) & (cols <= np.where(in_b, m, n))).all()
        and np.diff(key[order]).all()  # no entry repeats
    ):
        return None
    rows, cols, in_b = rows[order], cols[order], in_b[order]
    a = PatternMatrix._trusted(n, n, rows[~in_b], cols[~in_b])
    return a, (PatternMatrix._trusted(n, m, rows[in_b], cols[in_b]) if m > 0 else None)


def _parse_lines(text: str) -> tuple[PatternMatrix, PatternMatrix | None]:
    """One line at a time, raising the first error and warning on each
    duplicate in file order."""
    sizes: dict[str, int] = {}  # 'n' and 'm', once declared
    entries: dict[str, set[tuple[int, int]]] = {"a": set(), "b": set()}

    def parse_int(token: str, line_no: int, what: str) -> int:
        digits = token[1:] if token[0] in "+-" else token
        if not (digits.isascii() and digits.isdigit()):  # int() also takes '1_0' and '\u0663'
            raise PatternFormatError(line_no, f"{what} must be an integer, got {token!r}")
        return int(token)

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]

        if keyword in _SIZE_NAMES:
            if keyword == "m" and "n" not in sizes:
                raise PatternFormatError(line_no, "'m' before the size declaration 'n'")
            if keyword in sizes:
                raise PatternFormatError(line_no, f"{_SIZE_NAMES[keyword]} declared twice")
            if len(tokens) != 2:
                raise PatternFormatError(line_no, f"expected '{keyword} <int>', got {line!r}")
            size = sizes[keyword] = parse_int(tokens[1], line_no, keyword)
            if size < 0:
                raise PatternFormatError(line_no, f"{keyword} must be >= 0, got {size}")
        elif keyword in entries:
            if "n" not in sizes:
                raise PatternFormatError(line_no, "entry before the size declaration 'n'")
            if len(tokens) != 3:
                raise PatternFormatError(line_no, f"expected '{keyword} <row> <col>', got {line!r}")
            i = parse_int(tokens[1], line_no, "row")
            j = parse_int(tokens[2], line_no, "column")
            entry = f"'{keyword} {i} {j}'"
            columns = "n" if keyword == "a" else "m"
            if keyword == "b" and not sizes.get("m"):
                raise PatternFormatError(
                    line_no, f"entry {entry} needs a prior 'm' declaration with m >= 1"
                )
            for what, value, bound in (("row", i, "n"), ("column", j, columns)):
                if value < 1:
                    raise PatternFormatError(line_no, f"{what} {value} must be >= 1 in entry {entry}")
                if value > sizes[bound]:
                    raise PatternFormatError(
                        line_no, f"{what} {value} exceeds {bound}={sizes[bound]} in entry {entry}"
                    )
            if (i, j) in entries[keyword]:
                warnings.warn(
                    f"line {line_no}: duplicate entry {entry} collapsed", DuplicateEntryWarning
                )
            entries[keyword].add((i, j))
        else:
            raise PatternFormatError(line_no, f"unknown directive {keyword!r}")

    if "n" not in sizes:
        raise PatternFormatError(None, "missing size declaration 'n'")
    n, m = sizes["n"], sizes.get("m", 0)
    pattern_a = PatternMatrix(n, n, frozenset(entries["a"]))
    pattern_b = PatternMatrix(n, m, frozenset(entries["b"])) if m > 0 else None
    return pattern_a, pattern_b


def serialize_pattern_file(
    pattern_a: PatternMatrix,
    pattern_b: PatternMatrix | None = None,
    *,
    header_comment: str | None = None,
) -> str:
    """Render patterns back to the file format; parsing the result recovers the same patterns (entry order is
    normalized).  ``_pair`` refuses a non-square state pattern and an input pattern without one row per state,
    which no file can declare; a missing input pattern means n-by-0, written with no 'm' line."""
    pattern_b = _pair(pattern_a, pattern_b)
    lines = []
    if header_comment:
        for chunk in header_comment.splitlines():
            lines.append(f"# {chunk}".rstrip())
    lines.append(f"n {pattern_a.n_rows}")
    if pattern_b.n_cols:
        lines.append(f"m {pattern_b.n_cols}")
    for i, j in pattern_a.sorted_entries():
        lines.append(f"a {i} {j}")
    for i, j in pattern_b.sorted_entries():
        lines.append(f"b {i} {j}")
    return "\n".join(lines) + "\n"
