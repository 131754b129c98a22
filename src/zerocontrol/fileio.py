"""Plain-text pattern files.

Format (UTF-8, '#' starts a comment, tokens whitespace-separated):

    n 5        size of the square state pattern (required, first directive)
    m 1        number of input columns (optional, default 0)
    a 1 2      state entry at row 1, column 2 is a nonzero
    b 4 1      input entry at row 4, column 1 is a nonzero

Line-based and sparse on purpose: large patterns stay diffable.
"""

from __future__ import annotations

import warnings

from .patterns import DuplicateEntryWarning, PatternMatrix

_SIZE_NAMES = {"n": "size 'n'", "m": "input count 'm'"}


class PatternFormatError(ValueError):
    """Malformed pattern file; carries the offending line number."""

    def __init__(self, line_no: int | None, message: str):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


def parse_pattern_file(text: str) -> tuple[PatternMatrix, PatternMatrix | None]:
    """Parse a pattern file into the state pattern and, when inputs are
    declared, the input pattern (None when m = 0)."""
    sizes: dict[str, int] = {}  # 'n' and 'm', once declared
    entries: dict[str, set[tuple[int, int]]] = {"a": set(), "b": set()}

    def parse_int(token: str, line_no: int, what: str) -> int:
        digits = token[1:] if token[0] in "+-" else token
        if not (digits.isascii() and digits.isdigit()):  # int() also takes '1_0' and '\u0663'
            raise PatternFormatError(line_no, f"{what} must be an integer, got {token!r}")
        return int(token)

    # lines end at '\n', '\r\n' or '\r' only; str.splitlines also breaks at
    # '\x0b', '\x0c', '\x1c'-'\x1e', '\x85', '\u2028' and '\u2029'
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
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
    """Render patterns back to the file format; parsing the result recovers
    the same patterns (entry order is normalized)."""
    if not pattern_a.is_square:
        raise ValueError("state pattern must be square")
    lines = []
    if header_comment:
        for chunk in header_comment.splitlines():
            lines.append(f"# {chunk}".rstrip())
    lines.append(f"n {pattern_a.n_rows}")
    if pattern_b is not None and pattern_b.n_cols > 0:
        lines.append(f"m {pattern_b.n_cols}")
    for i, j in pattern_a.sorted_entries():
        lines.append(f"a {i} {j}")
    if pattern_b is not None:
        for i, j in pattern_b.sorted_entries():
            lines.append(f"b {i} {j}")
    return "\n".join(lines) + "\n"
