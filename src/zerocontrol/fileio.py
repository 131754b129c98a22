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


class PatternFormatError(ValueError):
    """Malformed pattern file; carries the offending line number."""

    def __init__(self, line_no: int | None, message: str):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


def parse_pattern_file(text: str) -> tuple[PatternMatrix, PatternMatrix | None]:
    """Parse a pattern file into the state pattern and, when inputs are
    declared, the input pattern (None when m = 0)."""
    n: int | None = None
    m = 0
    m_declared = False
    a_entries: list[tuple[int, int]] = []
    b_entries: list[tuple[int, int]] = []
    seen: set[tuple[str, int, int]] = set()

    def parse_int(token: str, line_no: int, what: str) -> int:
        digits = token[1:] if token[0] in "+-" else token
        if not (digits.isascii() and digits.isdigit()):  # int() also takes '1_0' and '\u0663'
            raise PatternFormatError(line_no, f"{what} must be an integer, got {token!r}")
        return int(token)

    for line_no, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]

        if keyword == "n":
            if n is not None:
                raise PatternFormatError(line_no, "size 'n' declared twice")
            if len(tokens) != 2:
                raise PatternFormatError(line_no, f"expected 'n <int>', got {line!r}")
            n = parse_int(tokens[1], line_no, "n")
            if n < 0:
                raise PatternFormatError(line_no, f"n must be >= 0, got {n}")
        elif keyword == "m":
            if n is None:
                raise PatternFormatError(line_no, "'m' before the size declaration 'n'")
            if m_declared:
                raise PatternFormatError(line_no, "input count 'm' declared twice")
            if len(tokens) != 2:
                raise PatternFormatError(line_no, f"expected 'm <int>', got {line!r}")
            m = parse_int(tokens[1], line_no, "m")
            if m < 0:
                raise PatternFormatError(line_no, f"m must be >= 0, got {m}")
            m_declared = True
        elif keyword in ("a", "b"):
            if n is None:
                raise PatternFormatError(line_no, "entry before the size declaration 'n'")
            if len(tokens) != 3:
                raise PatternFormatError(line_no, f"expected '{keyword} <row> <col>', got {line!r}")
            i = parse_int(tokens[1], line_no, "row")
            j = parse_int(tokens[2], line_no, "column")
            if keyword == "a":
                if not 1 <= i <= n:
                    raise PatternFormatError(line_no, f"row {i} exceeds n={n} in entry 'a {i} {j}'")
                if not 1 <= j <= n:
                    raise PatternFormatError(
                        line_no, f"column {j} exceeds n={n} in entry 'a {i} {j}'"
                    )
            else:
                if not m_declared or m == 0:
                    raise PatternFormatError(
                        line_no, f"entry 'b {i} {j}' needs a prior 'm' declaration with m >= 1"
                    )
                if not 1 <= i <= n:
                    raise PatternFormatError(line_no, f"row {i} exceeds n={n} in entry 'b {i} {j}'")
                if not 1 <= j <= m:
                    raise PatternFormatError(
                        line_no, f"column {j} exceeds m={m} in entry 'b {i} {j}'"
                    )
            key = (keyword, i, j)
            if key in seen:
                warnings.warn(
                    f"line {line_no}: duplicate entry '{keyword} {i} {j}' collapsed",
                    DuplicateEntryWarning,
                )
                continue
            seen.add(key)
            (a_entries if keyword == "a" else b_entries).append((i, j))
        else:
            raise PatternFormatError(line_no, f"unknown directive {keyword!r}")

    if n is None:
        raise PatternFormatError(None, "missing size declaration 'n'")
    pattern_a = PatternMatrix(n, n, frozenset(a_entries))
    pattern_b = PatternMatrix(n, m, frozenset(b_entries)) if m > 0 else None
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
