import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerocontrol import (
    PatternFormatError,
    PatternMatrix,
    parse_pattern_file,
    serialize_pattern_file,
)
from zerocontrol.fileio import _parse_bulk
from zerocontrol.patterns import DuplicateEntryWarning
from conftest import EXAMPLE1_A, EXAMPLE1_B, EXAMPLE2_A
from oracles import oracle_parse_pattern_file


def test_parse_example1_fixture(fixture_dir, example1_a, example1_b):
    a, b = parse_pattern_file((fixture_dir / "example1.pat").read_text())
    assert a == example1_a
    assert b == example1_b
    assert len(a.nonzeros) == 8 and b is not None and len(b.nonzeros) == 1


def test_parse_example2_fixture(fixture_dir, example2_a):
    a, b = parse_pattern_file((fixture_dir / "example2.pat").read_text())
    assert a == example2_a
    assert b is None


def test_parse_minimal_file():
    a, b = parse_pattern_file("n 1\n")
    assert a == PatternMatrix.zeros(1, 1)
    assert b is None


def test_parse_handles_comments_and_blank_lines():
    text = "# header\n\nn 2\nm 1  # trailing comment\na 1 2\n\nb 2 1\n"
    a, b = parse_pattern_file(text)
    assert a.nonzeros == frozenset({(1, 2)})
    assert b is not None and b.nonzeros == frozenset({(2, 1)})


def test_parse_out_of_range_entry_names_the_entry():
    with pytest.raises(PatternFormatError, match="row 6 exceeds n=5"):
        parse_pattern_file("n 5\na 6 1\n")
    with pytest.raises(PatternFormatError, match="column 7 exceeds n=5"):
        parse_pattern_file("n 5\na 1 7\n")
    with pytest.raises(PatternFormatError, match="column 2 exceeds m=1"):
        parse_pattern_file("n 5\nm 1\nb 1 2\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PatternFormatError, match="line 3"):
        parse_pattern_file("n 2\na 1 1\na 9 9\n")
    err = None
    try:
        parse_pattern_file("n 2\n\nbogus 1\n")
    except PatternFormatError as exc:
        err = exc
    assert err is not None and err.line_no == 3


def test_parse_rejects_malformed_directives():
    with pytest.raises(PatternFormatError, match="entry before the size declaration"):
        parse_pattern_file("a 1 1\n")
    with pytest.raises(PatternFormatError, match="must be an integer"):
        parse_pattern_file("n x\n")
    with pytest.raises(PatternFormatError, match="expected 'a <row> <col>'"):
        parse_pattern_file("n 2\na 1\n")
    with pytest.raises(PatternFormatError, match="declared twice"):
        parse_pattern_file("n 2\nn 3\n")
    with pytest.raises(PatternFormatError, match="needs a prior 'm'"):
        parse_pattern_file("n 2\nb 1 1\n")
    with pytest.raises(PatternFormatError, match="missing size declaration"):
        parse_pattern_file("# nothing here\n")
    with pytest.raises(PatternFormatError, match="unknown directive"):
        parse_pattern_file("n 2\nq 1 1\n")
    # an integer token is an optional sign and ASCII digits, nothing else
    for text, error in (
        ("n 1_0\n", "line 1: n must be an integer, got '1_0'"),
        ("n \u0663\n", "line 1: n must be an integer, got '\u0663'"),
        ("n 12\na 1_0 1\n", "line 2: row must be an integer, got '1_0'"),
        ("n 12\na 1 \uff12\n", "line 2: column must be an integer, got '\uff12'"),
        ("n -+5\n", "line 1: n must be an integer, got '-\\+5'"),
        ("n 2\nm +-1\n", "line 2: m must be an integer, got '\\+-1'"),
    ):
        with pytest.raises(PatternFormatError, match=error):
            parse_pattern_file(text)
    assert parse_pattern_file("n +2\na +1 2\n")[0].nonzeros == frozenset({(1, 2)})


def test_parse_collapses_duplicates_with_warning():
    with pytest.warns(DuplicateEntryWarning, match="duplicate entry 'a 1 1'"):
        a, _ = parse_pattern_file("n 2\na 1 1\na 1 1\n")
    assert a.nonzeros == frozenset({(1, 1)})


@pytest.mark.parametrize(
    "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_lines_break_only_at_newline_and_carriage_return(separator):
    # str.splitlines would end the comment at the separator and read 'more'
    text = f"n 2\n# note{separator}more\na 1 2\n"
    assert parse_pattern_file(text)[0].nonzeros == frozenset({(1, 2)})
    with pytest.raises(PatternFormatError) as info:
        parse_pattern_file(f"n 2\r\n# note{separator}more\ra 1 2\nq\n")
    assert str(info.value) == "line 4: unknown directive 'q'"
    for newline in ("\n", "\r\n", "\r"):
        a, _ = parse_pattern_file(newline.join(["n 2", "a 1 2", "# x", "a 2 1", ""]))
        assert a.nonzeros == frozenset({(1, 2), (2, 1)})


# Every PatternFormatError path, with its exact message.
PARSE_ERRORS = [
    ("n x\n", "line 1: n must be an integer, got 'x'"),
    ("n 2\nm x\n", "line 2: m must be an integer, got 'x'"),
    ("n 2\na x 1\n", "line 2: row must be an integer, got 'x'"),
    ("n 2\na 1 x\n", "line 2: column must be an integer, got 'x'"),
    ("n 2\nm 1\nb 1 x\n", "line 3: column must be an integer, got 'x'"),
    ("n 2\nn 3\n", "line 2: size 'n' declared twice"),
    ("n 2\nn\n", "line 2: size 'n' declared twice"),
    ("n\n", "line 1: expected 'n <int>', got 'n'"),
    ("n 2 3\n", "line 1: expected 'n <int>', got 'n 2 3'"),
    ("n -1\n", "line 1: n must be >= 0, got -1"),
    ("m 1\nn 2\n", "line 1: 'm' before the size declaration 'n'"),
    ("m\n", "line 1: 'm' before the size declaration 'n'"),
    ("n 2\nm 1\nm 1\n", "line 3: input count 'm' declared twice"),
    ("n 2\nm 0\nm\n", "line 3: input count 'm' declared twice"),
    ("n 2\nm\n", "line 2: expected 'm <int>', got 'm'"),
    ("n 2\nm 1  2 # note\n", "line 2: expected 'm <int>', got 'm 1  2'"),
    ("n 2\nm -1\n", "line 2: m must be >= 0, got -1"),
    ("a 1 1\n", "line 1: entry before the size declaration 'n'"),
    ("b 1 1\nn 2\n", "line 1: entry before the size declaration 'n'"),
    ("n 2\na 1\n", "line 2: expected 'a <row> <col>', got 'a 1'"),
    ("n 2\nm 1\nb 1 1 1\n", "line 3: expected 'b <row> <col>', got 'b 1 1 1'"),
    ("n 2\na 3 1\n", "line 2: row 3 exceeds n=2 in entry 'a 3 1'"),
    ("n 2\na 0 1\n", "line 2: row 0 must be >= 1 in entry 'a 0 1'"),
    ("n 2\na 1 3\n", "line 2: column 3 exceeds n=2 in entry 'a 1 3'"),
    ("n 2\na -1 -1\n", "line 2: row -1 must be >= 1 in entry 'a -1 -1'"),
    ("n 2\nb 1 1\n", "line 2: entry 'b 1 1' needs a prior 'm' declaration with m >= 1"),
    ("n 2\nm 0\nb 9 9\n", "line 3: entry 'b 9 9' needs a prior 'm' declaration with m >= 1"),
    ("n 2\nm 1\nb 3 1\n", "line 3: row 3 exceeds n=2 in entry 'b 3 1'"),
    ("n 2\nm 1\nb 1 2\n", "line 3: column 2 exceeds m=1 in entry 'b 1 2'"),
    ("n 2\nm 1\nb 1 0\n", "line 3: column 0 must be >= 1 in entry 'b 1 0'"),
    ("n 2\nq 1 1\n", "line 2: unknown directive 'q'"),
    ("N 2\n", "line 1: unknown directive 'N'"),
    ("", "missing size declaration 'n'"),
    ("# a 1 1\n\n  # n 1\n", "missing size declaration 'n'"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_error_messages_are_pinned(text, message):
    with pytest.raises(PatternFormatError) as info:
        parse_pattern_file(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 2\na 1 2\na 1 2\n", "line 3: duplicate entry 'a 1 2' collapsed"),
        ("n 2\nm 1\nb 2 1\n\nb 2 1\n", "line 5: duplicate entry 'b 2 1' collapsed"),
    ],
)
def test_duplicate_entry_warning_is_pinned(text, message):
    with pytest.warns(DuplicateEntryWarning) as caught:
        parse_pattern_file(text)
    assert [str(w.message) for w in caught] == [message]


def test_round_trip_on_fixtures():
    for a, b in ((EXAMPLE1_A, EXAMPLE1_B), (EXAMPLE2_A, None)):
        text = serialize_pattern_file(a, b)
        a2, b2 = parse_pattern_file(text)
        assert a2 == a and b2 == b
        # serialization is normalized, hence stable under a second pass
        assert serialize_pattern_file(a2, b2) == text


@st.composite
def pattern_pairs(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 3))
    a_entries = draw(
        st.frozensets(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n * n)
    )
    a = PatternMatrix(n, n, a_entries)
    if m == 0:
        return a, None
    b_entries = draw(
        st.frozensets(st.tuples(st.integers(1, n), st.integers(1, m)), max_size=n * m)
    )
    return a, PatternMatrix(n, m, b_entries)


@given(pattern_pairs())
def test_round_trip_identity(pair):
    a, b = pair
    a2, b2 = parse_pattern_file(serialize_pattern_file(a, b))
    assert a2 == a and b2 == b


def test_serialize_header_comment_survives_parsing(example1_a):
    text = serialize_pattern_file(example1_a, None, header_comment="two\nlines")
    assert text.startswith("# two\n# lines\n")
    a, _ = parse_pattern_file(text)
    assert a == example1_a


def test_serialize_refuses_a_pair_no_file_can_hold():
    # an input row past n would be written, then refused by the parser: 'b 3 1' exceeds n=2
    with pytest.raises(ValueError, match="^input pattern has 3 rows, expected 2 to match the 2x2 state pattern$"):
        serialize_pattern_file(PatternMatrix(2, 2, {(1, 2)}), PatternMatrix(3, 1, {(3, 1)}))
    text = serialize_pattern_file(PatternMatrix(2, 2, {(1, 2)}), PatternMatrix.zeros(2, 0))
    assert text == "n 2\na 1 2\n" and parse_pattern_file(text) == (PatternMatrix(2, 2, {(1, 2)}), None)


# --- report documents ------------------------------------------------------------

def test_render_stats_prints_every_optional_line():
    from zerocontrol.numeric import MonteCarloStats
    from zerocontrol.reports import render_stats

    stats = MonteCarloStats(40, 7, True, 31, 2, tuple(range(7, 19)), False, 38)
    assert render_stats(stats) == (
        "structural verdict (zero controllable): yes\n"
        "numeric agreement: 31/40 (77.5%)\n"
        "base seed: 7\n"
        "controllability: structural no, numeric agreement 38/40\n"
        "flagged trials (not proven within the redraw budget, counted as no): 2\n"
        "disagreeing seeds: 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, ..."
    )


def test_render_stats_never_rounds_a_partial_agreement_to_all_or_none():
    """1999/2000 and 1/2500 once printed (100.0%) and (0.0%), so a disagreement
    read as full agreement; a partial count now prints 99.9% and 0.1% at its
    ends, and every k/100 prints k.0% as before."""
    from zerocontrol.numeric import MonteCarloStats
    from zerocontrol.reports import render_stats

    def shown(agreements, trials):
        line = render_stats(MonteCarloStats(trials, 0, True, agreements, 0, ()))
        return line.splitlines()[1]

    assert shown(1999, 2000) == "numeric agreement: 1999/2000 (99.9%)"
    assert shown(1, 2500) == "numeric agreement: 1/2500 (0.1%)"
    assert shown(2000, 2000) == "numeric agreement: 2000/2000 (100.0%)"
    assert shown(0, 2500) == "numeric agreement: 0/2500 (0.0%)"
    assert [shown(k, 100) for k in range(101)] == [f"numeric agreement: {k}/100 ({k}.0%)" for k in range(101)]
    for trials in (2, 3, 7, 999, 1001, 2000, 20001):
        for agreements in {1, 2, trials // 2, trials - 2, trials - 1} - {0, trials}:
            assert shown(agreements, trials)[-7:] not in (" (0.0%)", "100.0%)"), (agreements, trials)


def test_render_driver_set_prints_the_obstruction_of_an_invalid_set(example2_a):
    from zerocontrol import validate_driver_set
    from zerocontrol.reports import render_driver_set

    assert render_driver_set(validate_driver_set(example2_a, {"x9"})) == (
        "drivers (1): x9\n"
        "valid: no\n"
        "unreached cycles in components: {x4}\n"
        "cycle witness: x4 -> x4"
    )


def test_each_form_writes_every_field_and_its_derived_keys():
    """A field added to a result type cannot be left out of its JSON form:
    the form's keys are the fields plus the derived keys, each with one
    writer."""
    from dataclasses import fields

    from zerocontrol import DriverSet, MonteCarloStats, SteeringResult, ZcReport
    from zerocontrol.reports import _FORMS

    derived = {ZcReport: set(), DriverSet: {"size"}, MonteCarloStats: {"agreement_fraction"},
               SteeringResult: set()}
    assert set(_FORMS) == set(derived)
    for cls, form in _FORMS.items():
        names = {f.name for f in fields(cls)}
        assert set(form) == names | derived[cls], cls.__name__
        assert all(callable(write) for write in form.values()), cls.__name__


# --- the bulk parser against the per-line reference ----------------------------

ODD_INTEGERS = ["+1", "+2", "-0", "007", "1_0", "\u0663", "\uff12", "+-1", "1-", "--2", "x",
                "1" * 25, "9" * 18, "+" + "9" * 17, ""]
PLAIN_BLANKS = [" ", "\t", "  \t"]
# str.split() separates at these as well, so a line may use them between tokens
ODD_BLANKS = ["\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]


@st.composite
def pattern_texts(draw):
    """Files of every shape: plain ones (which the bulk parser reads) with
    duplicates and out-of-range entries, and odd ones with signed, non-ASCII
    or oversized integers, Unicode blanks, unknown directives, wrong token
    counts and shuffled directives.  Any newline style and an optional BOM."""
    odd = draw(st.booleans())
    blank = st.sampled_from(PLAIN_BLANKS + ODD_BLANKS if odd else PLAIN_BLANKS)
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 2))

    def index(bound):  # mostly in range
        outliers = ["0", str(bound + 1)] + (ODD_INTEGERS if odd else [])
        return draw(st.sampled_from([str(k) for k in range(1, bound + 1)] * 40 + outliers))

    directives = [["n", str(n)]] + ([["m", str(m)]] if m or draw(st.booleans()) else [])
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from("aaab" if m else "a"))
        directives.append([kind, index(n), index(n if kind == "a" else m)])
    if odd:  # each deviation in about one file of four
        if draw(st.integers(0, 3)) == 0:
            directives = draw(st.permutations(directives))
        if draw(st.integers(0, 3)) == 0:
            tokens = draw(st.sampled_from(directives))
            if draw(st.booleans()):
                tokens.append(index(n))
            else:
                tokens.pop()
        if draw(st.integers(0, 3)) == 0:
            directives.insert(draw(st.integers(0, len(directives))), [draw(st.sampled_from("qNa1"))])
    lines = []
    for tokens in directives:
        joined = "".join(t + draw(blank) for t in tokens[:-1]) + (tokens[-1] if tokens else "")
        comment = draw(st.sampled_from(["", "", " # note", "#é", "\t#a 1 1"]))
        lines.append(draw(st.sampled_from(["", "", " ", "\t"])) + joined + comment)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "# header \u2028 a 1 1", "#"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    body = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return draw(st.sampled_from(["", "\ufeff"])) + body


def parse_outcome(parse, text):
    """The patterns or the error of a parse, with the warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except PatternFormatError as exc:
            result = (str(exc), exc.line_no)
    return result, [(w.category, str(w.message)) for w in caught]


def assert_parses_like_the_reference(text):
    outcome = parse_outcome(parse_pattern_file, text)
    assert outcome == parse_outcome(oracle_parse_pattern_file, text)
    if isinstance(outcome[0][0], PatternMatrix):
        for pattern in filter(None, outcome[0]):
            rows, cols = pattern._coords
            assert list(zip(rows.tolist(), cols.tolist())) == sorted(
                pattern.nonzeros, key=lambda e: (e[1], e[0])
            )


@settings(max_examples=400, deadline=None)
@given(pattern_texts())
def test_bulk_parser_matches_the_line_reference(text):
    assert_parses_like_the_reference(text)


@pytest.mark.parametrize("text", [t for t, _ in PARSE_ERRORS] + [
    "n 2\na 1 2\na 1 2\n", "n 2\nm 1\nb 2 1\n\nb 2 1\na 2 2\na 2 2\n", "n 3\na 1 2 # x\na 1\xa02\n",
    "n 1\na\u30001\u20281\n", "n 99999999999999999999\n", "n 1\na +1 01\n", "n 2\na 1 1 a 2 2\n",
    "n 2\nm 1\nm 1\n", "n 2\nb 1 1\nm 1\n", "n 2\na 1 1\nn 2\n", "\ufeff\ufeffn 1\n", "n 1\n\x1c\n",
])
def test_malformed_and_odd_files_match_the_line_reference(text):
    assert_parses_like_the_reference(text)


def test_plain_files_take_the_bulk_path(fixture_dir):
    texts = [(fixture_dir / name).read_text() for name in ("example1.pat", "example2.pat")]
    texts += [serialize_pattern_file(a, b) for a, b in ((EXAMPLE1_A, EXAMPLE1_B), (EXAMPLE2_A, None))]
    texts += ["n 0\n", "n 3\r\nm 2\r\n\tb 3 +2  # c\r\na 1 1\r\nb 1 1", "# é\nn 2\na 2 1\n"]
    for text in texts:
        assert _parse_bulk(text.replace("\r\n", "\n")) is not None, text
    for text in ("n 2\na 1 1\na 1 1\n", "n 2\na 1\xa01\n", "n 1_0\n", "m 1\nn 2\n", "n 2\nb 1 1\n"):
        assert _parse_bulk(text) is None, text
