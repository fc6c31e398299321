from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from negseq import (
    DatabaseParseError,
    Dictionary,
    EmptyItemsetError,
    Itemset,
    NegMode,
    NegPattern,
    Negative,
    PatternSyntaxError,
    Sequence,
    SequenceDatabase,
    StructureError,
    dump_database,
    load_database,
    make_itemset,
    parse_database,
    parse_pattern,
    parse_sequence,
    render_pattern,
    render_sequence,
    save_database,
)
from negseq.model import RESERVED_CHARS
from negseq.textio import _TOKEN, aligned_rows, csv_row


class TestParsePattern:
    def test_mixed_modes(self, abc_dict):
        p = parse_pattern("<a !|b c| f !{a c} b>", abc_dict)
        assert [it.tokens(abc_dict) for it in p.positives] == [("a",), ("f",), ("b",)]
        assert p.negatives[0].itemset.tokens(abc_dict) == ("b", "c")
        assert p.negatives[0].mode is NegMode.TOTAL
        assert p.negatives[1].itemset.tokens(abc_dict) == ("a", "c")
        assert p.negatives[1].mode is NegMode.STRICT_PARTIAL

    def test_bare_singleton_is_mode_free(self, abc_dict):
        p = parse_pattern("<a !b c>", abc_dict)
        assert p.negatives[0].mode is None
        assert len(p.negatives[0].itemset) == 1

    def test_parenthesized_negative_is_mode_free(self, abc_dict):
        # Keeps <b !(c d) a> meaningful under every containment relation,
        # which the per-theta support comparisons rely on.
        p = parse_pattern("<b !(c d) a>", abc_dict)
        assert p.negatives[0].mode is None

    def test_negation_sign_alias(self, abc_dict):
        assert parse_pattern("<a ¬b c>", abc_dict) == parse_pattern("<a !b c>", abc_dict)

    def test_itemsets_sorted_and_deduplicated(self, abc_dict):
        p = parse_pattern("<(d a a)>", abc_dict)
        assert p.positives[0].tokens(abc_dict) == ("a", "d")

    def test_leading_negative(self, abc_dict):
        with pytest.raises(StructureError):
            parse_pattern("<!b a>", abc_dict)

    def test_adjacent_negatives(self, abc_dict):
        with pytest.raises(StructureError):
            parse_pattern("<a !(b c) !(c d) e>", abc_dict)

    def test_trailing_negative(self, abc_dict):
        with pytest.raises(StructureError):
            parse_pattern("<a !b>", abc_dict)

    SYNTAX_ERRORS = [
        ("a b", 1, "pattern must start with '<'"),
        ("  x", 3, "pattern must start with '<'"),
        ("<a b", 5, "pattern must end with '>'"),
        ("<>", 2, "pattern has no itemsets"),
        ("<a () b>", 4, "itemset must contain at least one item"),
        ("<a !() b>", 5, "itemset must contain at least one item"),
        ("<b !(c", 7, "expected ')' before end of input"),
        ("<a !(b c", 9, "expected ')' before end of input"),
        ("<a b> x", 7, "trailing input after '>'"),
        ("<a , b>", 4, "unexpected ','"),
        # '!' must touch the item or bracket it negates.
        ("<a ! b>", 5, "expected an item, found ' '"),
        ("<a !", 5, "expected an item, found end of input"),
        ("<a !) b>", 5, "expected an item, found ')'"),
        ("<a (b > c>", 7, "expected an item, found '>'"),
    ]

    @pytest.mark.parametrize(
        "text,column,message",
        SYNTAX_ERRORS,
        ids=[f"{text}-{column}" for text, column, _ in SYNTAX_ERRORS],
    )
    def test_syntax_errors_carry_columns(self, text, column, message, abc_dict):
        with pytest.raises(PatternSyntaxError) as info:
            parse_pattern(text, abc_dict)
        assert info.value.column == column
        assert str(info.value) == f"column {column}: {message}"

    def test_extends_dictionary(self):
        d = Dictionary("ab")
        parse_pattern("<a !z b>", d)
        assert "z" in d


class TestRenderPattern:
    def test_canonical_forms(self, abc_dict):
        assert (
            render_pattern(parse_pattern("<a !(b c) d>", abc_dict), abc_dict)
            == "<a !(b c) d>"
        )
        assert (
            render_pattern(parse_pattern("<a (a d) d d>", abc_dict), abc_dict)
            == "<a (a d) d d>"
        )
        assert render_pattern(parse_pattern("<a !b c>", abc_dict), abc_dict) == "<a !b c>"
        assert (
            render_pattern(parse_pattern("<a !{b} c>", abc_dict), abc_dict)
            == "<a !{b} c>"
        )
        assert (
            render_pattern(parse_pattern("<a !|b c| f !{a c} b>", abc_dict), abc_dict)
            == "<a !|b c| f !{a c} b>"
        )

    def test_soft_partial_mode_renders_as_parenthesis_form(self, abc_dict):
        a, b, c = (Itemset.of([abc_dict.id_of(t)]) for t in "abc")
        p = NegPattern((a, c), (Negative(b, NegMode.SOFT_PARTIAL),))
        text = render_pattern(p, abc_dict)
        assert text == "<a !b c>"
        # Re-parsing canonicalizes the slot to mode-free.
        assert parse_pattern(text, abc_dict).negatives[0].mode is None


@st.composite
def canonical_patterns(draw):
    tokens = "abcde"
    k = draw(st.integers(1, 3))
    positives = tuple(
        Itemset.of(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)))
        for _ in range(k)
    )
    negatives = []
    for _ in range(k - 1):
        items = Itemset.of(draw(st.sets(st.integers(0, 4), max_size=3)))
        mode = draw(
            st.sampled_from([None, NegMode.STRICT_PARTIAL, NegMode.TOTAL])
        )
        negatives.append(Negative(items, mode if items else None))
    return NegPattern(positives, tuple(negatives)), Dictionary(tokens)


@given(canonical_patterns())
def test_parse_render_identity_on_canonical_patterns(case):
    pattern, dictionary = case
    text = render_pattern(pattern, dictionary)
    assert parse_pattern(text, dictionary) == pattern


@st.composite
def any_mode_patterns(draw):
    # Includes explicit soft-partial slots, which have no distinct text form.
    k = draw(st.integers(1, 3))
    positives = tuple(
        Itemset.of(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)))
        for _ in range(k)
    )
    negatives = []
    for _ in range(k - 1):
        items = Itemset.of(draw(st.sets(st.integers(0, 4), max_size=3)))
        mode = draw(st.sampled_from([None, *NegMode]))
        negatives.append(Negative(items, mode if items else None))
    return NegPattern(positives, tuple(negatives)), Dictionary("abcde")


@given(st.one_of(canonical_patterns(), any_mode_patterns()))
def test_render_parse_render_is_stable(case):
    pattern, dictionary = case
    once = render_pattern(pattern, dictionary)
    again = render_pattern(parse_pattern(once, dictionary), dictionary)
    assert once == again


class TestNativeFormat:
    def test_multi_item_line(self):
        db = parse_database("(b c) (c d e f) a\n")
        d = db.dictionary
        assert [it.tokens(d) for it in db.sequences[0]] == [
            ("b", "c"),
            ("c", "d", "e", "f"),
            ("a",),
        ]

    def test_first_appearance_dictionary_order(self):
        db = parse_database("(b c) f a\nd\n")
        assert list(db.dictionary) == ["b", "c", "f", "a", "d"]
        # Brackets keep the order of appearance too, unlike pattern itemsets.
        db = parse_database("(b a) a\n")
        assert list(db.dictionary) == ["b", "a"]
        assert [it.tokens(db.dictionary) for it in db.sequences[0]] == [
            ("b", "a"),
            ("a",),
        ]

    def test_comment_and_blank_lines(self):
        db = parse_database("# header\n\na b\n")
        assert len(db) == 1

    def test_comments_only_yields_empty(self):
        assert len(parse_database("# nothing here\n")) == 0

    def test_empty_itemset_error(self):
        with pytest.raises(EmptyItemsetError) as info:
            parse_database("a () b\n")
        assert info.value.line == 1
        assert info.value.column == 3

    def test_unclosed_itemset(self):
        with pytest.raises(DatabaseParseError):
            parse_database("a (b c\n")

    def test_stray_reserved_character(self):
        with pytest.raises(DatabaseParseError) as info:
            parse_database("a b\nc ) d\n")
        assert info.value.line == 2
        assert info.value.column == 3

    @pytest.mark.parametrize(
        "text,column,message",
        [
            ("a (b ¬ c)", 6, "unexpected '¬'"),
            ("a <b", 3, "unexpected '<'"),
            ("a (b c", 3, "unclosed '('"),
            ("((a))", 2, "unexpected '('"),
            ("(a b) c) d", 8, "unexpected ')'"),
            ("a ( ) b", 3, "empty itemset '()'"),
            ("(a,b) c", 3, "unexpected ','"),
        ],
    )
    def test_errors_carry_line_and_column(self, text, column, message):
        with pytest.raises(DatabaseParseError) as info:
            parse_database(text)
        assert (info.value.line, info.value.column) == (1, column)
        assert str(info.value) == f"line 1, column {column}: {message}"

    def test_lines_split_as_str_splitlines(self):
        # A form feed ends a line, as it does for str.splitlines.
        assert len(parse_database("x\x0cy")) == 2


def scan_tokens(text):
    """The token rule as a character loop: (start, token) for each maximal run
    of non-space, non-reserved characters and for each reserved character."""
    tokens, start = [], None
    for pos, ch in enumerate(text + " "):
        if start is not None and (ch.isspace() or ch in RESERVED_CHARS):
            tokens.append((start, text[start:pos]))
            start = None
        if ch in RESERVED_CHARS:
            tokens.append((pos, ch))
        elif start is None and not ch.isspace():
            start = pos
    return tokens


# Any text, or text over item characters, every reserved character and
# whitespace, including the form feed and newline that also end database lines.
PARSER_TEXT = st.one_of(
    st.text(),
    st.text(st.sampled_from(["a", "b", "é", " ", "\t", "\x0c", "\n", *sorted(RESERVED_CHARS)])),
)


@given(PARSER_TEXT)
def test_token_regex_agrees_with_character_loop(text):
    assert [(m.start(), m.group()) for m in _TOKEN.finditer(text)] == scan_tokens(text)


@st.composite
def native_databases(draw):
    token = st.text(
        st.characters(exclude_characters=RESERVED_CHARS, exclude_categories=["Cs"]),
        min_size=1,
        max_size=4,
    ).filter(lambda t: not any(ch.isspace() for ch in t))
    pool = draw(st.lists(token, min_size=1, max_size=6, unique=True))
    itemset = st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    dictionary = Dictionary()
    sequences = []
    for _ in range(draw(st.integers(0, 4))):
        steps = draw(st.lists(itemset, min_size=1, max_size=4))
        sequences.append(Sequence(tuple(make_itemset(s, dictionary) for s in steps)))
    return SequenceDatabase(tuple(sequences), dictionary)


@given(native_databases())
def test_dump_parse_dump_round_trip(db):
    text = dump_database(db)
    again = parse_database(text)
    assert again.sequences == db.sequences
    assert list(again.dictionary) == list(db.dictionary)
    assert dump_database(again) == text


@given(PARSER_TEXT)
def test_pattern_errors_point_into_the_text(text):
    try:
        parse_pattern(text, Dictionary())
    except PatternSyntaxError as error:
        assert 1 <= error.column <= len(text) + 1
    except StructureError:
        pass  # alternation errors carry no column


@given(PARSER_TEXT)
def test_database_errors_point_into_their_line(text):
    try:
        parse_database(text)
    except DatabaseParseError as error:
        line = text.splitlines()[error.line - 1]
        assert 1 <= error.column <= len(line) + 1


def read_line(line, lineno, ids):
    """One native line as the token rule reads it: the masks of its
    itemsets, or the (error class, message, line, column) of its first token
    that does not fit. ``ids`` maps each item token seen so far to its id."""
    masks, group = [], None  # group: [column of '(', mask] while open
    for start, token in scan_tokens(line):
        if token not in RESERVED_CHARS:
            bit = 1 << ids.setdefault(token, len(ids))
            if group is None:
                masks.append(bit)
            else:
                group[1] |= bit
        elif token == "(" and group is None:
            group = [start + 1, 0]
        elif token == ")" and group is not None:
            if not group[1]:
                return EmptyItemsetError, "empty itemset '()'", lineno, group[0]
            masks.append(group[1])
            group = None
        else:
            return DatabaseParseError, f"unexpected {token!r}", lineno, start + 1
    if group is not None:
        return DatabaseParseError, "unclosed '('", lineno, group[0]
    return masks


def read_database(text):
    """``read_line`` over the lines of ``text``: (masks per sequence, ids),
    or the first line's error."""
    ids, sequences = {}, []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip() and not line.strip().startswith("#"):
            read = read_line(line, lineno, ids)
            if isinstance(read, tuple):
                return read
            sequences.append(tuple(read))
    return sequences, ids


def error_of(error):
    return type(error), str(error).partition(": ")[2], error.line, error.column


def shared_itemsets(sequences):
    """The one Itemset of each mask in ``sequences``; fails where a mask has
    two."""
    shared = {}
    for sequence in sequences:
        for itemset in sequence:
            assert shared.setdefault(itemset.mask, itemset) is itemset
    return shared


# Brackets in every arrangement, a group of one repeated item, a comment mark
# and characters that end a line (or, inside one sequence text, separate
# tokens).
BRACKET_TEXT = st.lists(
    st.sampled_from(
        ["a", "b", "c", " ", "(", ")", "( )", "((", "))", "(a a)", "#", "\x85", "\x1c", "\n"]
    ),
    max_size=16,
).map("".join)


@given(st.one_of(PARSER_TEXT, BRACKET_TEXT))
def test_database_reader_agrees_with_the_token_rule(text):
    expected = read_database(text)
    try:
        db = parse_database(text)
    except DatabaseParseError as error:
        assert error_of(error) == expected
        return
    sequences, ids = expected
    assert [s.masks for s in db.sequences] == sequences
    assert list(db.dictionary) == list(ids)
    shared_itemsets(db.sequences)


@given(st.one_of(PARSER_TEXT, BRACKET_TEXT))
def test_sequence_reader_agrees_with_the_token_rule(text):
    # The whole text is one line, and the dictionary grows as it is read,
    # up to the first error.
    ids = {"b": 0, "a": 1}
    expected = read_line(text, 1, ids)
    dictionary = Dictionary("ba")
    try:
        sequence = parse_sequence(text, dictionary)
    except DatabaseParseError as error:
        assert error_of(error) == expected
    else:
        assert list(sequence.masks) == expected
        shared_itemsets([sequence])
    assert list(dictionary) == list(ids)


class TestSpmfFormat:
    def test_basic_line(self):
        db = parse_database("1 2 -1 3 -1 -2\n", format="spmf")
        d = db.dictionary
        assert [it.tokens(d) for it in db.sequences[0]] == [("1", "2"), ("3",)]

    def test_consecutive_markers(self):
        with pytest.raises(EmptyItemsetError):
            parse_database("1 -1 -1 -2\n", format="spmf")

    def test_unterminated(self):
        with pytest.raises(DatabaseParseError):
            parse_database("1 -1\n", format="spmf")

    def test_unclosed_itemset_before_end(self):
        with pytest.raises(DatabaseParseError):
            parse_database("1 -2\n", format="spmf")

    def test_garbage_token(self):
        with pytest.raises(DatabaseParseError):
            parse_database("1 x -1 -2\n", format="spmf")

    def test_items_after_terminator(self):
        with pytest.raises(DatabaseParseError):
            parse_database("1 -1 -2 4\n", format="spmf")

    def test_unknown_marker(self):
        with pytest.raises(DatabaseParseError):
            parse_database("1 -3 -1 -2\n", format="spmf")

    def test_items_are_keyed_by_integer_value(self):
        db = parse_database("01 -1 +1 -1 1 -1 -2\n", format="spmf")
        assert list(db.dictionary) == ["1"]
        assert db.sequences[0].masks == (1, 1, 1)

    @pytest.mark.parametrize(
        "text,token",
        [
            ("1_000 -1 ١ -1 -2", "1_000"),
            ("1 -1 ١ -1 -2", "١"),
            ("2 １ -1 -2", "１"),
            ("1 -1 -_2", "-_2"),
        ],
    )
    def test_integers_are_ascii_digits(self, text, token):
        # int() alone takes underscores and any Unicode decimal digit.
        with pytest.raises(DatabaseParseError) as info:
            parse_database(text + "\n", format="spmf")
        assert str(info.value) == f"line 1: expected an integer, found {token!r}"


def assert_same_as_rebuilt(sequence):
    """``sequence`` cannot be assigned to, and it equals, hashes and prints
    as the Sequence rebuilt by hand from its masks."""
    # Before anything reads the itemsets of a loaded sequence.
    for name in ("itemsets", "masks"):
        with pytest.raises(FrozenInstanceError):
            setattr(sequence, name, ())
    itemsets = tuple(Itemset(mask) for mask in sequence.masks)
    rebuilt = Sequence(itemsets)
    assert sequence == rebuilt and rebuilt == sequence
    assert hash(sequence) == hash(rebuilt) == hash((itemsets,))
    assert repr(sequence) == repr(rebuilt)
    assert len(sequence) == len(itemsets) and tuple(sequence) == itemsets


@given(st.one_of(PARSER_TEXT, BRACKET_TEXT))
def test_loaded_sequences_equal_their_rebuilt_form(text):
    try:
        db = parse_database(text)
    except DatabaseParseError:
        return
    for sequence in db.sequences:
        assert_same_as_rebuilt(sequence)


@given(st.one_of(PARSER_TEXT, BRACKET_TEXT))
def test_parsed_sequence_equals_its_rebuilt_form(text):
    try:
        sequence = parse_sequence(text, Dictionary())
    except DatabaseParseError:
        return
    assert_same_as_rebuilt(sequence)


# spmf lines of one to three items an itemset, in several spellings, or
# text over digits, signs and the characters int() takes beyond them.
SPMF_TEXT = st.one_of(
    st.lists(
        st.lists(
            st.lists(st.sampled_from(["1", "2", "01", "+2", "30"]), min_size=1, max_size=3),
            max_size=4,
        ).map(lambda itemsets: "".join(" ".join(items) + " -1 " for items in itemsets) + "-2"),
        max_size=4,
    ).map("\n".join),
    st.text(st.sampled_from(["1", "2", "0", "+", "-", "_", "١", " ", "\n"])),
)


@given(SPMF_TEXT)
def test_spmf_sequences_equal_their_rebuilt_form(text):
    try:
        db = parse_database(text, format="spmf")
    except DatabaseParseError:
        return
    for sequence in db.sequences:
        assert_same_as_rebuilt(sequence)


@pytest.mark.parametrize(
    "text,format,distinct",
    [
        ("a (a b) b\n(b a) a (a) (a a) c\nb (a b c) (c b a) a\n", "native", 5),
        ("1 -1 1 2 -1 2 -1 -2\n2 1 -1 01 -1 1 1 -1 3 -1 -2\n", "spmf", 4),
    ],
)
def test_each_distinct_mask_is_one_shared_itemset(text, format, distinct):
    assert len(shared_itemsets(parse_database(text, format).sequences)) == distinct


class TestRoundTrips:
    def test_dump_parse_identity(self, table1_db):
        text = dump_database(table1_db)
        again = parse_database(text)
        assert again.sequences == table1_db.sequences
        assert list(again.dictionary) == list(table1_db.dictionary)
        assert dump_database(again) == text

    def test_save_load(self, tmp_path, table1_db):
        path = tmp_path / "db.txt"
        save_database(table1_db, str(path))
        again = load_database(str(path))
        assert again.sequences == table1_db.sequences

    @pytest.mark.parametrize(
        "text,format",
        [("a b (a c)\nc a\n", "native"), ("1 -1 2 3 -1 -2\n3 -1 -2\n", "spmf")],
        ids=["native", "spmf"],
    )
    def test_byte_order_mark_is_not_part_of_the_first_token(self, tmp_path, text, format):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        expected = load_database(str(plain), format)
        again = load_database(str(marked), format)
        assert again.sequences == expected.sequences
        assert list(again.dictionary) == list(expected.dictionary)

    def test_load_unknown_format(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("a\n")
        with pytest.raises(ValueError):
            load_database(str(path), format="xml")

    def test_parse_sequence_reuses_dictionary(self, abc_dict):
        s = parse_sequence("(b c) a", abc_dict)
        assert render_sequence(s, abc_dict) == "(b c) a"


class TestRendering:
    def test_csv_row(self):
        assert csv_row(["a", 1, True]) == "a,1,True"

    def test_aligned_rows(self):
        text = aligned_rows([["ab", "c"], ["d", "efg"]])
        assert text == "ab  c\nd   efg\n"
        assert aligned_rows([]) == ""

    def test_dominance_table_serialization(self):
        from negseq import known_dominance
        from negseq.textio import dominance_table_rows, dominance_table_to_text

        table = known_dominance()
        rows = dominance_table_rows(table)
        assert len(rows) == 9
        assert rows[0][:2] == ["", "strong-strict-partial"]
        assert rows[5] == ["strong-strict-total", ">", ">", ">", ">", ".", ">", ">", ">"]
        grid = dominance_table_to_text(table)
        assert "strong-soft-total" in grid.splitlines()[0]
