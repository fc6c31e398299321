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
    StructureError,
    dump_database,
    load_database,
    parse_database,
    parse_pattern,
    parse_sequence,
    render_pattern,
    render_sequence,
    save_database,
)
from negseq.textio import aligned_rows, csv_row


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

    @pytest.mark.parametrize(
        "text,column",
        [
            ("a b", 1),          # missing '<'
            ("<a b", 5),         # missing '>'
            ("<>", 2),           # no elements
            ("<a () b>", 4),     # empty itemset
            ("<a !() b>", 5),    # empty negative atom
            ("<b !(c", 7),       # unclosed negative
            ("<a b> x", 7),      # trailing input
            ("<a , b>", 4),      # stray reserved character
        ],
    )
    def test_syntax_errors_carry_columns(self, text, column, abc_dict):
        with pytest.raises(PatternSyntaxError) as info:
            parse_pattern(text, abc_dict)
        assert info.value.column == column

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
