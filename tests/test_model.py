import copy
import pickle
import re
import sys

import pytest
from hypothesis import given, strategies as st

from negseq import (
    Dictionary,
    EMPTY_ITEMSET,
    EmptyPositiveError,
    InvalidTokenError,
    Itemset,
    NegMode,
    NegPattern,
    Negative,
    Sequence,
    SequenceDatabase,
    THETAS,
    Theta,
    make_itemset,
    pattern_length,
    positive_part,
)
from negseq.model import check_token
from negseq.textio import parse_database, parse_pattern, render_pattern


class TestTokens:
    def test_valid(self):
        assert check_token("a") == "a"
        assert check_token("drug_B12") == "drug_B12"

    # The last seven hold whitespace beyond the ASCII blanks: vertical tab,
    # form feed, a separator, next line and three Unicode spaces.
    @pytest.mark.parametrize("bad", ["", "a b", "a\t", "x(", "y)", "z{", "w}",
                                     "p|", "q!", "r<", "s>", "t,", "u#", "v¬",
                                     "a\x0bb", "a\x0cb", "a\x1cb", "a\x85b",
                                     "a\xa0b", "a\u2028b", "a\u3000b"])
    def test_rejected(self, bad):
        with pytest.raises(InvalidTokenError):
            check_token(bad)

    @pytest.mark.parametrize("bad, message", [
        ("", "empty token"),
        ("a b", "token 'a b' contains whitespace"),
        ("x(", "token 'x(' contains reserved character '('"),
        ("v¬", "token 'v¬' contains reserved character '¬'"),
        # The first offending character decides the message.
        ("a b(", "token 'a b(' contains whitespace"),
        ("a(b c", "token 'a(b c' contains reserved character '('"),
        ("a!b(", "token 'a!b(' contains reserved character '!'"),
        ("\t,", "token '\\t,' contains whitespace"),
    ])
    def test_rejection_messages(self, bad, message):
        with pytest.raises(InvalidTokenError) as info:
            check_token(bad)
        assert str(info.value) == message

    def test_regex_whitespace_is_str_isspace(self):
        # The token rule is one regular expression over \s; it must agree
        # with str.isspace on every code point.
        space = re.compile(r"\s")
        mismatches = [
            cp for cp in range(sys.maxunicode + 1)
            if bool(space.match(chr(cp))) != chr(cp).isspace()
        ]
        assert mismatches == []


class TestDictionary:
    def test_insertion_order_is_item_order(self):
        d = Dictionary()
        assert d.add("b") == 0
        assert d.add("a") == 1
        assert d.add("b") == 0
        assert d.token_of(1) == "a"
        assert list(d) == ["b", "a"]
        assert "a" in d and "z" not in d
        assert len(d) == 2

    def test_bad_token_rejected(self):
        with pytest.raises(InvalidTokenError):
            Dictionary(["ok", "not ok"])


class TestItemset:
    def test_sorted_and_deduplicated(self):
        d = Dictionary()
        itemset = make_itemset(["d", "a"], d)
        assert itemset.tokens(d) == ("a", "d")
        assert d.id_of("a") < d.id_of("d")

    def test_dedup(self):
        d = Dictionary()
        assert make_itemset(["a", "a"], d).tokens(d) == ("a",)

    def test_length(self):
        d = Dictionary()
        assert len(make_itemset(["b", "c"], d)) == 2

    def test_unseen_tokens_added_sorted_even_mid_dictionary(self):
        d = Dictionary("bc")
        make_itemset(["e", "d"], d)
        assert list(d) == ["b", "c", "d", "e"]

    def test_algebra(self):
        a = Itemset.of([0, 2])
        b = Itemset.of([0, 1, 2])
        assert a.issubset(b) and not b.issubset(a)
        assert (a | Itemset.of([1])).items == (0, 1, 2)
        assert 2 in a and 1 not in a
        assert list(a) == [0, 2]
        assert not EMPTY_ITEMSET and len(EMPTY_ITEMSET) == 0

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Itemset.of([-1])


class TestSequence:
    def test_empty_member_rejected(self):
        with pytest.raises(ValueError):
            Sequence((EMPTY_ITEMSET,))
        a = Itemset.of([0])
        with pytest.raises(ValueError) as info:
            Sequence((a, EMPTY_ITEMSET, a, EMPTY_ITEMSET))
        assert str(info.value) == "sequence itemset at position 2 is empty"

    def test_empty_sequence_allowed(self):
        assert len(Sequence(())) == 0

    def test_copies_and_pickles_equal_the_original(self):
        built = Sequence((Itemset.of([0]), Itemset.of([0, 1])))
        # A loaded sequence whose itemsets nothing has read yet.
        loaded = parse_database("a (a b)\n").sequences[0]
        for sequence in (built, loaded):
            assert copy.copy(sequence) == sequence == built
            assert pickle.loads(pickle.dumps(sequence)) == built


class TestNegPattern:
    def test_worked_example(self, abc_dict):
        p = parse_pattern("<a !(b c) (a d) d !(a b) d>", abc_dict)
        assert pattern_length(p) == 6
        plus = positive_part(p)
        assert render_pattern(plus, abc_dict) == "<a (a d) d d>"
        assert positive_part(plus) == plus

    def test_empty_negative_slot_not_counted(self, abc_dict):
        p = parse_pattern("<a (a d) d d>", abc_dict)
        assert pattern_length(p) == 4

    def test_explicit_empty_negative_equals_absent(self, abc_dict):
        a = make_itemset(["a"], abc_dict)
        b = make_itemset(["b"], abc_dict)
        assert NegPattern((a, b), (Negative(),)) == NegPattern((a, b))
        assert pattern_length(NegPattern((a, b))) == 2

    def test_empty_positive_rejected(self):
        with pytest.raises(EmptyPositiveError, match="positive itemset p1 is empty"):
            NegPattern((EMPTY_ITEMSET,))
        with pytest.raises(EmptyPositiveError) as info:
            NegPattern(())
        assert str(info.value) == "pattern has no positive itemsets"
        a = Itemset.of([0])
        with pytest.raises(EmptyPositiveError) as info:
            NegPattern((a, EMPTY_ITEMSET))
        assert str(info.value) == "positive itemset p2 is empty"
        with pytest.raises(EmptyPositiveError) as info:
            NegPattern((a, EMPTY_ITEMSET), (Negative(), Negative()))
        assert str(info.value) == (
            "positive itemset p2 is empty; expected 1 negative slots, got 2"
        )

    def test_negative_arity_enforced(self):
        a = Itemset.of([0])
        with pytest.raises(ValueError) as info:
            NegPattern((a, a), (Negative(), Negative()))
        assert type(info.value) is ValueError
        assert str(info.value) == "expected 1 negative slots, got 2"
        with pytest.raises(ValueError) as info:
            NegPattern((a,), (Negative(),))
        assert str(info.value) == "expected 0 negative slots, got 1"

    def test_mode_on_empty_slot_is_erased(self):
        slot = Negative(EMPTY_ITEMSET, NegMode.TOTAL)
        assert slot.mode is None

    def test_length_examples(self, abc_dict):
        assert pattern_length(parse_pattern("<a>", abc_dict)) == 1
        assert pattern_length(parse_pattern("<b !c a>", abc_dict)) == 3
        assert positive_part(parse_pattern("<b !c a>", abc_dict)) == parse_pattern(
            "<b a>", abc_dict
        )


class TestTheta:
    def test_eight_distinct_in_canonical_order(self):
        assert len(set(THETAS)) == 8
        assert [t.index for t in THETAS] == list(range(8))
        assert THETAS[0].spell() == "strong-strict-partial"
        assert THETAS[7].spell() == "weak-soft-total"

    def test_parse_spell_roundtrip(self):
        for t in THETAS:
            assert Theta.parse(t.spell()) == t

    @pytest.mark.parametrize("bad", ["weak", "weak-strict", "soft-weak-total",
                                     "weak-strict-total-x", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            Theta.parse(bad)


class TestSequenceDatabase:
    def test_dictionary_covers_items(self):
        d = Dictionary("a")
        s = Sequence((Itemset.of([1]),))
        with pytest.raises(ValueError):
            SequenceDatabase((s,), d)
        d = Dictionary("ab")
        inside = Sequence((Itemset.of([0]), Itemset.of([0, 1])))
        outside = Sequence((Itemset.of([1]), Itemset.of([0, 2])))
        with pytest.raises(ValueError) as info:
            SequenceDatabase((inside, outside, outside), d)
        assert str(info.value) == "sequence 2 uses items missing from the dictionary"

    def test_sequences_without_itemsets_pass_the_check(self):
        assert len(SequenceDatabase((), Dictionary())) == 0
        empty = Sequence(())
        db = SequenceDatabase((empty, Sequence((Itemset.of([0]),)), empty), Dictionary("a"))
        assert len(db) == 3
        with pytest.raises(ValueError) as info:
            SequenceDatabase((empty, Sequence((Itemset.of([1]),))), Dictionary("a"))
        assert str(info.value) == "sequence 2 uses items missing from the dictionary"

    def test_iteration(self, table1_db):
        assert len(table1_db) == 5
        assert len(list(table1_db)) == 5


@st.composite
def small_patterns(draw):
    k = draw(st.integers(1, 3))
    positives = tuple(
        Itemset.of(draw(st.sets(st.integers(0, 4), min_size=1, max_size=2)))
        for _ in range(k)
    )
    negatives = tuple(
        Negative(Itemset.of(draw(st.sets(st.integers(0, 4), max_size=2))))
        for _ in range(k - 1)
    )
    return NegPattern(positives, negatives)


@given(small_patterns())
def test_positive_part_is_valid_and_counts_positives(p):
    plus = positive_part(p)
    assert pattern_length(plus) == len(p.positives)


@given(small_patterns())
def test_length_dominates_positive_part(p):
    assert pattern_length(p) >= pattern_length(positive_part(p))
    no_negatives = all(not n.itemset for n in p.negatives)
    assert (pattern_length(p) == pattern_length(positive_part(p))) == no_negatives
