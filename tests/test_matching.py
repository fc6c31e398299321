import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from negseq import (
    Dictionary,
    EMPTY_ITEMSET,
    EmbeddingKind,
    Itemset,
    NegMode,
    NegPattern,
    Negative,
    NonInclusion,
    NotAPositiveEmbeddingError,
    Occurrence,
    Sequence,
    SequenceDatabase,
    THETAS,
    Theta,
    all_theta_supports,
    check_embedding,
    contains,
    gap_union,
    is_contained,
    non_inclusion,
    positive_embeddings,
    positive_part,
    support,
    theta_bits,
)
from negseq.matching import (
    _COMBO_TEST,
    _Layout,
    _TESTS,
    _decide,
    _earliest,
    _first_passing,
    _latest,
    _placed,
    _plan,
    _slot_tests,
    _supports,
    theta_masks,
    weak_strong_support,
)
from negseq.orders import random_pattern, random_sequence
from negseq.textio import parse_pattern, parse_sequence
from conftest import pairwise_masks, sequence_rows, with_random_modes

SOFT, STRICT = EmbeddingKind.SOFT, EmbeddingKind.STRICT
PARTIAL, TOTAL = NonInclusion.PARTIAL, NonInclusion.TOTAL


# --- independent oracle: quantifier expansion over literal definitions -----


def naive_embeddings(positives, s):
    out = []
    for combo in itertools.combinations(range(1, len(s.itemsets) + 1), len(positives)):
        if all(
            set(p.items) <= set(s.itemsets[pos - 1].items)
            for p, pos in zip(positives, combo)
        ):
            out.append(combo)
    return out


def naive_non_inclusion(p, i, kind):
    p_items, i_items = set(p.items), set(i.items)
    if not p_items:
        return True
    if kind is PARTIAL:
        return any(e not in i_items for e in p_items)
    return all(e not in i_items for e in p_items)


def naive_check(e, p, s, emb, incl):
    for i, negative in enumerate(p.negatives):
        if not negative.itemset:
            continue
        mode = negative.mode
        if mode is NegMode.SOFT_PARTIAL:
            emb_i, incl_i = SOFT, PARTIAL
        elif mode is NegMode.STRICT_PARTIAL:
            emb_i, incl_i = STRICT, PARTIAL
        elif mode is NegMode.TOTAL:
            emb_i, incl_i = STRICT, TOTAL
        else:
            emb_i, incl_i = emb, incl
        gaps = [s.itemsets[j - 1] for j in range(e[i] + 1, e[i + 1])]
        if emb_i is SOFT:
            ok = all(naive_non_inclusion(negative.itemset, g, incl_i) for g in gaps)
        else:
            union = set()
            for g in gaps:
                union |= set(g.items)
            ok = naive_non_inclusion(negative.itemset, Itemset.of(union), incl_i)
        if not ok:
            return False
    return True


def naive_contains(p, s, theta):
    embeddings = naive_embeddings(p.positives, s)
    good = [e for e in embeddings if naive_check(e, p, s, theta.embedding, theta.non_inclusion)]
    if theta.occurrence is Occurrence.WEAK:
        return bool(good)
    return bool(embeddings) and len(good) == len(embeddings)


# --- non-inclusion ----------------------------------------------------------


class TestNonInclusion:
    def test_partial_versus_total(self, abc_dict):
        cd = parse_pattern("<(c d)>", abc_dict).positives[0]
        cf = parse_pattern("<(c f)>", abc_dict).positives[0]
        assert non_inclusion(cd, cf, PARTIAL)
        assert not non_inclusion(cd, cf, TOTAL)

    def test_empty_convention(self):
        ab = Itemset.of([0, 1])
        assert non_inclusion(EMPTY_ITEMSET, ab, PARTIAL)
        assert non_inclusion(EMPTY_ITEMSET, ab, TOTAL)

    def test_singleton_contained(self):
        a = Itemset.of([0])
        assert not non_inclusion(a, a, PARTIAL)
        assert not non_inclusion(a, a, TOTAL)

    @given(st.sets(st.integers(0, 5)), st.sets(st.integers(0, 5)))
    def test_total_implies_partial(self, p_items, i_items):
        p, i = Itemset.of(p_items), Itemset.of(i_items)
        if non_inclusion(p, i, TOTAL):
            assert non_inclusion(p, i, PARTIAL)


# --- positive embeddings ----------------------------------------------------


class TestPositiveEmbeddings:
    def test_four_occurrences(self, abc_dict):
        s = parse_sequence("a b c a d e b d", abc_dict)
        p = parse_pattern("<a b d>", abc_dict)
        assert positive_embeddings(p, s) == [(1, 2, 5), (1, 2, 8), (1, 7, 8), (4, 7, 8)]

    def test_empty_sequence(self, abc_dict):
        assert positive_embeddings(parse_pattern("<a>", abc_dict), Sequence(())) == []

    def test_multi_item_step(self, abc_dict):
        s = parse_sequence("(b c) f a", abc_dict)
        p = parse_pattern("<b a>", abc_dict)
        assert positive_embeddings(p, s) == naive_embeddings(p.positives, s) == [(1, 3)]

    def test_rejects_negatives(self, abc_dict):
        p = parse_pattern("<a !b c>", abc_dict)
        with pytest.raises(ValueError):
            positive_embeddings(p, parse_sequence("a c", abc_dict))

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_combination_oracle(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        p = positive_part(random_pattern(rng))
        s = random_sequence(rng)
        assert positive_embeddings(p, s) == naive_embeddings(p.positives, s)


# --- gap union --------------------------------------------------------------


class TestGapUnion:
    def test_hand_derived(self, abc_dict):
        s = parse_sequence("a c b e d", abc_dict)
        assert gap_union(s, (1, 5), 1).tokens(abc_dict) == ("b", "c", "e")

    def test_adjacent_positions(self, abc_dict):
        s = parse_sequence("a b", abc_dict)
        assert gap_union(s, (1, 2), 1) == EMPTY_ITEMSET

    def test_table_sequence(self, abc_dict):
        s = parse_sequence("(b c) (c d e f) a", abc_dict)
        assert gap_union(s, (1, 3), 1).tokens(abc_dict) == ("c", "d", "e", "f")

    def test_slot_out_of_range(self, abc_dict):
        s = parse_sequence("a b c", abc_dict)
        with pytest.raises(ValueError):
            gap_union(s, (1, 3), 2)
        with pytest.raises(ValueError):
            gap_union(s, (1, 3), 0)
        with pytest.raises(ValueError):
            gap_union(s, (3, 1), 1)


# --- check_embedding --------------------------------------------------------


class TestCheckEmbedding:
    @pytest.fixture
    def pattern(self, abc_dict):
        return parse_pattern("<a !(b c) d>", abc_dict)

    def test_soft_sees_itemsets_individually(self, pattern, abc_dict):
        s = parse_sequence("a c b e d", abc_dict)
        assert check_embedding((1, 5), pattern, s, SOFT, PARTIAL)
        assert not check_embedding((1, 5), pattern, s, STRICT, PARTIAL)

    def test_clean_gap_passes_everything(self, pattern, abc_dict):
        s = parse_sequence("a e d", abc_dict)
        for emb in (SOFT, STRICT):
            for incl in (PARTIAL, TOTAL):
                assert check_embedding((1, 3), pattern, s, emb, incl)

    def test_single_item_gap(self, pattern, abc_dict):
        s = parse_sequence("a b e d", abc_dict)
        assert check_embedding((1, 4), pattern, s, STRICT, PARTIAL)
        assert not check_embedding((1, 4), pattern, s, SOFT, TOTAL)

    def test_not_an_embedding(self, pattern, abc_dict):
        s = parse_sequence("a c b e d", abc_dict)
        with pytest.raises(NotAPositiveEmbeddingError):
            check_embedding((1,), pattern, s, SOFT, PARTIAL)
        with pytest.raises(NotAPositiveEmbeddingError):
            check_embedding((5, 1), pattern, s, SOFT, PARTIAL)
        with pytest.raises(NotAPositiveEmbeddingError):
            check_embedding((1, 4), pattern, s, SOFT, PARTIAL)  # position 4 is e
        with pytest.raises(NotAPositiveEmbeddingError):
            check_embedding((1, 9), pattern, s, SOFT, PARTIAL)

    def test_slot_mode_pins_evaluation(self, abc_dict):
        s = parse_sequence("a b e d", abc_dict)
        pinned = parse_pattern("<a !|b c| d>", abc_dict)
        # Total mode fails here no matter how weak the requested pair is.
        assert not check_embedding((1, 4), pinned, s, SOFT, PARTIAL)
        free = parse_pattern("<a !(b c) d>", abc_dict)
        assert check_embedding((1, 4), free, s, SOFT, PARTIAL)
        # b and c sit in different gap itemsets: only soft partial holds.
        s = parse_sequence("a c b e d", abc_dict)
        strict = parse_pattern("<a !{b c} d>", abc_dict)
        assert not check_embedding((1, 5), strict, s, SOFT, PARTIAL)
        soft = NegPattern(
            strict.positives, (Negative(strict.negatives[0].itemset, NegMode.SOFT_PARTIAL),)
        )
        assert check_embedding((1, 5), soft, s, STRICT, TOTAL)


# --- lemma-style properties over random draws -------------------------------


@settings(max_examples=150)
@given(st.data())
def test_embedding_level_implications(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    p = random_pattern(rng)
    s = random_sequence(rng)
    for e in positive_embeddings(positive_part(p), s)[:6]:
        for incl in (PARTIAL, TOTAL):
            strict = check_embedding(e, p, s, STRICT, incl)
            soft = check_embedding(e, p, s, SOFT, incl)
            assert not strict or soft  # strict embedding is a soft embedding
            if incl is TOTAL:
                assert strict == soft


@settings(max_examples=150)
@given(st.data())
def test_singleton_negatives_collapse_soft_strict(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    p = random_pattern(rng, singleton_negatives=True)
    s = random_sequence(rng)
    for e in positive_embeddings(positive_part(p), s)[:6]:
        for incl in (PARTIAL, TOTAL):
            assert check_embedding(e, p, s, STRICT, incl) == check_embedding(
                e, p, s, SOFT, incl
            )
        for emb in (SOFT, STRICT):
            assert check_embedding(e, p, s, emb, PARTIAL) == check_embedding(
                e, p, s, emb, TOTAL
            )
    # So the four relations of one occurrence agree on the pair.
    bits = theta_bits(p, s)
    for occurrence in Occurrence:
        group = sum(1 << t.index for t in THETAS if t.occurrence is occurrence)
        assert bits & group in (0, group)


def long_pair(rng):
    """Up to 5 positives against up to 12 itemsets over 3 items, with random
    slot modes: enough placements for the matcher's tables to do real work."""
    p = random_pattern(rng, alphabet=3, max_positives=5, max_itemset_size=2, max_neg_size=2)
    s = random_sequence(rng, alphabet=3, max_len=12, max_itemset_size=2)
    return with_random_modes(rng, p), s


# The parts of the eight relations that a decision or a count can be asked
# for alone: one occurrence, one relation, or the relations of one slot test.
ASKED = (
    [sum(1 << t.index for t in THETAS if t.occurrence is occurrence) for occurrence in Occurrence]
    + [1 << t.index for t in THETAS]
    + [
        sum(1 << t.index for t in THETAS if _COMBO_TEST[t.combo_index] == test)
        for test in _TESTS
    ]
)


@settings(max_examples=200)
@given(st.integers(0, 10**6))
# At seed 923 the first placement passes a weak relation that a later one
# passes too, but not every one: a decision must not stop there.
@example(923)
def test_contains_agrees_with_quantifier_expansion(seed):
    rng = random.Random(seed)
    p = with_random_modes(rng, random_pattern(rng))
    s = random_sequence(rng)
    bits = theta_bits(p, s)
    for theta in THETAS:
        expected = naive_contains(p, s, theta)
        assert contains(p, s, theta).contained == expected
        assert is_contained(p, s, theta) == expected
        assert bool((bits >> theta.index) & 1) == expected
    # A decision asked for part of the relations settles exactly what it
    # wants. It finds the latest placement itself, or takes it found.
    first = _earliest(p.positive_masks, s.masks)
    if first is None:
        assert bits == 0
        return
    for last in (None, _latest(p.positive_masks, s.masks)):
        for wanted in ASKED:
            assert _decide(p, s.masks, _plan(wanted), first, last) == bits & wanted


@settings(max_examples=150)
@given(st.integers(0, 10**6))
def test_counts_agree_with_theta_bits_for_each_part_of_the_relations(seed):
    # A count asked for part of the relations equals, per relation, the
    # number of sequences whose theta_bits, masked to that part, hold it.
    rng = random.Random(seed)
    sequences = tuple(
        random_sequence(rng, alphabet=3, max_len=9, max_itemset_size=2)
        for _ in range(rng.randint(1, 6))
    )
    p = with_random_modes(rng, random_pattern(rng, alphabet=3, max_positives=4))
    bits = [theta_bits(p, s) for s in sequences]
    placed = _placed(p.positive_masks, sequences)
    for wanted in ASKED:
        expected = [sum((b & wanted) >> t & 1 for b in bits) for t in range(len(THETAS))]
        assert _supports(p, placed, wanted) == expected


@settings(max_examples=150)
@given(st.integers(0, 10**6))
def test_existence_search_agrees_with_the_witness_search(seed):
    # Three or more positives, so the backward pass builds levels before the
    # first positive's, where the existence form may stop.
    rng = random.Random(seed)
    p, s = long_pair(rng)
    while len(p.positives) < 3:
        p, s = long_pair(rng)
    first = _earliest(p.positive_masks, s.masks)
    if first is None:
        return
    last = _latest(p.positive_masks, s.masks)
    for test in _TESTS:
        tests = _slot_tests(p, test)
        witness = _first_passing(p.positive_masks, tests, s.masks, first, last)
        exists = _first_passing(p.positive_masks, tests, s.masks, first, last, False)
        assert exists is (None if witness is None else True)


@settings(max_examples=150)
@given(st.data())
def test_decisions_agree_with_quantifier_expansion_on_long_inputs(data):
    p, s = long_pair(random.Random(data.draw(st.integers(0, 10**6))))
    bits = theta_bits(p, s)
    for theta in THETAS:
        expected = naive_contains(p, s, theta)
        assert bool((bits >> theta.index) & 1) == expected
        assert is_contained(p, s, theta) == expected


@settings(max_examples=150)
@given(st.data())
def test_match_report_invariants(data):
    p, s = long_pair(random.Random(data.draw(st.integers(0, 10**6))))
    embeddings = positive_embeddings(positive_part(p), s)
    for theta in THETAS:
        report = contains(p, s, theta)
        assert report.total_positive_embeddings == len(embeddings)
        passing, failing = [], []
        for e in embeddings:
            verdict = naive_check(e, p, s, theta.embedding, theta.non_inclusion)
            assert check_embedding(e, p, s, theta.embedding, theta.non_inclusion) == verdict
            (passing if verdict else failing).append(e)
        # Both fields are always the lexicographically first, or None.
        assert report.witness == (passing[0] if passing else None)
        assert report.violator == (failing[0] if failing else None)
        if report.witness is not None:
            assert check_embedding(report.witness, p, s, theta.embedding, theta.non_inclusion)
        if report.violator is not None:
            assert not check_embedding(
                report.violator, p, s, theta.embedding, theta.non_inclusion
            )
        if theta.occurrence is Occurrence.WEAK:
            assert report.contained == bool(passing)
        else:
            assert report.contained == (bool(embeddings) and not failing)


# --- the strong relations as positive containment ---------------------------


def ordered_set_partitions(items):
    """Every sequence of disjoint non-empty blocks whose union is ``items``."""
    if not items:
        yield ()
        return
    first = frozenset(items[:1])
    for tail in ordered_set_partitions(items[1:]):
        for j in range(len(tail)):
            yield tail[:j] + (tail[j] | first,) + tail[j + 1:]
        for j in range(len(tail) + 1):
            yield tail[:j] + (first,) + tail[j:]


def test_ordered_set_partitions_count():
    counts = [len(list(ordered_set_partitions(range(n)))) for n in range(4)]
    assert counts == [1, 1, 3, 13]


# The slot test each strong relation applies, named by the mode that pins it.
_STRONG_TEST = {
    (SOFT, TOTAL): NegMode.TOTAL,
    (STRICT, TOTAL): NegMode.TOTAL,
    (SOFT, PARTIAL): NegMode.SOFT_PARTIAL,
    (STRICT, PARTIAL): NegMode.STRICT_PARTIAL,
}


def failing_chains(q, mode):
    """The minimal chains of itemsets that fail a slot on negative ``q``: a
    gap fails the slot iff it holds one of them as a subsequence."""
    if mode is NegMode.TOTAL:
        return [(Itemset.of([x]),) for x in q]
    if mode is NegMode.SOFT_PARTIAL:
        return [(q,)]
    return [tuple(Itemset.of(block) for block in chain)
            for chain in ordered_set_partitions(tuple(q))]


def embeds(positives, s):
    return bool(positive_embeddings(NegPattern(tuple(positives)), s))


@settings(max_examples=300)
@given(st.data())
def test_strong_is_positive_containment_without_a_failing_chain(data):
    # e-NSP's reduction: a sequence strongly contains p iff it contains the
    # positive part and, for no constrained slot, the positive part with a
    # failing chain inserted into that slot.
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    p = with_random_modes(rng, random_pattern(
        rng, alphabet=4, max_positives=4, max_itemset_size=2, max_neg_size=3,
    ))
    s = random_sequence(rng, alphabet=4, max_len=10, max_itemset_size=3)
    bits = theta_bits(p, s)
    positives = p.positives
    for theta in THETAS:
        if theta.occurrence is not Occurrence.STRONG:
            continue
        default = _STRONG_TEST[theta.embedding, theta.non_inclusion]
        expected = embeds(positives, s) and not any(
            embeds(positives[: i + 1] + chain + positives[i + 1:], s)
            for i, negative in enumerate(p.negatives)
            if negative.itemset
            for chain in failing_chains(negative.itemset, negative.mode or default)
        )
        assert bool(bits >> theta.index & 1) == expected


def strong_from_inserted_itemsets(p, s, theta):
    """(contained, violator) of ``p`` in ``s`` under strong ``theta``, from
    ``_earliest`` alone. Slot i on negative q fails iff the positive part
    with an itemset w inserted after positive i embeds: w = q under
    soft-partial, some one-item {x} of q under total, every one under
    strict-partial. The violator is the least, over the failing slots, of
    the earliest such embedding with w left out; under strict-partial a
    slot's is the latest over its items."""
    pos_masks = p.positive_masks
    if _earliest(pos_masks, s.masks) is None:
        return False, None
    default = _STRONG_TEST[theta.embedding, theta.non_inclusion]
    violators = []
    for i, negative in enumerate(p.negatives):
        q = negative.itemset
        if not q:
            continue
        mode = negative.mode or default
        inserts = [q.mask] if mode is NegMode.SOFT_PARTIAL else [1 << x for x in q]
        placed = []
        for w in inserts:
            e = _earliest(pos_masks[: i + 1] + (w,) + pos_masks[i + 1:], s.masks)
            if e is not None:
                placed.append(tuple(j + 1 for j in e[: i + 1] + e[i + 2:]))
        if mode is NegMode.STRICT_PARTIAL:
            if len(placed) == len(inserts):
                violators.append(max(placed))
        elif placed:
            violators.append(min(placed))
    return not violators, min(violators, default=None)


@settings(max_examples=200)
@given(st.data())
def test_strong_from_the_earliest_placement_with_an_inserted_itemset(data):
    # The per-item form of the reduction above, against both engines: the
    # strong bits of theta_bits, the strong columns of theta_masks, and the
    # violator that contains reports.
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    patterns = [
        with_random_modes(rng, random_pattern(
            rng, alphabet=4, max_positives=4, max_itemset_size=2, max_neg_size=3,
        ))
        for _ in range(rng.randint(1, 4))
    ]
    sequences = [
        random_sequence(rng, alphabet=4, max_len=10, max_itemset_size=3)
        for _ in range(rng.randint(1, 5))
    ]
    for _ in range(rng.randint(0, 2)):
        sequences.insert(rng.randint(0, len(sequences)), Sequence(()))
    rows = sequence_rows(*theta_masks(patterns, sequences))
    for p, row in zip(patterns, rows):
        for j, s in enumerate(sequences):
            bits = theta_bits(p, s)
            for theta in THETAS:
                if theta.occurrence is not Occurrence.STRONG:
                    continue
                contained, violator = strong_from_inserted_itemsets(p, s, theta)
                assert bool(bits >> theta.index & 1) == contained
                assert bool(row[theta.index] >> j & 1) == contained
                assert contains(p, s, theta).violator == violator


# --- contains on the worked examples ----------------------------------------


class TestContains:
    def test_strong_versus_weak(self, abc_dict):
        p = parse_pattern("<a b !c d>", abc_dict)
        s = parse_sequence("a b c a d e b d", abc_dict)
        for emb in (SOFT, STRICT):
            for incl in (PARTIAL, TOTAL):
                weak = contains(p, s, Theta(Occurrence.WEAK, emb, incl))
                strong = contains(p, s, Theta(Occurrence.STRONG, emb, incl))
                assert weak.contained and weak.witness == (1, 7, 8)
                assert not strong.contained and strong.violator == (1, 2, 5)
                assert weak.total_positive_embeddings == 4

    def test_weak_needs_a_later_embedding(self, abc_dict):
        # The first placement (1, 6) has b and c in its gap; the later (4, 6)
        # leaves only b there, which strict-partial accepts and total does not.
        p = parse_pattern("<a !(b c) d>", abc_dict)
        s = parse_sequence("a b c a b d", abc_dict)
        holds = {
            "strong-soft-partial", "weak-strict-partial", "weak-soft-partial",
        }
        bits = theta_bits(p, s)
        for theta in THETAS:
            assert bool(bits >> theta.index & 1) == (theta.spell() in holds)
        report = contains(p, s, Theta.parse("weak-strict-partial"))
        assert (report.witness, report.violator) == ((4, 6), (1, 6))

    def test_violator_fails_a_later_slot(self, abc_dict):
        # The first slot passes on every placement; only (1, 2, 5) puts c in
        # the gap of the second.
        p = parse_pattern("<a !e b !c d>", abc_dict)
        s = parse_sequence("a b d c d", abc_dict)
        for theta in THETAS:
            report = contains(p, s, theta)
            assert (report.witness, report.violator) == ((1, 2, 3), (1, 2, 5))
            assert report.contained == (theta.occurrence is Occurrence.WEAK)

    def test_violator_comes_from_the_last_failing_slot(self, abc_dict):
        # Both slots can fail: (1, 5, 7) puts c in the first gap, (1, 2, 7)
        # and (1, 5, 7) put d in the second. The first placement that fails
        # the first slot is (1, 5, 7), but (1, 2, 7) fails the second slot
        # and comes first.
        p = parse_pattern("<a !c b !d e>", abc_dict)
        s = parse_sequence("a b e c b d e", abc_dict)
        for theta in THETAS:
            report = contains(p, s, theta)
            assert (report.witness, report.violator) == ((1, 2, 3), (1, 2, 7))
            assert report.contained == (theta.occurrence is Occurrence.WEAK)

    def test_witness_moves_past_a_shared_index(self, abc_dict):
        # The first placement (1, 3) has c in its gap. The passing a at 3
        # shares its index with a b, so the witness puts b at 4.
        p = parse_pattern("<a !c b>", abc_dict)
        s = parse_sequence("a c (a b) b", abc_dict)
        for theta in THETAS:
            report = contains(p, s, theta)
            assert (report.witness, report.violator) == ((3, 4), (1, 3))
            assert report.contained == (theta.occurrence is Occurrence.WEAK)

    def test_violator_puts_the_failing_itemset_into_the_gap(self, abc_dict):
        # The first placement (1, 3) passes. The c at 3 fails the slot only
        # from inside the gap, so the violator puts the second c at 4.
        p = parse_pattern("<a !c c>", abc_dict)
        s = parse_sequence("a b c c", abc_dict)
        for theta in THETAS:
            report = contains(p, s, theta)
            assert (report.witness, report.violator) == ((1, 3), (1, 4))
            assert report.contained == (theta.occurrence is Occurrence.WEAK)

    def test_existence_search_stops_only_at_the_first_positive(self, abc_dict):
        # c at 3 passes the second slot, but no a passes the first: b sits
        # in every gap before c. Only the first positive's level can end the
        # existence search with an answer.
        p = parse_pattern("<a !b c !d e>", abc_dict)
        s = parse_sequence("a b c e", abc_dict)
        first = _earliest(p.positive_masks, s.masks)
        last = _latest(p.positive_masks, s.masks)
        for test in _TESTS:
            tests = _slot_tests(p, test)
            assert _first_passing(p.positive_masks, tests, s.masks, first, last, False) is None
        assert theta_bits(p, s) == 0
        db = SequenceDatabase((s,), abc_dict)
        assert all_theta_supports(p, db) == (0,) * len(THETAS)

    def test_blocked_sequence_fails_all_eight(self, abc_dict):
        p = parse_pattern("<a !(b c) d>", abc_dict)
        s = parse_sequence("a (b c) e d", abc_dict)
        assert theta_bits(p, s) == 0

    def test_theta_collapses_without_negatives(self, abc_dict):
        p = parse_pattern("<a b>", abc_dict)
        s = parse_sequence("c a e b", abc_dict)
        assert theta_bits(p, s) == 0b11111111

    def test_absent_positive_part(self, abc_dict):
        p = parse_pattern("<a !b c>", abc_dict)
        s = parse_sequence("c b a", abc_dict)
        for theta in THETAS:
            report = contains(p, s, theta)
            assert not report.contained
            assert report.total_positive_embeddings == 0
            assert report.witness is None and report.violator is None


# --- support ----------------------------------------------------------------


class TestSupport:
    def test_total_non_inclusion_on_comparison_db(self, table1_db):
        p = parse_pattern("<b !(c d) a>", table1_db.dictionary)
        for occ in Occurrence:
            for emb in EmbeddingKind:
                assert support(p, table1_db, Theta(occ, emb, TOTAL)) == 2

    def test_partial_non_inclusion_large_negative(self, table1_db):
        p = parse_pattern("<b !(c d e g) a>", table1_db.dictionary)
        assert support(p, table1_db, Theta(Occurrence.WEAK, SOFT, PARTIAL)) == 5

    def test_rule_premise_support(self, fig1_db):
        p = parse_pattern("<a !b c d>", fig1_db.dictionary)
        assert support(p, fig1_db, Theta.parse("weak-strict-total")) == 3

    def test_each_relation_searches_with_its_own_slot_test(self, abc_dict):
        # In the first sequence only the later placement (4, 6) passes
        # strict-partial. In the second, b alone in the gap passes both
        # partial tests and fails total. A count over both must run each
        # weak search under the slot test of its own relation.
        p = parse_pattern("<a !(b c) d>", abc_dict)
        db = SequenceDatabase(
            (parse_sequence("a b c a b d", abc_dict), parse_sequence("a b d", abc_dict)),
            abc_dict,
        )
        assert all_theta_supports(p, db) == (1, 2, 2, 2, 0, 0, 0, 0)
        for theta in THETAS:
            assert support(p, db, theta) == all_theta_supports(p, db)[theta.index]

    def test_empty_database(self):
        d = Dictionary("ab")
        db = SequenceDatabase((), d)
        p = parse_pattern("<a !b a>", d)
        for theta in THETAS:
            assert support(p, db, theta) == 0

    @settings(max_examples=60)
    @given(st.data())
    def test_support_consistency(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        d = Dictionary("abcde")
        db = SequenceDatabase(
            tuple(random_sequence(rng) for _ in range(5)), d
        )
        p = random_pattern(rng)
        counts = all_theta_supports(p, db)
        for theta in THETAS:
            assert counts[theta.index] == support(p, db, theta)
        for emb in EmbeddingKind:
            weak, strong = weak_strong_support(p, db, emb, TOTAL)
            assert weak == counts[Theta(Occurrence.WEAK, emb, TOTAL).index]
            assert strong == counts[Theta(Occurrence.STRONG, emb, TOTAL).index]


# --- the vertical engine against the per-sequence core -------------------------


def vertical_rows(patterns, sequences):
    rows = sequence_rows(*theta_masks(patterns, sequences))
    assert rows == pairwise_masks(patterns, sequences)
    return rows


@settings(max_examples=300)
@given(st.data())
def test_vertical_engine_agrees_with_theta_bits(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    alphabet = rng.randint(2, 4)
    patterns = [
        with_random_modes(rng, random_pattern(
            rng, alphabet=alphabet, max_positives=6, max_itemset_size=2,
            max_neg_size=min(3, alphabet),
        ))
        for _ in range(rng.randint(1, 6))
    ]
    sequences = [
        random_sequence(rng, alphabet=alphabet, max_len=14, max_itemset_size=min(3, alphabet))
        for _ in range(rng.randint(1, 6))
    ]
    for _ in range(rng.randint(0, 2)):
        sequences.insert(rng.randint(0, len(sequences)), Sequence(()))
    vertical_rows(patterns, sequences)


class TestVerticalEdgeCases:
    def test_empty_sequence_between_two_others(self, abc_dict):
        sequences = [
            parse_sequence("a b", abc_dict),
            Sequence(()),
            parse_sequence("a c b", abc_dict),
        ]
        p = parse_pattern("<a !c b>", abc_dict)
        strong = THETAS.index(Theta.parse("strong-soft-total"))
        assert vertical_rows([p], sequences)[0][strong] == 0b001

    def test_pattern_longer_than_every_sequence(self, abc_dict):
        sequences = [parse_sequence(text, abc_dict) for text in ("a a", "a", "a b a")]
        p = parse_pattern("<a a a a>", abc_dict)
        assert vertical_rows([p], sequences) == [[0] * 8]

    def test_one_positive(self, abc_dict):
        sequences = [parse_sequence(text, abc_dict) for text in ("b", "(a b) c", "c a")]
        p = parse_pattern("<a>", abc_dict)
        assert vertical_rows([p], sequences) == [[0b110] * 8]

    def test_negative_absent_from_every_sequence(self, abc_dict):
        sequences = [parse_sequence(text, abc_dict) for text in ("a b c", "c a b b")]
        p = parse_pattern("<a !(d e) b>", abc_dict)
        assert vertical_rows([p], sequences) == [[0b11] * 8]

    def test_all_slots_pinned(self, abc_dict):
        sequences = [
            parse_sequence(text, abc_dict)
            for text in ("a b c d", "a (b c) d", "a c d b d", "a d")
        ]
        p = parse_pattern("<a !{b c} d !|a b| d>", abc_dict)
        rows = vertical_rows([p], sequences)
        assert len(set(rows[0][0::2])) == len(set(rows[0][1::2])) == 1

    def test_positive_item_absent_from_the_space(self, abc_dict):
        sequences = [parse_sequence(text, abc_dict) for text in ("a b", "b a")]
        patterns = [parse_pattern(text, abc_dict) for text in ("<a !b f>", "<(a f)>", "<a b>")]
        assert vertical_rows(patterns, sequences) == [[0] * 8, [0] * 8, [0b01] * 8]

    def test_failing_gap_from_an_earlier_place(self, abc_dict):
        # The earliest a fails the slot before b, a later a passes it: weak
        # but not strong under every combo. The strong masks see the
        # earliest a's gap through <a c b>, with c inserted after the a.
        sequences = [parse_sequence("a c a b", abc_dict)]
        p = parse_pattern("<a !c b>", abc_dict)
        assert vertical_rows([p], sequences) == [[0, 1] * 4]

    def test_failure_carried_across_an_unconstrained_slot(self, abc_dict):
        # In the first sequence the a before c fails the first slot, and the
        # positives with c inserted there, <a c b d>, must embed past the
        # free slot to d: weak but not strong. In the second no placement
        # fails.
        sequences = [parse_sequence(text, abc_dict) for text in ("a c a b d", "a b c d")]
        p = parse_pattern("<a !c b d>", abc_dict)
        assert vertical_rows([p], sequences) == [[0b10, 0b11] * 4]

    def test_layout_cell_numbering(self):
        # Cell 0 is the leading separator. Each itemset takes the next cell
        # and each sequence ends with a separator cell, an empty one too.
        # Cell 5 holds none of the layout's items (0 and 1), so no row has it.
        sequences = [
            Sequence((Itemset.of([0]), Itemset.of([1]))),
            Sequence(()),
            Sequence((Itemset.of([2]), Itemset.of([0, 3]))),
        ]
        layout = _Layout(sequences, Itemset.of([0, 1]).mask)
        assert layout.ends == [3, 4, 7]
        assert layout.sep == 0b10011001
        assert layout.free == 0b01100110
        assert layout.cells == {0: 0b01000010, 1: 0b00000100}

    def test_pinned_partial_modes(self, abc_dict):
        # b and c sit in different gap itemsets: a slot pinned to
        # strict-partial fails under every relation, soft-partial passes.
        sequences = [parse_sequence("a c b e d", abc_dict)]
        strict = parse_pattern("<a !{b c} d>", abc_dict)
        soft = NegPattern(
            strict.positives, (Negative(strict.negatives[0].itemset, NegMode.SOFT_PARTIAL),)
        )
        assert vertical_rows([strict, soft], sequences) == [[0] * 8, [1] * 8]
