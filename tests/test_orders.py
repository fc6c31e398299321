import random
import sys
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from negseq import (
    Counterexample,
    Dictionary,
    Dominance,
    EmptySpaceError,
    Itemset,
    NegPattern,
    Negative,
    NonInclusion,
    Occurrence,
    OrderKind,
    Sequence,
    SequenceDatabase,
    THETAS,
    Theta,
    Verdict,
    embed_incl,
    equivalence_classes,
    is_contained,
    known_dominance,
    neg_ext,
    pattern_order,
    prefix_incl,
    support,
)
from negseq.mining import PatternBounds, enumerate_patterns
from negseq.orders import (
    ContainmentGrid,
    _sample_mask,
    default_space,
    enumerate_sequences,
    random_pattern,
    random_sequence,
    verify_anti_monotonicity,
    verify_dominance,
    verify_equivalence,
    verify_invariants,
)
from negseq.textio import parse_pattern, parse_sequence
from conftest import pairwise_masks, sequence_rows

PARTIAL, TOTAL = NonInclusion.PARTIAL, NonInclusion.TOTAL

# The known dominance table written out cell by cell, independently of the two
# chains known_dominance() derives it from. Row dominates column; rows and
# columns follow the canonical THETAS order.
KNOWN_ROWS = (
    ". > > > - - - -",
    "- . - > - - - -",
    "- - . > - - - -",
    "- - - . - - - -",
    "> > > > . > > >",
    "- > - > - . - >",
    "> > > > > > . >",
    "- > - > - > - .",
)


def naive_dominance_scan(theta, theta2, patterns, sequences):
    """Pair-by-pair oracle for ContainmentGrid.dominance."""
    checked = 0
    for p in patterns:
        for s in sequences:
            checked += 1
            if is_contained(p, s, theta) and not is_contained(p, s, theta2):
                return Verdict(False, Counterexample(p, None, s), checked)
    return Verdict(True, None, checked)


def naive_anti_monotonicity_scan(theta, order, patterns, sequences, order_nonincl=TOTAL):
    """Triple-by-triple oracle for ContainmentGrid.anti_monotonicity."""
    checked = 0
    for p in patterns:
        for p2 in patterns:
            if not pattern_order(order, p, p2, order_nonincl):
                continue
            for s in sequences:
                checked += 1
                if is_contained(p2, s, theta) and not is_contained(p, s, theta):
                    return Verdict(False, Counterexample(p, p2, s), checked)
    return Verdict(True, None, checked)


def greedy_equivalence_classes(grid, thetas):
    """Mutual-dominance oracle for ContainmentGrid.equivalence_partition: each
    relation joins the first class whose representative it dominates both
    ways."""
    classes = []
    for theta in sorted(thetas, key=lambda t: t.index):
        for cls in classes:
            rep = cls[0]
            if grid.dominance(theta, rep).holds and grid.dominance(rep, theta).holds:
                cls.append(theta)
                break
        else:
            classes.append([theta])
    return tuple(tuple(cls) for cls in classes)


@pytest.fixture
def d():
    return Dictionary("abcdefg")


class TestEmbedIncl:
    def test_insertion_in_the_middle(self, d):
        p = parse_pattern("<b !c a>", d)
        p2 = parse_pattern("<b !c d a>", d)
        assert embed_incl(p, p2)

    def test_irreflexive(self, d):
        p = parse_pattern("<b !c a>", d)
        assert not embed_incl(p, p)

    def test_itemset_growth(self, d):
        assert embed_incl(parse_pattern("<a>", d), parse_pattern("<(a b)>", d))

    def test_negative_spread_over_gap_union(self, d):
        # {b, c} is covered by the union of the two slots around the inserted step.
        p = parse_pattern("<a !(b c) d>", d)
        p2 = parse_pattern("<a !b e !c d>", d)
        assert embed_incl(p, p2)
        assert not prefix_incl(p, p2)

    def test_partial_variant_reverses_negatives(self, d):
        p = parse_pattern("<b !c a>", d)
        p2 = parse_pattern("<b !c d a>", d)
        assert embed_incl(p, p2, PARTIAL)
        bigger = parse_pattern("<b !(c e) a>", d)
        assert embed_incl(bigger, p2, PARTIAL)
        assert not embed_incl(bigger, p2, TOTAL)

    def test_deep_patterns_need_no_recursion(self):
        a = Itemset.of([0])
        p, p2 = NegPattern((a,) * 1500), NegPattern((a,) * 1501)
        assert prefix_incl(p, p2)
        assert embed_incl(p, p2)

    def test_failed_placements_are_not_searched_again(self):
        # Leftmost-first search meets C(60, 30) placements of the a's before it
        # can tell that b fits nowhere.
        a, b = Itemset.of([0]), Itemset.of([1])
        assert not embed_incl(NegPattern((a,) * 30 + (b,)), NegPattern((a,) * 60))


class TestPrefixIncl:
    def test_append_step(self, d):
        assert prefix_incl(parse_pattern("<a !b c>", d), parse_pattern("<a !b c d>", d))

    def test_mid_insertion_is_not_a_prefix_extension(self, d):
        assert not prefix_incl(parse_pattern("<b !c a>", d), parse_pattern("<b !c d a>", d))

    def test_last_itemset_growth(self, d):
        assert prefix_incl(parse_pattern("<a !b c>", d), parse_pattern("<a !b (c d)>", d))

    def test_equal_length_needs_a_difference_at_the_end(self, d):
        assert not prefix_incl(parse_pattern("<a c>", d), parse_pattern("<(a b) c>", d))
        assert prefix_incl(parse_pattern("<a c>", d), parse_pattern("<a !b c>", d))

    def test_partial_variant(self, d):
        assert prefix_incl(
            parse_pattern("<a !(b d) c>", d), parse_pattern("<a !b c>", d), PARTIAL
        )
        assert not prefix_incl(
            parse_pattern("<a !b c>", d), parse_pattern("<a !(b d) c>", d), PARTIAL
        )


class TestNegExt:
    def test_negative_growth(self, d):
        assert neg_ext(parse_pattern("<a !b c>", d), parse_pattern("<a !(b d) c>", d))

    def test_new_step_not_comparable(self, d):
        assert not neg_ext(parse_pattern("<a !b c>", d), parse_pattern("<a !b c d>", d))

    def test_irreflexive(self, d):
        p = parse_pattern("<a !b c>", d)
        assert not neg_ext(p, p)

    def test_pattern_order_dispatch(self, d):
        p, p2 = parse_pattern("<a !b c>", d), parse_pattern("<a !(b d) c>", d)
        assert pattern_order(OrderKind.NEG_EXT, p, p2)
        assert pattern_order(OrderKind.PREFIX_INCL, p, p2)
        assert pattern_order(OrderKind.EMBED_INCL, p, p2)


class TestEnumerateSequences:
    @pytest.mark.parametrize("alphabet, max_len, size", list(product(
        range(1, 4), range(1, 4), range(1, 4)
    )))
    def test_prefix_order_over_every_sequence(self, alphabet, max_len, size):
        # Itemsets rank by (size, items); prefix order is the order of the
        # sequences' rank tuples, where a prefix sorts before its extensions.
        itemsets = sorted(
            (Itemset(mask) for mask in range(1, 1 << alphabet)
             if len(Itemset(mask)) <= size),
            key=lambda it: (len(it), it.items),
        )
        rank = {it: r for r, it in enumerate(itemsets)}
        expected = sorted(
            (steps for n in range(1, max_len + 1) for steps in product(itemsets, repeat=n)),
            key=lambda steps: [rank[it] for it in steps],
        )
        got = enumerate_sequences(tuple(range(alphabet)), max_len, size)
        assert [s.itemsets for s in got] == expected

    def test_lengths_past_the_recursion_limit(self):
        depth = sys.getrecursionlimit() + 100
        a = Itemset.of([0])
        sequences = list(enumerate_sequences((0,), depth, 1))
        assert [len(s) for s in sequences] == list(range(1, depth + 1))
        assert sequences[-1].itemsets == (a,) * depth


def _enumerated(alphabet=2, max_pos=2, itemset=1, neg=1):
    return list(enumerate_patterns(PatternBounds(max_pos, itemset, neg, tuple(range(alphabet)))))


class TestStrictPartialOrderLaws:
    @pytest.mark.parametrize("order", list(OrderKind))
    def test_irreflexive_and_antisymmetric(self, order):
        patterns = _enumerated()
        for p in patterns:
            assert not pattern_order(order, p, p)
        for p in patterns:
            for q in patterns:
                if pattern_order(order, p, q):
                    assert not pattern_order(order, q, p)

    @pytest.mark.parametrize("order", list(OrderKind))
    def test_transitive(self, order):
        patterns = _enumerated()
        related = {
            (i, j)
            for i, p in enumerate(patterns)
            for j, q in enumerate(patterns)
            if pattern_order(order, p, q)
        }
        for i, j in related:
            for k in range(len(patterns)):
                if (j, k) in related:
                    assert (i, k) in related

    def test_order_chain(self):
        rng = random.Random(7)
        patterns = _enumerated(alphabet=3, max_pos=2, itemset=2, neg=2)
        for _ in range(4000):
            p = rng.choice(patterns)
            q = rng.choice(patterns)
            if neg_ext(p, q):
                assert prefix_incl(p, q)
            if prefix_incl(p, q):
                assert embed_incl(p, q)


class TestKnownDominance:
    def test_matches_the_literal_table(self):
        table = known_dominance()
        for left in THETAS:
            for right in THETAS:
                cell = KNOWN_ROWS[left.index].split()[right.index]
                assert table.entry(left, right) is Dominance(cell), (left, right)

    def test_shape(self):
        table = known_dominance()
        counts = {Dominance.SELF: 0, Dominance.DOMINATES: 0, Dominance.NOT_DOMINATES: 0}
        for left in THETAS:
            for right in THETAS:
                entry = table.entry(left, right)
                counts[entry] += 1
                if left is right:
                    assert entry is Dominance.SELF
        assert counts == {
            Dominance.SELF: 8,
            Dominance.DOMINATES: 25,
            Dominance.NOT_DOMINATES: 31,
        }

    def test_spot_entries(self):
        table = known_dominance()
        top = Theta.parse("strong-soft-total")
        bottom = Theta.parse("weak-soft-partial")
        for other in THETAS:
            if other != top:
                assert table.entry(top, other) is Dominance.DOMINATES
            if other != bottom:
                assert table.entry(bottom, other) is Dominance.NOT_DOMINATES
        assert (
            table.entry(Theta.parse("strong-strict-partial"), bottom)
            is Dominance.DOMINATES
        )

    def test_transitively_closed(self):
        table = known_dominance()
        for a in THETAS:
            for b in THETAS:
                for c in THETAS:
                    if table.dominates(a, b) and table.dominates(b, c):
                        assert table.dominates(a, c)


class TestDominanceScan:
    def test_reflexive_always_holds(self, d):
        patterns = [parse_pattern("<a !b c>", d)]
        sequences = [parse_sequence("a c", d)]
        theta = Theta.parse("weak-soft-partial")
        verdict = ContainmentGrid(patterns, sequences).dominance(theta, theta)
        assert verdict.holds and verdict.checked_pairs == 1

    def test_partial_does_not_dominate_total(self, d):
        patterns = [parse_pattern("<a !(b c) d>", d)]
        sequences = [parse_sequence("a b d", d)]
        for emb in ("soft", "strict"):
            verdict = ContainmentGrid(patterns, sequences).dominance(
                Theta.parse(f"weak-{emb}-partial"), Theta.parse(f"weak-{emb}-total")
            )
            assert not verdict.holds
            ce = verdict.counterexample
            assert ce.pattern == patterns[0] and ce.sequence == sequences[0]
            assert is_contained(ce.pattern, ce.sequence, Theta.parse(f"weak-{emb}-partial"))
            assert not is_contained(ce.pattern, ce.sequence, Theta.parse(f"weak-{emb}-total"))

    def test_theorem_entry_cannot_be_contradicted(self, d):
        patterns = [parse_pattern("<a !(b c) d>", d), parse_pattern("<a !b c>", d)]
        sequences = [parse_sequence("a b d", d), parse_sequence("a c b c", d)]
        verdict = ContainmentGrid(patterns, sequences).dominance(
            Theta.parse("strong-soft-total"), Theta.parse("weak-soft-partial")
        )
        assert verdict.holds
        assert verdict.checked_pairs == 4

    def test_empty_space_rejected(self, d):
        with pytest.raises(EmptySpaceError):
            ContainmentGrid([], [parse_sequence("a", d)])
        with pytest.raises(EmptySpaceError):
            ContainmentGrid([parse_pattern("<a>", d)], [])

    @pytest.mark.parametrize("singleton", [False, True])
    def test_grid_masks_equal_pairwise_theta_bits(self, singleton):
        space = default_space(singleton_negatives=singleton)
        grid = ContainmentGrid(space.patterns, space.sequences)
        rows = sequence_rows(grid._contained, grid._sequence_of)
        assert rows == pairwise_masks(space.patterns, space.sequences)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    @example(11)
    def test_grid_agrees_with_naive_scan(self, seed):
        # Empty sequences, first and last among them, test that each
        # counterexample names the sequence where the grid found it.
        rng = random.Random(seed)
        patterns = [random_pattern(rng, alphabet=3) for _ in range(12)]
        sequences = [random_sequence(rng, alphabet=3, max_len=4) for _ in range(15)]
        for _ in range(rng.randint(0, 3)):
            sequences.insert(rng.randint(0, len(sequences)), Sequence(()))
        grid = ContainmentGrid(patterns, sequences)
        for left in THETAS:
            for right in THETAS:
                slow = naive_dominance_scan(left, right, patterns, sequences)
                assert grid.dominance(left, right) == slow
        order = rng.choice(list(OrderKind))
        for theta in THETAS:
            slow = naive_anti_monotonicity_scan(theta, order, patterns, sequences)
            assert grid.anti_monotonicity(theta, order) == slow


class TestEquivalenceClasses:
    def test_no_negatives_collapses_to_one_class(self, d):
        patterns = [parse_pattern("<a b>", d), parse_pattern("<(a b) c>", d)]
        sequences = [parse_sequence("a b c", d), parse_sequence("b a", d)]
        classes = equivalence_classes(THETAS, patterns, sequences)
        assert len(classes) == 1

    def test_general_space_has_six_classes(self):
        space = default_space()
        classes = equivalence_classes(THETAS, space.patterns, space.sequences)
        assert len(classes) == 6
        spelled = [tuple(t.spell() for t in cls) for cls in classes]
        assert ("strong-strict-total", "strong-soft-total") in spelled
        assert ("weak-strict-total", "weak-soft-total") in spelled

    def test_singleton_space_merges_non_inclusion_kinds(self):
        # With one-item negatives, partial and total non-inclusion coincide,
        # so only the occurrence axis can separate relations: two classes.
        space = default_space(singleton_negatives=True)
        classes = equivalence_classes(THETAS, space.patterns, space.sequences)
        assert len(classes) == 2
        by_occurrence = {
            frozenset(t.occurrence for t in cls) for cls in classes
        }
        assert by_occurrence == {
            frozenset({Occurrence.STRONG}),
            frozenset({Occurrence.WEAK}),
        }

    @pytest.mark.parametrize("singleton", [False, True])
    def test_default_spaces_agree_with_greedy_oracle(self, singleton):
        space = default_space(singleton_negatives=singleton)
        grid = ContainmentGrid(space.patterns, space.sequences)
        assert grid.equivalence_partition() == greedy_equivalence_classes(grid, THETAS)

    def test_random_spaces_agree_with_greedy_oracle(self):
        rng = random.Random(31)
        for _ in range(50):
            patterns = [random_pattern(rng, alphabet=3) for _ in range(rng.randint(1, 8))]
            sequences = [
                random_sequence(rng, alphabet=3, max_len=4) for _ in range(rng.randint(1, 8))
            ]
            thetas = rng.sample(THETAS, rng.randint(1, len(THETAS)))
            grid = ContainmentGrid(patterns, sequences)
            assert equivalence_classes(thetas, patterns, sequences) == (
                greedy_equivalence_classes(grid, thetas)
            )


class TestAntiMonotonicityScan:
    def test_general_inclusion_fails_for_every_theta(self, d):
        p = parse_pattern("<b !c a>", d)
        p2 = parse_pattern("<b !c d a>", d)
        s = parse_sequence("b e d c a", d)
        for theta in THETAS:
            assert embed_incl(p, p2)
            assert is_contained(p2, s, theta)
            assert not is_contained(p, s, theta)
            verdict = ContainmentGrid([p, p2], [s]).anti_monotonicity(
                theta, OrderKind.EMBED_INCL
            )
            assert not verdict.holds
            assert verdict.counterexample.pattern == p
            assert verdict.counterexample.pattern2 == p2

    def test_prefix_inclusion_keeps_weak_total(self):
        space = default_space()
        grid = ContainmentGrid(space.patterns[:60], space.sequences[:60])
        for spelling in ("weak-soft-total", "weak-strict-total"):
            verdict = grid.anti_monotonicity(
                Theta.parse(spelling), OrderKind.PREFIX_INCL
            )
            assert verdict.holds

    def test_prefix_inclusion_breaks_strong_total(self, d):
        p = parse_pattern("<a !b c>", d)
        p2 = parse_pattern("<a !b c d>", d)
        s = parse_sequence("a c d a b c", d)
        for spelling in ("strong-soft-total", "strong-strict-total"):
            theta = Theta.parse(spelling)
            assert prefix_incl(p, p2)
            assert is_contained(p2, s, theta)
            assert not is_contained(p, s, theta)
            verdict = ContainmentGrid([p, p2], [s]).anti_monotonicity(
                theta, OrderKind.PREFIX_INCL
            )
            assert not verdict.holds

    def test_prefix_inclusion_breaks_strong_total_itemset_variant(self, d):
        p = parse_pattern("<a !b c>", d)
        p2 = parse_pattern("<a !b (c d)>", d)
        s = parse_sequence("a (c d) a b c", d)
        for spelling in ("strong-soft-total", "strong-strict-total"):
            theta = Theta.parse(spelling)
            assert prefix_incl(p, p2)
            assert is_contained(p2, s, theta)
            assert not is_contained(p, s, theta)

    def test_negative_extension_keeps_all_total_relations(self):
        space = default_space()
        grid = ContainmentGrid(space.patterns[:80], space.sequences[:80])
        for theta in THETAS:
            if theta.non_inclusion is TOTAL:
                assert grid.anti_monotonicity(theta, OrderKind.NEG_EXT).holds

    def test_grid_agrees_with_naive_scan(self):
        rng = random.Random(23)
        patterns = [random_pattern(rng, alphabet=3, max_positives=2) for _ in range(10)]
        sequences = [random_sequence(rng, alphabet=3, max_len=4) for _ in range(8)]
        grid = ContainmentGrid(patterns, sequences)
        for order in OrderKind:
            for theta in THETAS:
                fast = grid.anti_monotonicity(theta, order)
                slow = naive_anti_monotonicity_scan(theta, order, patterns, sequences)
                assert fast.holds == slow.holds
                assert fast.checked_pairs == slow.checked_pairs
                if not fast.holds:
                    assert fast.counterexample == slow.counterexample

    @pytest.mark.parametrize("first", [TOTAL, PARTIAL])
    def test_order_variants_agree_with_naive_scan_in_either_call_order(self, first):
        # One grid answers both variants of an order; whichever is asked first
        # must not leak into the other.
        rng = random.Random(29)
        patterns = [random_pattern(rng, alphabet=3, max_positives=2) for _ in range(12)]
        sequences = [random_sequence(rng, alphabet=3, max_len=4) for _ in range(8)]
        grid = ContainmentGrid(patterns, sequences)
        theta = Theta.parse("weak-soft-total")
        order = OrderKind.EMBED_INCL
        verdicts = {}
        for nonincl in (first, TOTAL if first is PARTIAL else PARTIAL):
            verdicts[nonincl] = grid.anti_monotonicity(theta, order, nonincl)
            slow = naive_anti_monotonicity_scan(theta, order, patterns, sequences, nonincl)
            assert verdicts[nonincl] == slow
        assert verdicts[TOTAL] != verdicts[PARTIAL]


def all_pairs_comparable(patterns, order, nonincl):
    """All-pairs oracle for ContainmentGrid.comparable_pairs."""
    return tuple(
        (i, i2)
        for i, p in enumerate(patterns)
        for i2, p2 in enumerate(patterns)
        if pattern_order(order, p, p2, nonincl)
    )


class TestComparablePairs:
    @pytest.mark.parametrize("nonincl", [TOTAL, PARTIAL])
    @pytest.mark.parametrize("order", list(OrderKind))
    def test_default_space_equals_all_pairs_filter(self, order, nonincl):
        space = default_space()
        grid = ContainmentGrid(space.patterns, space.sequences[:1])
        expected = all_pairs_comparable(space.patterns, order, nonincl)
        assert grid.comparable_pairs(order, nonincl) == expected

    def test_random_spaces_equal_all_pairs_filter(self, d):
        rng = random.Random(37)
        sequences = [parse_sequence("a b c", d)]
        for _ in range(40):
            count = rng.randint(1, 30)
            patterns = [random_pattern(rng, alphabet=3) for _ in range(count)]
            grid = ContainmentGrid(patterns, sequences)
            for order in OrderKind:
                for nonincl in (TOTAL, PARTIAL):
                    expected = all_pairs_comparable(patterns, order, nonincl)
                    assert grid.comparable_pairs(order, nonincl) == expected


def stdlib_random_pattern(
    rng, alphabet=5, max_positives=3, max_itemset_size=2, max_neg_size=2,
    singleton_negatives=False,
):
    """Oracle for random_pattern: its draws through rng.randint and rng.sample."""
    k = rng.randint(1, max_positives)
    positives = tuple(
        Itemset.of(rng.sample(range(alphabet), rng.randint(1, max_itemset_size)))
        for _ in range(k)
    )
    cap = 1 if singleton_negatives else max_neg_size
    negatives = tuple(
        Negative(Itemset.of(rng.sample(range(alphabet), rng.randint(0, cap))))
        for _ in range(k - 1)
    )
    return NegPattern(positives, negatives)


def stdlib_random_sequence(rng, alphabet=5, max_len=6, max_itemset_size=3):
    """Oracle for random_sequence: its draws through rng.randint and rng.sample."""
    return Sequence(
        tuple(
            Itemset.of(rng.sample(range(alphabet), rng.randint(1, max_itemset_size)))
            for _ in range(rng.randint(0, max_len))
        )
    )


class TestDrawReplay:
    """The lemma draws replay the standard library's ``randint`` and ``sample``
    on ``getrandbits``. These tests catch a Python release that changes how
    either draws."""

    @staticmethod
    def assert_same_draw(fast, slow, draw, oracle, *args):
        try:
            expected = oracle(slow, *args)
        except ValueError:
            with pytest.raises(ValueError):
                draw(fast, *args)
        else:
            assert draw(fast, *args) == expected
        assert fast.getrandbits(64) == slow.getrandbits(64)

    def test_patterns_and_sequences_equal_the_stdlib_draws(self):
        # Alphabets above 21 reach sample's rejection path, sizes above the
        # alphabet its ValueError; every other bound takes each value up to 6.
        for seed in range(360):
            alphabet, size = 1 + seed % 30, 1 + seed // 30 % 6
            singleton = seed >= 180
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(4):
                self.assert_same_draw(
                    fast, slow, random_pattern, stdlib_random_pattern,
                    alphabet, 1 + seed % 6, size, seed % 7, singleton,
                )
                self.assert_same_draw(
                    fast, slow, random_sequence, stdlib_random_sequence,
                    alphabet, seed % 7, size,
                )

    def test_sample_mask_equals_the_stdlib_sample(self):
        for n in range(31):
            for k in range(min(n, 8) + 2):
                fast, slow = random.Random(n * 100 + k), random.Random(n * 100 + k)
                self.assert_same_draw(
                    fast, slow, _sample_mask,
                    lambda rng, n, k: Itemset.of(rng.sample(range(n), k)).mask, n, k,
                )


class TestSupportDominance:
    def test_dominated_relation_never_has_larger_support(self):
        rng = random.Random(5)
        table = known_dominance()
        d = Dictionary("abcde")
        for _ in range(30):
            db = SequenceDatabase(
                tuple(random_sequence(rng) for _ in range(6)), d
            )
            p = random_pattern(rng)
            counts = [support(p, db, t) for t in THETAS]
            for left in THETAS:
                for right in THETAS:
                    if table.entry(left, right) is Dominance.DOMINATES:
                        assert counts[left.index] <= counts[right.index]


class TestSuites:
    def test_dominance_suite_is_clean(self):
        report = verify_dominance()
        assert report.ok
        assert len(report.checks) == 56

    def test_anti_monotonicity_suite_is_clean(self):
        report = verify_anti_monotonicity()
        assert report.ok
        assert len(report.checks) == 24

    def test_equivalence_suite_flags_singleton_collapse(self):
        report = verify_equivalence()
        assert report.ok_general
        assert not report.ok_singleton
        assert len(report.singleton) == 2

    def test_invariant_harness(self):
        checks = verify_invariants(draws=1500, seed=3)
        assert all(check.ok for check in checks)
        assert len(checks) == 9
