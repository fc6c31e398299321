import random
from math import comb

import pytest

from negseq import (
    Dictionary,
    Itemset,
    NegPattern,
    Negative,
    NonInclusion,
    SequenceDatabase,
    THETAS,
    Theta,
    support,
    validate_pattern,
)
from negseq.mining import (
    PatternBounds,
    enumerate_patterns,
    mine_bruteforce,
    mine_pruned,
)
from negseq.orders import prefix_incl, neg_ext, random_pattern, random_sequence
from negseq.textio import parse_database, parse_pattern, render_pattern

TOTAL_THETAS = tuple(t for t in THETAS if t.non_inclusion is NonInclusion.TOTAL)
WEAK_STRICT_TOTAL = Theta.parse("weak-strict-total")


def _space_size(alphabet, max_positives, max_itemset_size, max_neg_size):
    """The number of patterns that enumerate_patterns yields."""
    itemsets = sum(comb(alphabet, j) for j in range(1, max_itemset_size + 1))
    fillings = sum(comb(alphabet, j) for j in range(max_neg_size + 1))
    return sum(itemsets**k * fillings ** (k - 1) for k in range(1, max_positives + 1))


class TestPatternBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            PatternBounds(0, 1, 1, (0,))
        with pytest.raises(ValueError):
            PatternBounds(1, 1, 1, ())
        with pytest.raises(ValueError):
            PatternBounds(1, 1, 1, (-1,))

    def test_alphabet_canonicalized(self):
        assert PatternBounds(1, 1, 1, (2, 0, 2)).alphabet == (0, 2)

    def test_for_dictionary(self):
        d = Dictionary("abc")
        assert PatternBounds.for_dictionary(d).alphabet == (0, 1, 2)


class TestEnumeration:
    def test_single_item_space(self):
        pats = list(enumerate_patterns(PatternBounds(1, 1, 1, (0,))))
        assert pats == [NegPattern((Itemset.of([0]),))]

    def test_fourteen_patterns(self):
        d = Dictionary("ab")
        pats = list(enumerate_patterns(PatternBounds(2, 1, 1, (0, 1))))
        assert len(pats) == 14
        texts = [render_pattern(p, d) for p in pats]
        singletons = [t for t in texts if t in ("<a>", "<b>")]
        two_step = [p for p in pats if len(p.positives) == 2 and not p.negatives[0].itemset]
        with_negative = [p for p in pats if any(n.itemset for n in p.negatives)]
        assert len(singletons) == 2
        assert len(two_step) == 4
        assert len(with_negative) == 8

    def test_count_matches_closed_form(self):
        # 6 itemsets over three items with size <= 2; negatives allow 7 fillings.
        pats = list(enumerate_patterns(PatternBounds(2, 2, 2, (0, 1, 2))))
        assert len(pats) == 6 + 6 * 6 * 7

    def test_exactly_once_and_valid(self):
        pats = list(enumerate_patterns(PatternBounds(3, 2, 2, (0, 1))))
        assert len(pats) == len(set(pats))
        for p in pats:
            assert validate_pattern(p) == []
            assert len(p.positives) <= 3
            assert all(len(x) <= 2 for x in p.positives)
            assert all(len(n.itemset) <= 2 for n in p.negatives)

    def test_deterministic_order(self):
        bounds = PatternBounds(2, 2, 1, (0, 1))
        assert list(enumerate_patterns(bounds)) == list(enumerate_patterns(bounds))


class TestBruteforce:
    def test_rule_pattern_is_found(self, fig1_db):
        bounds = PatternBounds(3, 1, 1, tuple(range(len(fig1_db.dictionary))))
        result = mine_bruteforce(fig1_db, WEAK_STRICT_TOTAL, 3, bounds)
        target = parse_pattern("<a !b c d>", fig1_db.dictionary)
        found = dict(result.frequent)
        assert found[target] == 3
        assert all(count >= 3 for count in found.values())

    def test_minsup_above_database_size(self, fig1_db):
        bounds = PatternBounds(2, 1, 1, (0, 1))
        result = mine_bruteforce(fig1_db, WEAK_STRICT_TOTAL, 7, bounds)
        assert result.frequent == ()

    def test_partial_relation_large_negative(self, table1_db):
        d = table1_db.dictionary
        p4 = parse_pattern("<b !(c d e g) a>", d)
        bounds = PatternBounds(2, 1, 4, tuple(range(len(d))))
        result = mine_bruteforce(
            table1_db, Theta.parse("weak-soft-partial"), 5, bounds
        )
        assert (p4, 5) in result.frequent

    def test_minsup_validated(self, fig1_db):
        with pytest.raises(ValueError):
            mine_bruteforce(fig1_db, WEAK_STRICT_TOTAL, 0, PatternBounds(1, 1, 1, (0,)))

    def test_result_invariants(self, fig1_db):
        bounds = PatternBounds(2, 1, 2, (0, 1, 2))
        result = mine_bruteforce(fig1_db, WEAK_STRICT_TOTAL, 2, bounds)
        patterns = [p for p, _ in result.frequent]
        assert len(patterns) == len(set(patterns))
        assert all(validate_pattern(p) == [] for p in patterns)
        assert result.stats.candidates == len(list(enumerate_patterns(bounds)))
        assert result.stats.pruned_subtrees == 0


class TestPruned:
    def test_infrequent_prefix_cuts_subtree(self):
        db = parse_database("a a\na a\nb a\n")
        bounds = PatternBounds(2, 1, 1, (0, 1))
        result = mine_pruned(db, WEAK_STRICT_TOTAL, 2, bounds)
        oracle = mine_bruteforce(db, WEAK_STRICT_TOTAL, 2, bounds)
        assert set(result.frequent) == set(oracle.frequent)
        b = db.dictionary.id_of("b")
        assert all(
            b not in p.positives[0] for p, _ in result.frequent
        )
        assert result.stats.pruned_subtrees >= 1
        assert result.stats.candidates < oracle.stats.candidates

    @pytest.mark.parametrize("theta", THETAS, ids=lambda t: t.spell())
    def test_agrees_with_bruteforce_on_random_instances(self, theta):
        rng = random.Random(theta.index)
        for _ in range(12):
            alphabet = rng.randint(3, 4)
            d = Dictionary(chr(ord("a") + i) for i in range(alphabet))
            db = SequenceDatabase(
                tuple(
                    random_sequence(rng, alphabet=alphabet, max_len=6, max_itemset_size=2)
                    for _ in range(rng.randint(3, 10))
                ),
                d,
            )
            minsup = rng.randint(1, max(1, len(db) // 2))
            bounds = PatternBounds(2, 2, 2, tuple(range(alphabet)))
            pruned = mine_pruned(db, theta, minsup, bounds)
            oracle = mine_bruteforce(db, theta, minsup, bounds)
            assert set(pruned.frequent) == set(oracle.frequent)
            assert pruned.frequent == oracle.frequent  # same canonical order

    @pytest.mark.parametrize("theta", THETAS, ids=lambda t: t.spell())
    def test_agrees_with_bruteforce_on_random_bounds(self, theta):
        # Each cap in 1..3. A draw whose space holds more than 3,000
        # patterns is drawn again, which keeps the bruteforce oracle cheap.
        rng = random.Random(100 + theta.index)
        cases = 0
        while cases < 25:
            alphabet = rng.randint(2, 3)
            caps = [rng.randint(1, 3) for _ in range(3)]
            if _space_size(alphabet, *caps) > 3000:
                continue
            cases += 1
            d = Dictionary(chr(ord("a") + i) for i in range(alphabet))
            db = SequenceDatabase(
                tuple(
                    random_sequence(rng, alphabet=alphabet, max_len=7, max_itemset_size=2)
                    for _ in range(rng.randint(2, 10))
                ),
                d,
            )
            minsup = rng.randint(1, max(1, len(db) // 2))
            bounds = PatternBounds(*caps, tuple(range(alphabet)))
            pruned = mine_pruned(db, theta, minsup, bounds)
            oracle = mine_bruteforce(db, theta, minsup, bounds)
            assert oracle.stats.candidates == _space_size(alphabet, *caps)
            assert pruned.frequent == oracle.frequent
            assert pruned.stats.candidates <= oracle.stats.candidates

    def test_three_step_patterns_and_strong_occurrence(self):
        rng = random.Random(99)
        d = Dictionary("abc")
        db = SequenceDatabase(
            tuple(random_sequence(rng, alphabet=3, max_len=7) for _ in range(8)), d
        )
        bounds = PatternBounds(3, 1, 2, (0, 1, 2))
        for theta in THETAS:
            pruned = mine_pruned(db, theta, 2, bounds)
            oracle = mine_bruteforce(db, theta, 2, bounds)
            assert pruned.frequent == oracle.frequent

    def test_partial_growth_regains_support(self):
        # Under partial non-inclusion, growing a negative can only add
        # sequences: <a !b c> holds in one sequence, <a !(b d) c> in two.
        # A miner that cut below the infrequent <a !b c> would lose the
        # second; one that took opening the slot of <a c> for growth would
        # report the first.
        db = parse_database("a b c\na c\nd\n")
        d = db.dictionary
        bounds = PatternBounds(2, 1, 2, tuple(range(len(d))))
        theta = Theta.parse("weak-soft-partial")
        result = mine_pruned(db, theta, 2, bounds)
        found = dict(result.frequent)
        assert found[parse_pattern("<a !(b d) c>", d)] == 2
        assert parse_pattern("<a !b c>", d) not in found
        assert support(parse_pattern("<a !b c>", d), db, theta) == 1
        assert result.frequent == mine_bruteforce(db, theta, 2, bounds).frequent


class TestSupportAntiMonotonicity:
    def _random_prefix_extension(self, rng, p, alphabet):
        choices = []
        last = p.positives[-1]
        for item in range(alphabet):
            if item > max(last):
                choices.append(("grow_pos", item))
        choices.append(("append", rng.randrange(alphabet)))
        for slot in range(len(p.negatives)):
            item = rng.randrange(alphabet)
            if item not in p.negatives[slot].itemset:
                choices.append(("grow_neg", (slot, item)))
        kind, arg = rng.choice(choices)
        if kind == "grow_pos":
            positives = p.positives[:-1] + (Itemset(last.mask | (1 << arg)),)
            return NegPattern(positives, p.negatives)
        if kind == "append":
            return NegPattern(
                p.positives + (Itemset(1 << arg),), p.negatives + (Negative(),)
            )
        slot, item = arg
        negatives = list(p.negatives)
        negatives[slot] = Negative(Itemset(negatives[slot].itemset.mask | (1 << item)))
        return NegPattern(p.positives, tuple(negatives))

    def test_prefix_extension_never_gains_weak_total_support(self):
        rng = random.Random(17)
        d = Dictionary("abcd")
        for _ in range(60):
            db = SequenceDatabase(
                tuple(random_sequence(rng, alphabet=4) for _ in range(5)), d
            )
            p = random_pattern(rng, alphabet=4, max_positives=2)
            p2 = self._random_prefix_extension(rng, p, 4)
            assert prefix_incl(p, p2)
            for emb in ("soft", "strict"):
                theta = Theta.parse(f"weak-{emb}-total")
                assert support(p2, db, theta) <= support(p, db, theta)

    def test_negative_growth_never_gains_total_support(self):
        rng = random.Random(29)
        d = Dictionary("abcd")
        for _ in range(60):
            db = SequenceDatabase(
                tuple(random_sequence(rng, alphabet=4) for _ in range(5)), d
            )
            p = random_pattern(rng, alphabet=4, max_positives=3)
            if len(p.positives) < 2:
                continue
            slot = rng.randrange(len(p.negatives))
            item = rng.randrange(4)
            if item in p.negatives[slot].itemset:
                continue
            negatives = list(p.negatives)
            negatives[slot] = Negative(
                Itemset(negatives[slot].itemset.mask | (1 << item))
            )
            p2 = NegPattern(p.positives, tuple(negatives))
            assert neg_ext(p, p2)
            for theta in TOTAL_THETAS:
                assert support(p2, db, theta) <= support(p, db, theta)
