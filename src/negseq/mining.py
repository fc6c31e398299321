"""Canonical pattern enumeration and frequent-pattern mining.

The pruned miner returns exactly the bruteforce result, under all eight
relations. It walks prefix extensions depth first (append a positive itemset,
grow the last positive itemset, put an item into a negative itemset) and
counts every candidate on one vertical layout of the database, SPAM's bitmaps
(Ayres, Flannick, Gehrke & Yiu, KDD 2002): a big int over the cells of all
the sequences, with one row of cells per item (see ``matching._Layout``).

- A positive node carries its reach R, the cells where its last positive can
  sit. Growing the last itemset by x gives ``R & cells[x]``; appending x gives
  ``after & cells[x]``, where ``after`` floods R one cell on to the end of
  each sequence. The node's ``embedded``, the end separators in ``after``, is
  its set of containing sequences, and its support is their number.
- A negative node is counted on the layout. Weak: one reach pass, where
  every constrained slot passes. Strong: ``embedded`` minus the sequences
  where the positives embed with a failing itemset inserted into a slot,
  e-NSP's reduction of negative support to positive containment (Cao, Dong
  & Zheng, Artificial Intelligence 235, 2016); a negative subtree reuses
  those reaches, as its nodes share their positives.

The walk works on the itemsets' masks, and builds a pattern object only for
a frequent node. Every relation needs the positive part to embed, and every
slot test is monotone in the negative itemset, which gives three rules:

- positive extension: the child's sequences are among the parent's; below
  ``minsup`` the whole subtree is cut, under every relation;
- opening an empty negative slot, or growing a negative under total
  non-inclusion: the child's sequences are among the parent's; under total
  non-inclusion the negative subtree is cut below ``minsup``;
- growing a non-empty negative under partial non-inclusion: the child's
  sequences include the parent's, so nothing is cut.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

from .model import (
    NO_NEGATIVE,
    Dictionary,
    Itemset,
    NegPattern,
    Negative,
    NonInclusion,
    Occurrence,
    SequenceDatabase,
    Theta,
)
from .matching import _COMBO_TEST, _Layout, _flood, _placed, _supports

# Not called here: ``bench/run.py --trace 1`` patches them on this module by name.
from .matching import support, weak_strong_support


@dataclass(frozen=True, slots=True)
class PatternBounds:
    """Finite pattern space: alphabet plus size caps, all at least 1."""

    max_positives: int
    max_itemset_size: int
    max_neg_size: int
    alphabet: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(sorted(set(self.alphabet))))
        if self.max_positives < 1 or self.max_itemset_size < 1 or self.max_neg_size < 1:
            raise ValueError("pattern bounds must be at least 1")
        if not self.alphabet:
            raise ValueError("alphabet must be non-empty")
        if any(item < 0 for item in self.alphabet):
            raise ValueError("item ids are non-negative")

    @classmethod
    def for_dictionary(
        cls,
        dictionary: Dictionary,
        max_positives: int = 3,
        max_itemset_size: int = 2,
        max_neg_size: int = 2,
    ) -> "PatternBounds":
        return cls(max_positives, max_itemset_size, max_neg_size, tuple(range(len(dictionary))))


# The walk's nodes are masks: ``pos`` holds the positive itemsets' masks and
# ``neg`` the negative slots' masks, 0 for an empty slot. A pattern's
# canonical construction adds items left to right: the positive itemsets
# first (each in increasing item order), then negative items in (slot, item)
# order. Children of a node continue that construction, so a depth-first walk
# is duplicate-free without a seen-set.


def _positive_children(
    pos: tuple[int, ...], bounds: PatternBounds
) -> Iterator[tuple[tuple[int, ...], int, bool]]:
    """(child positives, item, appended) in canonical order: grow the last
    itemset by an item after its largest, then append a one-item itemset."""
    last = pos[-1]
    if last.bit_count() < bounds.max_itemset_size:
        alphabet = bounds.alphabet
        for item in alphabet[bisect_right(alphabet, last.bit_length() - 1) :]:
            yield pos[:-1] + (last | 1 << item,), item, False
    if len(pos) < bounds.max_positives:
        for item in bounds.alphabet:
            yield pos + (1 << item,), item, True


def _negative_children(
    neg: tuple[int, ...], bounds: PatternBounds, last_slot: int, last_item: int
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(child negatives, slot, item), continuing the canonical (slot, item)
    order from the last item put into a negative, (-1, -1) for none."""
    for slot in range(max(last_slot, 0), len(neg)):
        q = neg[slot]
        if slot == last_slot:
            if q.bit_count() >= bounds.max_neg_size:
                continue
            floor = last_item
        else:
            floor = -1
        for item in bounds.alphabet[bisect_right(bounds.alphabet, floor) :]:
            yield neg[:slot] + (q | 1 << item,) + neg[slot + 1 :], slot, item


def cuts_negatives(theta: Theta) -> bool:
    """Whether growing a negative only loses sequences under ``theta``, so
    that the miner cuts a negative subtree below ``minsup``: total non-inclusion."""
    return theta.non_inclusion is NonInclusion.TOTAL


def _pattern(positives: tuple[Itemset, ...], neg: tuple[int, ...]) -> NegPattern:
    return NegPattern(
        positives, tuple(Negative(Itemset(q)) if q else NO_NEGATIVE for q in neg)
    )


def enumerate_patterns(bounds: PatternBounds) -> Iterator[NegPattern]:
    """Every valid pattern within ``bounds``, exactly once, in a fixed order:
    the canonical construction order that the pruned miner walks as well.
    One recursive walk yields a node, then, while it has no negative, its
    positive children's subtrees, then its negative children's subtrees. So
    the patterns with one positive part come in at most two runs: the node,
    and later its whole negative subtree. :func:`mine_bruteforce` finds a
    positive part's placements once per run; its result does not depend on
    the order, only its cost does."""

    def walk(
        pattern: NegPattern, neg: tuple[int, ...], last_slot: int, last_item: int
    ) -> Iterator[NegPattern]:
        yield pattern
        positives, negatives = pattern.positives, pattern.negatives
        if last_slot < 0:
            for child, _, _ in _positive_children(pattern.positive_masks, bounds):
                slots = len(child) - 1
                grown = NegPattern(positives[:slots] + (Itemset(child[-1]),))
                yield from walk(grown, (0,) * slots, -1, -1)
        for child, slot, item in _negative_children(neg, bounds, last_slot, last_item):
            grown = (
                negatives[:slot] + (Negative(Itemset(child[slot])),) + negatives[slot + 1 :]
            )
            yield from walk(NegPattern(positives, grown), child, slot, item)

    for item in bounds.alphabet:
        yield from walk(NegPattern((Itemset(1 << item),)), (), -1, -1)


@dataclass(frozen=True, slots=True)
class MiningStats:
    """candidates: patterns whose support was evaluated; support_calls:
    support counts, one per candidate, over the sequences where its
    positive part embeds for the bruteforce engine and on the vertical
    layout for the pruned one;
    pruned_subtrees: cut nodes that have a child in the canonical tree."""

    candidates: int = 0
    support_calls: int = 0
    pruned_subtrees: int = 0


@dataclass(frozen=True, slots=True)
class MiningResult:
    frequent: tuple[tuple[NegPattern, int], ...]
    theta: Theta
    minsup: int
    stats: MiningStats


def mine_bruteforce(
    db: SequenceDatabase, theta: Theta, minsup: int, bounds: PatternBounds
) -> MiningResult:
    """Exact frequent set by exhaustive enumeration; the oracle engine.

    Every candidate of :func:`enumerate_patterns` is decided on the
    per-sequence core, in each sequence where its positive part embeds.
    Skipping the others is exact, as every relation needs the positive part
    to embed. Those sequences and the placements the decisions read are
    found once per run of candidates with the same positives; the
    enumeration yields a node's negative subtree in one run, so that is at
    most twice per positive part.
    """
    if minsup < 1:
        raise ValueError("minsup must be at least 1")
    t = theta.index
    frequent: list[tuple[NegPattern, int]] = []
    candidates = 0
    memo_key: object = None
    placed: list = []
    for pattern in enumerate_patterns(bounds):
        candidates += 1
        if pattern.positive_masks != memo_key:
            memo_key = pattern.positive_masks
            placed = _placed(pattern.positive_masks, db.sequences)
        count = _supports(pattern, placed, 1 << t)[t]
        if count >= minsup:
            frequent.append((pattern, count))
    return MiningResult(
        tuple(frequent), theta, minsup, MiningStats(candidates, candidates, 0)
    )


def mine_pruned(
    db: SequenceDatabase, theta: Theta, minsup: int, bounds: PatternBounds
) -> MiningResult:
    """Frequent patterns under any relation, by depth-first search on the
    vertical layout.

    Returns exactly what :func:`mine_bruteforce` returns on the same inputs,
    in the same order and with the same supports. A positive node below
    ``minsup`` loses its whole subtree; under total non-inclusion so does a
    negative node below ``minsup``. Under partial non-inclusion, growing a
    negative can only add sequences, so the negative subtree is never cut
    (see the module docstring for the three rules).
    """
    if minsup < 1:
        raise ValueError("minsup must be at least 1")
    layout = _Layout(list(db.sequences), Itemset.of(bounds.alphabet).mask)
    cells, free, sep = layout.cells, layout.free, layout.sep
    test = _COMBO_TEST[theta.combo_index]
    strong = theta.occurrence is Occurrence.STRONG
    cut_negatives = cuts_negatives(theta)
    frequent: list[tuple[NegPattern, int]] = []
    candidates = 0
    pruned = 0

    def visit_negative(
        pos: tuple[int, ...],
        positives: tuple[Itemset, ...],
        neg: tuple[int, ...],
        last_slot: int,
        last_item: int,
        embedded: int,
    ) -> None:
        # embedded: the positive part's sequences, as end separators.
        nonlocal candidates, pruned
        candidates += 1
        slots = [(q, test) if q else None for q in neg]
        found = embedded & ~layout.failing(pos, slots) if strong else layout.reach(pos, slots)
        count = found.bit_count()
        if count >= minsup:
            frequent.append((_pattern(positives, neg), count))
        elif cut_negatives:
            if next(_negative_children(neg, bounds, last_slot, last_item), None):
                pruned += 1
            return
        for child, slot, item in _negative_children(neg, bounds, last_slot, last_item):
            visit_negative(pos, positives, child, slot, item, embedded)

    def visit_positive(pos: tuple[int, ...], reach: int) -> None:
        # reach: the cells where the last positive can sit.
        nonlocal candidates, pruned
        candidates += 1
        after = _flood(reach << 1, free)
        embedded = after & sep
        count = embedded.bit_count()
        if count < minsup:
            # A node of two or more positives has a negative slot to open.
            if len(pos) > 1 or next(_positive_children(pos, bounds), None):
                pruned += 1
            return
        positives = tuple(map(Itemset, pos))
        frequent.append((NegPattern(positives), count))
        for child, item, appended in _positive_children(pos, bounds):
            visit_positive(child, (after if appended else reach) & cells[item])
        for child, slot, item in _negative_children((0,) * (len(pos) - 1), bounds, -1, -1):
            visit_negative(pos, positives, child, slot, item, embedded)

    for item in bounds.alphabet:
        visit_positive((1 << item,), cells[item])
    return MiningResult(
        tuple(frequent), theta, minsup, MiningStats(candidates, candidates, pruned)
    )
