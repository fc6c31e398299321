"""The eight containment relations between negative patterns and sequences.

Builds up from itemset non-inclusion through soft/strict embeddings and
weak/strong occurrence to support counting. All functions are pure.

Two engines decide containment. The per-sequence core decides one pattern
in one sequence, each relation from its own slot test and from the earliest
and latest placements of the positives; :func:`contains` (with witness
and violator), :func:`is_contained`, :func:`theta_bits`, the support counts
and the bruteforce miner use it. Every relation needs the positive part to
embed, so a support count decides a pattern only in the sequences that
:func:`_placed` finds for its positives, from the placements found there;
the bruteforce miner finds them once for a run of candidates with the same
positives. A slot test applies to the union of a gap's itemsets, which
alone decides strict-partial and total; soft-partial scans the itemsets
only where the union includes the negative. Each placed sequence keeps the
unions that its decisions build, of the earliest placement's gaps and of
the widest gaps, so a union is built once for every pattern with those
positives. A decision works from a :func:`_plan`, which keeps each weak
search's list once a search has built it; a count decides every sequence
of a pattern from one plan. A weak decision asks only whether a passing
placement exists, and never builds the witness that :func:`contains`
reports. The vertical engine, ``_Layout``, decides patterns against a list
of sequences laid out as one bit string: :func:`theta_masks` builds
``orders.ContainmentGrid``, the verification grid, with it,
``mining.mine_pruned`` counts every candidate on one layout of the
database, and the tests check it against the core. Strong containment there
is positive containment minus that of the positives with a failing itemset
inserted into a slot.

Every relation quantifies over all placements of the positives, of which
there can be exponentially many. No decision enumerates them: one containment
decision, and one witness or violator, costs O(k*n) mask operations for k
positives and n itemsets (see the core below). So does their count, which
:func:`contains` reports and makes only when it is read: one mask test per
positive and itemset. ``_iter_embeddings``, the enumeration itself, serves
:func:`positive_embeddings`, the oracle that tests check the core against,
and the lemmas suite's per-placement checks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, reduce
from operator import and_, or_
from typing import Iterator

from .model import (
    COMBOS,
    EmbeddingKind,
    Itemset,
    NegMode,
    NegPattern,
    NegseqError,
    NonInclusion,
    Occurrence,
    Sequence,
    SequenceDatabase,
    Theta,
    THETAS,
)

# An embedding is a strictly increasing tuple of 1-based sequence positions,
# one per positive itemset of the pattern it embeds.
Embedding = tuple[int, ...]

# Only ``bench/run.py --trace 1`` reads this, to count ``matching.cap_hits``.
DEFAULT_EMBEDDING_CAP = 10**6


class NotAPositiveEmbeddingError(NegseqError):
    """The tuple is not an embedding of the pattern's positive part."""


# Bound once: reading a member off its Enum class is a Python-level lookup.
_PARTIAL = NonInclusion.PARTIAL


def non_inclusion(p: Itemset, i: Itemset, kind: NonInclusion) -> bool:
    """Partial: some item of ``p`` is missing from ``i``. Total: disjointness.

    The empty itemset is non-included in everything, under both kinds.
    """
    if not p:
        return True
    if kind is _PARTIAL:
        return p.mask & ~i.mask != 0
    return p.mask & i.mask == 0


def _iter_embeddings(
    pos_masks: tuple[int, ...], seq_masks: tuple[int, ...]
) -> Iterator[Embedding]:
    """All placements of the positives, in lexicographic position order."""
    m = len(pos_masks)
    n = len(seq_masks)
    if m == 0 or n < m:
        return
    last = m - 1
    # pos[i] is the 1-based position of positive i, which is also the 0-based
    # index where the search for its next position resumes.
    pos = [0] * m
    i = j = 0
    while True:
        pmask = pos_masks[i]
        limit = n - last + i  # leave room for the positives after i
        while j < limit and pmask & seq_masks[j] != pmask:
            j += 1
        if j < limit:
            j += 1
            pos[i] = j
            if i == last:
                yield tuple(pos)
            else:
                i += 1
        elif i:
            i -= 1
            j = pos[i]
        else:
            return


def _count_embeddings(pos_masks: tuple[int, ...], seq_masks: tuple[int, ...]) -> int:
    """Number of placements of the positives: one mask test per positive
    and itemset."""
    # ways[j]: placements of the positives so far within the first j
    # itemsets. Before the first positive there is one (empty) placement.
    ways = [1] * (len(seq_masks) + 1)
    for pmask in pos_masks:
        placed = [0]
        for j, smask in enumerate(seq_masks):
            placed.append(placed[j] + ways[j] if pmask & smask == pmask else placed[j])
        ways = placed
    return ways[-1]


def positive_embeddings(pplus: NegPattern, s: Sequence) -> list[Embedding]:
    """Every embedding of a positive pattern, in lexicographic order.

    ``pplus`` must carry no negative constraints; use
    :func:`negseq.model.positive_part` first if it does. An oracle helper: the
    tests check the core against it, and the lemmas suite lists placements
    with its enumeration; the core never calls it.
    """
    if any(negative.itemset for negative in pplus.negatives):
        raise ValueError("positive_embeddings expects a pattern without negatives")
    return list(_iter_embeddings(pplus.positive_masks, s.masks))


def gap_union(s: Sequence, e: Embedding, slot: int) -> Itemset:
    """Union of the itemsets strictly between positions e[slot] and e[slot+1].

    ``slot`` is 1-based and must satisfy 1 <= slot < len(e). Adjacent
    positions yield the empty itemset. An oracle helper: only the tests call it.
    """
    if not 1 <= slot < len(e):
        raise ValueError(f"slot must be in [1, {len(e) - 1}], got {slot}")
    lo, hi = e[slot - 1], e[slot]
    if not 1 <= lo < hi <= len(s):
        raise ValueError(f"positions {e!r} are out of order or out of range")
    mask = 0
    for index in range(lo, hi - 1):
        mask |= s.itemsets[index].mask
    return Itemset(mask)


# The slot test a pinned mode applies. TOTAL tests as strict, which equals
# soft under total non-inclusion.
_MODE_TEST = {NegMode.STRICT_PARTIAL: 1, NegMode.SOFT_PARTIAL: 2, NegMode.TOTAL: 4}

# The slot test each (embedding, non-inclusion) combo of COMBOS applies:
# strict-total and soft-total test the same.
_COMBO_TEST = (1, 2, 4, 4)
# The three slot tests: strict-partial, soft-partial and total.
_TESTS = (1, 2, 4)


def _ruled_out(qmask: int, test: int, smask: int) -> int:
    """The items of ``qmask`` that gap itemset ``smask`` rules out under
    ``test``. A gap fails its slot once its itemsets rule out all of
    ``qmask``: strict-partial (1) looks at the union, soft-partial (2) needs
    one itemset that includes ``qmask``, total (4) one that meets it."""
    if test == 1:
        return qmask & smask
    if test == 2:
        return qmask if qmask & smask == qmask else 0
    return qmask if qmask & smask else 0


def _passes(
    p: NegPattern,
    test: int,
    seq_masks: tuple[int, ...],
    lo: list[int],
    hi: list[int],
    unions: dict[int, int],
) -> bool:
    """Does every constrained slot i of ``p`` pass on the gap from ``lo[i]``
    to ``hi[i + 1]`` (0-based, exclusive)? Each slot applies ``test``, or
    its pinned mode's own. With ``lo`` and ``hi`` both one placement this
    checks that placement; with the earliest and latest ones, the widest
    gaps.

    A slot applies its test to the gap's union, which ``unions`` keeps per
    slot for these ``lo`` and ``hi``, built the first time a slot reads it.
    A union that rules out less than all of the negative passes under every
    test, and one that rules out all of it fails strict-partial and total.
    Soft-partial needs a single itemset to rule it out, so only then does
    it scan the gap's itemsets."""
    for i, qmask, mode in p.constrained_slots:
        slot_test = _MODE_TEST[mode] if mode else test
        union = unions.get(i)
        if union is None:
            union = unions[i] = reduce(or_, seq_masks[lo[i] + 1 : hi[i + 1]], 0)
        if _ruled_out(qmask, slot_test, union) != qmask:
            continue
        if slot_test != 2:
            return False
        for smask in seq_masks[lo[i] + 1 : hi[i + 1]]:
            if _ruled_out(qmask, slot_test, smask) == qmask:
                return False
    return True


def _require_positive_embedding(
    e: Embedding, p: NegPattern, seq_masks: tuple[int, ...]
) -> None:
    k = len(p.positives)
    n = len(seq_masks)
    if len(e) != k:
        raise NotAPositiveEmbeddingError(
            f"expected {k} positions, got {len(e)}"
        )
    prev = 0
    for position, positive in zip(e, p.positives):
        if not prev < position <= n:
            raise NotAPositiveEmbeddingError(
                f"positions {e!r} are not strictly increasing within [1, {n}]"
            )
        if positive.mask & seq_masks[position - 1] != positive.mask:
            raise NotAPositiveEmbeddingError(
                f"positive itemset is not included at position {position}"
            )
        prev = position


def check_embedding(
    e: Embedding,
    p: NegPattern,
    s: Sequence,
    embedding: EmbeddingKind,
    nonincl: NonInclusion,
) -> bool:
    """Does embedding ``e`` satisfy the negative constraints of ``p`` in ``s``?

    Soft checks each gap itemset individually; strict checks the gap union.
    ``e`` must embed the positive part (raises NotAPositiveEmbeddingError
    otherwise). A slot with an explicit mode is evaluated under that mode
    regardless of the arguments. An oracle helper: the tests and the lemmas
    suite check the core against it; the core never calls it.
    """
    seq_masks = s.masks
    _require_positive_embedding(e, p, seq_masks)
    test = _COMBO_TEST[COMBOS.index((embedding, nonincl))]
    index = [position - 1 for position in e]
    return _passes(p, test, seq_masks, index, index, {})


# --- the linear-time core ---------------------------------------------------
#
# Every slot test is monotone in the gap: a gap that fails a slot makes every
# gap that contains it fail too. So no decision needs the embeddings one by
# one. With k positives and n itemsets, each search below is one function of
# O(k*n) mask operations, and positive i only ever sits between first[i] and
# last[i], the 0-based indices of the greedy earliest and latest placements.


def _earliest(
    pos_masks: tuple[int, ...], seq_masks: tuple[int, ...], j: int = 0
) -> list[int] | None:
    """Greedy earliest placement of each positive from index ``j`` on: the
    lexicographically first embedding, as 0-based indices; None when the
    positives do not embed there."""
    n = len(seq_masks)
    index = []
    for pmask in pos_masks:
        while j < n and pmask & seq_masks[j] != pmask:
            j += 1
        if j == n:
            return None
        index.append(j)
        j += 1
    return index


def _latest(pos_masks: tuple[int, ...], seq_masks: tuple[int, ...]) -> list[int]:
    """Greedy latest placement of each positive, given that they embed."""
    index = [0] * len(pos_masks)
    j = len(seq_masks)
    for i in range(len(pos_masks) - 1, -1, -1):
        pmask = pos_masks[i]
        j -= 1
        while pmask & seq_masks[j] != pmask:
            j -= 1
        index[i] = j
    return index


def _slot_tests(p: NegPattern, test: int) -> list[tuple[int, int] | None]:
    """Per slot, the negative's mask and the test a pass applies to it,
    or None for an unconstrained slot. A pinned mode keeps its own test."""
    tests: list[tuple[int, int] | None] = [None] * (len(p.positive_masks) - 1)
    for i, qmask, mode in p.constrained_slots:
        tests[i] = (qmask, _MODE_TEST[mode] if mode else test)
    return tests


def _first_passing(
    pos_masks: tuple[int, ...],
    tests: list[tuple[int, int] | None],
    seq_masks: tuple[int, ...],
    first: list[int],
    last: list[int],
    witness: bool = True,
) -> Embedding | bool | None:
    """The lexicographically first embedding whose slots all pass, or None.

    One backward pass builds a level per positive: the ascending indices
    where it can sit and still complete to a placement of itself and the
    positives after it whose slots all pass. An index needs only the
    earliest entry of the next level after it, as that gives the shortest
    gap. No embedding passes iff a level is empty; else each positive takes
    the earliest entry of its level after the one before, which passes the
    slot between them by construction.

    With ``witness`` false this is the existence form that :func:`_decide`
    asks: True as soon as the pass finds an index for the first positive,
    with no witness walk, or None as before.
    """
    # Only the first positive's level can stop the existence form early:
    # an entry there completes through every later level.
    stop = -1 if witness else 0
    pmask = pos_masks[-1]
    level = [j for j in range(first[-1], last[-1] + 1) if pmask & seq_masks[j] == pmask]
    levels = [level]
    for i in range(len(pos_masks) - 2, -1, -1):
        pmask = pos_masks[i]
        if tests[i] is None:
            found = [j for j in range(first[i], level[-1]) if pmask & seq_masks[j] == pmask]
        else:
            qmask, test = tests[i]
            found = []
            r = len(level) - 1  # level[r] is the earliest entry after j
            covered = 0  # what the gap from j to level[r] rules out of qmask
            for j in range(level[r] - 1, first[i] - 1, -1):
                if covered != qmask and pmask & seq_masks[j] == pmask:
                    if i == stop:
                        return True
                    found.append(j)
                if r and level[r - 1] == j:
                    r -= 1
                    covered = 0
                elif covered != qmask:
                    covered |= _ruled_out(qmask, test, seq_masks[j])
            found.reverse()
        if not found:
            return None
        levels.append(found)
        level = found
    if not witness:
        return True
    index = [level[0]]
    for level in levels[-2::-1]:
        index.append(level[bisect_right(level, index[-1])])
    return tuple([j + 1 for j in index])


def _first_failing(
    pos_masks: tuple[int, ...],
    tests: list[tuple[int, int] | None],
    seq_masks: tuple[int, ...],
    first: list[int],
    last: list[int],
) -> Embedding | None:
    """The lexicographically first embedding that fails a slot, if any,
    given that ``first``, the greedy earliest placement, passes every slot.

    Some placement fails slot i iff its widest gap fails, the one from
    ``first[i]`` to ``last[i + 1]``, since every slot test is monotone in the
    gap. One forward scan from ``first[i]`` finds the first index j before
    ``last[i + 1]`` where the gap from ``first[i]`` through j fails. The
    first placement that fails slot i keeps ``first[:i + 1]`` and places the
    rest greedily after j, which succeeds as ``last[i + 1]`` > j. As
    ``first`` passes slot i, j >= ``first[i + 1]``: a later slot that can
    fail keeps ``first[i + 1]`` and so gives an earlier placement. The
    violator therefore comes from the last slot that can fail.
    """
    for i in range(len(tests) - 1, -1, -1):
        if tests[i] is None:
            continue
        qmask, test = tests[i]
        covered = 0  # what the gap from first[i] through j rules out of qmask
        for j in range(first[i] + 1, last[i + 1]):
            covered |= _ruled_out(qmask, test, seq_masks[j])
            if covered == qmask:
                rest = _earliest(pos_masks[i + 1 :], seq_masks, j + 1)
                return tuple(x + 1 for x in first[: i + 1] + rest)
    return None


# Relation bit t is THETAS[t]: strong occurrence under COMBOS[c] is bit 2c,
# weak is bit 2c+1. _TEST_BITS holds, per slot test, the strong bits of the
# combos that apply it.
_TEST_BITS = {
    test: sum(1 << 2 * c for c, t in enumerate(_COMBO_TEST) if t == test)
    for test in _TESTS
}
_ALL_BITS = (1 << len(THETAS)) - 1

# What :func:`_decide` works from: the relation bits it settles,
# :func:`_steps` for those bits, and per slot test the weak search's list,
# which the first search under that test builds.
_Plan = tuple[int, tuple[tuple[int, int, int], ...], dict[int, list]]


@cache
def _steps(wanted: int) -> tuple[tuple[int, int, int], ...]:
    """Per slot test that the relation bits ``wanted`` need: the test, its
    strong bits and its weak bits."""
    return tuple(
        (test, bits & wanted, bits << 1 & wanted)
        for test, bits in _TEST_BITS.items()
        if (bits | bits << 1) & wanted
    )


def _plan(wanted: int) -> _Plan:
    """A plan for deciding one pattern under the relations of ``wanted``:
    the steps are shared, and each weak search's list is built by the
    first search that needs it and kept for every later sequence."""
    return wanted, _steps(wanted), {}


# A sequence where the positives embed, as :func:`_decide` reads it: its
# itemsets' masks; the earliest placement of the positives and the latest,
# which a single decision leaves None until a test needs it; and the gap
# unions of the earliest placement and of the widest gaps, per slot, each
# built the first time a decision reads it.
_Placed = tuple[tuple[int, ...], list[int], list[int] | None, dict[int, int], dict[int, int]]


def _decide(p: NegPattern, plan: _Plan, placed: _Placed) -> int:
    """Containment under each relation that ``plan`` settles, each decided
    from its own slot test, in a sequence where the positives embed:
    ``placed`` holds its placements and gap unions. A count decides every
    sequence from one :func:`_plan`, so a weak search's list is built once
    per pattern; the gap unions depend on the positives alone, so every
    pattern with these positives reads them.

    Strong: every embedding passes a slot iff the widest gap any embedding
    gives it passes, from the earliest placement of the positive before the
    slot to the latest placement of the one after. Weak: the
    lexicographically first embedding passes, or the existence form of
    :func:`_first_passing` finds one that does, with no witness. Returns the
    relation bits, 0 outside the plan's.
    """
    wanted, steps, searches = plan
    if not p.constrained_slots:
        return wanted
    seq_masks, first, last, first_unions, widest_unions = placed
    pos_masks = p.positive_masks
    bits = 0
    for test, strong, weak in steps:
        if strong:
            last = last or _latest(pos_masks, seq_masks)
            if _passes(p, test, seq_masks, first, last, widest_unions):
                bits |= strong
        if weak and not _passes(p, test, seq_masks, first, first, first_unions):
            last = last or _latest(pos_masks, seq_masks)
            tests = searches.get(test)
            if tests is None:
                tests = searches[test] = _slot_tests(p, test)
            if _first_passing(pos_masks, tests, seq_masks, first, last, False) is None:
                weak = 0
        bits |= weak
    return bits


@dataclass(frozen=True, slots=True)
class MatchReport:
    """Outcome of one containment test.

    ``witness`` is the lexicographically first positive embedding that
    satisfies the negatives under the relation's (embedding, non-inclusion)
    combo, and ``violator`` the first that does not; each is None when there
    is no such embedding. Every embedding is one or the other, so both are
    None iff the positives do not embed. A weak relation holds iff
    ``witness`` is set, and a strong one iff ``witness`` is set and
    ``violator`` is None.

    ``total_positive_embeddings`` is the exact number of embeddings,
    counted when it is read, in O(k*n) mask operations. It is not a field:
    it takes no part in ``==`` or ``repr``.
    """

    contained: bool
    witness: Embedding | None
    violator: Embedding | None
    # The positives and the itemsets that the count reads; None when the
    # positives do not embed.
    _placements: tuple | None = field(default=None, kw_only=True, repr=False, compare=False)

    @property
    def total_positive_embeddings(self) -> int:
        return 0 if self._placements is None else _count_embeddings(*self._placements)


def contains(p: NegPattern, s: Sequence, theta: Theta) -> MatchReport:
    """Containment of ``p`` in ``s`` under ``theta``, with full reporting.

    Weak occurrence holds when some positive embedding satisfies the
    negatives; strong occurrence requires at least one positive embedding and
    that all of them satisfy the negatives. A pattern whose positive part
    does not occur is not contained under either occurrence.
    """
    seq_masks = s.masks
    pos_masks = p.positive_masks
    first = _earliest(pos_masks, seq_masks)
    if first is None:
        return MatchReport(False, None, None)
    last = _latest(pos_masks, seq_masks)
    test = _COMBO_TEST[theta.combo_index]
    tests = _slot_tests(p, test)
    lexfirst = tuple(j + 1 for j in first)
    if _passes(p, test, seq_masks, first, first, {}):
        witness = lexfirst
        violator = _first_failing(pos_masks, tests, seq_masks, first, last)
    else:
        witness = _first_passing(pos_masks, tests, seq_masks, first, last)
        violator = lexfirst
    if theta.occurrence is Occurrence.WEAK:
        contained = witness is not None
    else:
        contained = violator is None
    return MatchReport(contained, witness, violator, _placements=(pos_masks, seq_masks))


def is_contained(p: NegPattern, s: Sequence, theta: Theta) -> bool:
    """Boolean form of :func:`contains`, without the reporting."""
    seq_masks = s.masks
    first = _earliest(p.positive_masks, seq_masks)
    if first is None:
        return False
    return _decide(p, _plan(1 << theta.index), (seq_masks, first, None, {}, {})) != 0


def theta_bits(p: NegPattern, s: Sequence) -> int:
    """Containment under all eight relations at once.

    Bit t is set iff ``p`` is contained in ``s`` under ``THETAS[t]``. Used by
    the lemma harness and ``match --all-thetas``.
    """
    seq_masks = s.masks
    first = _earliest(p.positive_masks, seq_masks)
    return 0 if first is None else _decide(p, _plan(_ALL_BITS), (seq_masks, first, None, {}, {}))


def _placed(pos_masks: tuple[int, ...], sequences: tuple[Sequence, ...]) -> list[_Placed]:
    """The sequences where the positives embed, each with the placements
    that :func:`_decide` reads and empty gap-union caches. Every relation
    needs the positive part to embed, so containment holds in none of the
    others, and every pattern with these positives can be counted over this
    list; each gap union is then built once, by the first decision that
    reads it."""
    placed = []
    for s in sequences:
        seq_masks = s.masks
        first = _earliest(pos_masks, seq_masks)
        if first is not None:
            placed.append((seq_masks, first, _latest(pos_masks, seq_masks), {}, {}))
    return placed


def _supports(p: NegPattern, placed: list[_Placed], wanted: int) -> list[int]:
    """Per relation t of ``wanted``, how many of the ``placed`` sequences,
    :func:`_placed`'s list for the positives of ``p``, contain ``p`` under
    ``THETAS[t]``; 0 for the others. Every sequence is decided from one
    :func:`_plan`; with no sequence or no constrained slot there is
    nothing to decide and no plan is built."""
    tally: dict[int, int] = {}  # how many sequences give each set of bits
    if not placed or not p.constrained_slots:
        # Every placed sequence contains ``p`` under every relation.
        tally[wanted] = len(placed)
    else:
        plan = _plan(wanted)
        for entry in placed:
            bits = _decide(p, plan, entry)
            tally[bits] = tally.get(bits, 0) + 1
    counts = [0] * len(THETAS)
    for bits, count in tally.items():
        while bits:
            low = bits & -bits
            counts[low.bit_length() - 1] += count
            bits ^= low
    return counts


def support(p: NegPattern, db: SequenceDatabase, theta: Theta) -> int:
    """Number of database sequences that contain ``p`` under ``theta``."""
    placed = _placed(p.positive_masks, db.sequences)
    return _supports(p, placed, 1 << theta.index)[theta.index]


def weak_strong_support(
    p: NegPattern,
    db: SequenceDatabase,
    embedding: EmbeddingKind,
    nonincl: NonInclusion,
) -> tuple[int, int]:
    """(weak, strong) supports in one database pass. An oracle helper: the
    tests check it against :func:`all_theta_supports`; the package never calls
    it."""
    strong = 2 * COMBOS.index((embedding, nonincl))
    counts = _supports(p, _placed(p.positive_masks, db.sequences), 3 << strong)
    return counts[strong + 1], counts[strong]


def all_theta_supports(p: NegPattern, db: SequenceDatabase) -> tuple[int, ...]:
    """Supports under all eight relations, in canonical THETAS order."""
    return tuple(_supports(p, _placed(p.positive_masks, db.sequences), _ALL_BITS))


# --- the vertical engine ----------------------------------------------------
#
# The sequences form one bit string: a separator cell before each sequence,
# one cell per itemset, and a separator at the end. A big int over the cells
# is a set of cells, as in SPAM's vertical bitmaps (Ayres, Flannick, Gehrke &
# Yiu, KDD 2002), so one integer operation acts on every sequence at once.
# Each slot test becomes a set of blocker cells, and a reach pass carries the
# positives' possible places across a slot with one add-with-carry run fill
# per blocker set (Allison & Dix, IPL 1986). A pass that reaches the
# separator at the end of a sequence has found the pattern in it. Weak
# containment is the pass in which every constrained slot takes a passing
# gap. Strong containment is ``embedded``, the pass with no constrained slot,
# minus the sequences where the positives embed with a failing itemset
# inserted into a slot: e-NSP's reduction of negative support to positive
# containment (Cao, Dong & Zheng, Artificial Intelligence 235, 2016).


def _flood(seeds: int, free: int) -> int:
    """From each seed, the seed, the run of free cells after it and the
    first blocked cell after that run."""
    return (((seeds & free) + free) ^ free) | seeds


class _Layout:
    """The cells of a list of sequences, with the cells of each item the
    patterns use."""

    def __init__(self, sequences: list[Sequence], items: int):
        size = sum(len(s) for s in sequences) + len(sequences) + 1
        # Bit c of a row, little-endian, is cell c.
        rows = {x: bytearray((size + 7) // 8) for x in Itemset(items)}
        sep = bytearray((size + 7) // 8)
        self.ends = ends = []  # the cell of each sequence's end separator
        cell = 0
        for s in sequences:
            for mask in s.masks:
                cell += 1
                if mask & items:
                    for x in Itemset(mask & items):
                        rows[x][cell >> 3] |= 1 << (cell & 7)
            cell += 1
            ends.append(cell)
            sep[cell >> 3] |= 1 << (cell & 7)
        self.sep = int.from_bytes(sep, "little") | 1
        self.free = ((1 << size) - 1) ^ self.sep
        self.cells = {x: int.from_bytes(row, "little") for x, row in rows.items()}
        self._positives: dict[int, int] = {}
        self._blockers: dict[tuple[int, int], tuple[int, ...]] = {}
        self._inserted_into: tuple[int, ...] = ()  # see :meth:`failing`
        self._inserted: list[tuple[int, dict[int, int]]] = []

    def positive(self, pmask: int) -> int:
        """The cells that hold every item of ``pmask``."""
        found = self._positives.get(pmask)
        if found is None:
            found = -1
            for x in Itemset(pmask):
                found &= self.cells[x]
            self._positives[pmask] = found
        return found

    def blockers(self, qmask: int, test: int) -> tuple[int, ...]:
        """A slot test on negative ``qmask`` as blocker sets, each given by
        the free cells it leaves. A gap fails once it meets every blocker
        set: strict-partial (1) has one per item, soft-partial (2) the cells
        holding all of them, total (4) the cells holding any."""
        key = (qmask, test)
        found = self._blockers.get(key)
        if found is None:
            cells = [self.cells[x] for x in Itemset(qmask)]
            if test == 2:
                cells = [reduce(and_, cells)]
            elif test == 4:
                cells = [reduce(or_, cells)]
            found = tuple(self.free & ~b for b in cells)
            self._blockers[key] = found
        return found

    def reach(self, pos_masks: tuple[int, ...], slots: list[tuple[int, int] | None]) -> int:
        """End separators of the sequences where the positives embed with
        every slot passing. ``slots`` is :func:`_slot_tests`'s list; with
        no constrained slot this is positive containment.

        The cells the pass reaches after a slot are the places of the next
        positive that the gap allows. A passing gap misses some blocker set,
        so it lies in the flood of that set.
        """
        free = self.free
        reach = self.positive(pos_masks[0])
        for pmask, slot in zip(pos_masks[1:], slots):
            if slot is None:
                after = _flood(reach << 1, free)
            else:
                after = 0
                for unblocked in self.blockers(*slot):
                    after |= _flood(reach << 1, unblocked)
            reach = after & self.positive(pmask)
            if not reach:
                return 0
        return _flood(reach << 1, free) & self.sep

    def failing(self, pos_masks: tuple[int, ...], slots: list[tuple[int, int] | None]) -> int:
        """End separators of the sequences where some placement of the
        positives fails a slot of ``slots``, :func:`_slot_tests`'s list.

        Some placement fails slot i iff the widest gap does, as every slot
        test is monotone in the gap, and an item lies in that gap iff the
        positives embed with it inserted after positive i. So slot i on
        negative q fails where the positives embed with an itemset w
        inserted there: w = q under soft-partial (2), some one-item {x} of q
        under total (4), every one under strict-partial (1); for a one-item
        q, one reach. Per slot the cells after the positive before it and
        the reaches from there are kept for the positives last asked about.
        """
        free = self.free
        if pos_masks != self._inserted_into:
            self._inserted_into, self._inserted = pos_masks, []
            reach = self.positive(pos_masks[0])
            for pmask in pos_masks[1:]:
                self._inserted.append((_flood(reach << 1, free), {}))
                reach = self._inserted[-1][0] & self.positive(pmask)
        found = 0
        for i, slot in enumerate(slots):
            if slot is not None:
                qmask, test = slot
                after, reaches = self._inserted[i]
                single = test == 2 or not qmask & qmask - 1
                ends = []
                for w in [qmask] if single else [1 << x for x in Itemset(qmask)]:
                    if w not in reaches:
                        reach = after & self.positive(w)
                        for pmask in pos_masks[i + 1 :]:
                            reach = _flood(reach << 1, free) & self.positive(pmask)
                        reaches[w] = _flood(reach << 1, free) & self.sep
                    ends.append(reaches[w])
                found |= reduce(and_ if test == 1 else or_, ends)
        return found


def theta_masks(
    patterns: list[NegPattern], sequences: list[Sequence]
) -> tuple[list[list[int]], dict[int, int]]:
    """For each pattern, the sequences that contain it under each relation,
    in THETAS order, and the index in ``sequences`` of each end-separator
    cell. A mask holds the end separators of the containing sequences; the
    cells run in sequence order, so the lowest cell is the lowest sequence.

    The vertical engine: it decides each pattern against all the sequences
    at once, in a few big-int operations per slot and test, and agrees
    with :func:`theta_bits` pair by pair. Per slot test the weak mask is
    one reach pass, and the strong mask is ``embedded``, which patterns with
    the same positives share, minus the layout's ``failing``.
    """
    items = 0
    for p in patterns:
        for pmask in p.positive_masks:
            items |= pmask
        for _, qmask, _ in p.constrained_slots:
            items |= qmask
    layout = _Layout(sequences, items)
    embedded_by: dict[tuple[int, ...], int] = {}
    # One object per distinct mask: a large grid repeats few masks many times.
    shared: dict[int, int] = {}
    rows = []
    for p in patterns:
        pos_masks = p.positive_masks
        if pos_masks not in embedded_by:
            embedded_by[pos_masks] = layout.reach(pos_masks, [None] * (len(pos_masks) - 1))
        embedded = embedded_by[pos_masks]
        if not embedded or not p.constrained_slots:
            rows.append([shared.setdefault(embedded, embedded)] * len(THETAS))
            continue
        masks = {}  # per slot test, the strong and the weak mask
        for test in _TESTS:
            slots = _slot_tests(p, test)
            strong = embedded & ~layout.failing(pos_masks, slots)
            masks[test] = (strong, layout.reach(pos_masks, slots))
        rows.append(
            [
                shared.setdefault(marks, marks)
                for test in _COMBO_TEST
                for marks in masks[test]
            ]
        )
    return rows, {cell: j for j, cell in enumerate(layout.ends)}
