"""The eight containment relations between negative patterns and sequences.

Builds up from itemset non-inclusion through soft/strict embeddings and
weak/strong occurrence to support counting. All functions are pure; support
over a database could be evaluated per sequence in parallel without changing
the count, though this implementation is sequential.

Every relation quantifies over all placements of the positives, of which
there can be exponentially many. No decision enumerates them: one containment
decision, and one witness or violator, costs O(k*n) mask operations for k
positives and n itemsets (see the core below). ``_iter_embeddings``, the
enumeration itself, serves only :func:`positive_embeddings`, the oracle that
tests check the core against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
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


def non_inclusion(p: Itemset, i: Itemset, kind: NonInclusion) -> bool:
    """Partial: some item of ``p`` is missing from ``i``. Total: disjointness.

    The empty itemset is non-included in everything, under both kinds.
    """
    if not p:
        return True
    if kind is NonInclusion.PARTIAL:
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
        while j < limit and pmask & ~seq_masks[j]:
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


def _count_embeddings(
    pos_masks: tuple[int, ...],
    seq_masks: tuple[int, ...],
    first: list[int],
    last: list[int],
) -> int:
    """Number of placements of the positives. Positive i only sits between
    ``first[i]`` and ``last[i]``, so this costs one mask test per index of
    each window."""
    # ways[x]: placements of the positives so far whose latest one sits at an
    # index at most lo + x. Before the first positive there is one (empty)
    # placement, whatever the index.
    lo = first[0] - 1
    ways = [1]
    for pmask, a, b in zip(pos_masks, first, last):
        placed = []
        count = 0
        end = len(ways) - 1
        for j in range(a, b + 1):
            if not pmask & ~seq_masks[j]:
                x = j - 1 - lo
                count += ways[x] if x < end else ways[end]
            placed.append(count)
        lo = a
        ways = placed
    return ways[-1]


def positive_embeddings(pplus: NegPattern, s: Sequence) -> list[Embedding]:
    """Every embedding of a positive pattern, in lexicographic order.

    ``pplus`` must carry no negative constraints; use
    :func:`negseq.model.positive_part` first if it does.
    """
    if any(negative.itemset for negative in pplus.negatives):
        raise ValueError("positive_embeddings expects a pattern without negatives")
    return list(_iter_embeddings(pplus.positive_masks, s.masks))


def gap_union(s: Sequence, e: Embedding, slot: int) -> Itemset:
    """Union of the itemsets strictly between positions e[slot] and e[slot+1].

    ``slot`` is 1-based and must satisfy 1 <= slot < len(e). Adjacent
    positions yield the empty itemset.
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

# The tests, strongest first, each with the combos (as bits of COMBOS order)
# that a gap passing it passes: it passes every test after it as well.
_STRONGEST_FIRST = ((4, 0b1111), (1, 0b0011), (2, 0b0010))


def _ruled_out(qmask: int, test: int, smask: int) -> int:
    """The items of ``qmask`` that gap itemset ``smask`` rules out under
    ``test``. A gap fails its slot once its itemsets rule out all of
    ``qmask``: strict-partial (1) looks at the union, soft-partial (2) needs
    one itemset that includes ``qmask``, total (4) one that meets it."""
    if test == 1:
        return qmask & smask
    if test == 2:
        return 0 if qmask & ~smask else qmask
    return qmask if qmask & smask else 0


def _gap_fails(qmask: int, test: int, gaps: tuple[int, ...]) -> bool:
    """Do the gap itemsets rule out all of ``qmask`` under ``test``?"""
    covered = 0
    for g in gaps:
        covered |= _ruled_out(qmask, test, g)
        if covered == qmask:
            return True
    return False


def _slot_pass4(qmask: int, mode: NegMode | None, gaps: tuple[int, ...]) -> int:
    """4-bit outcome of one negative slot, bit c for the combo COMBOS[c].

    A slot with a pinned mode passes for all four combos or for none.
    """
    if mode is not None:
        return 0 if _gap_fails(qmask, _MODE_TEST[mode], gaps) else 0b1111
    for test, combos in _STRONGEST_FIRST:
        if not _gap_fails(qmask, test, gaps):
            return combos
    return 0


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
        if positive.mask & ~seq_masks[position - 1]:
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
    regardless of the arguments.
    """
    seq_masks = s.masks
    _require_positive_embedding(e, p, seq_masks)
    combo = COMBOS.index((embedding, nonincl))
    index = [position - 1 for position in e]
    return _embedding_pass4(p.constrained_slots, seq_masks, index) >> combo & 1 == 1


def _embedding_pass4(
    slots: tuple[tuple[int, int, NegMode | None], ...],
    seq_masks: tuple[int, ...],
    index: list[int],
) -> int:
    """4-bit outcome of every constrained slot for one embedding, given as
    0-based itemset indices."""
    passed = 0b1111
    for i, qmask, mode in slots:
        passed &= _slot_pass4(qmask, mode, seq_masks[index[i] + 1 : index[i + 1]])
        if not passed:
            break
    return passed


# --- the linear-time core ---------------------------------------------------
#
# Every slot test is monotone in the gap: a gap that fails a slot makes every
# gap that contains it fail too. So no decision needs the embeddings one by
# one. With k positives and n itemsets, each pass below is O(k*n) mask
# operations, and positive i only ever sits between first[i] and last[i], the
# 0-based indices of the greedy earliest and latest placements.


def _earliest(
    pos_masks: tuple[int, ...], seq_masks: tuple[int, ...], j: int = 0
) -> list[int] | None:
    """Greedy earliest placement of each positive from index ``j`` on: the
    lexicographically first embedding, as 0-based indices; None when the
    positives do not embed there."""
    n = len(seq_masks)
    index = []
    for pmask in pos_masks:
        while j < n and pmask & ~seq_masks[j]:
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
        while pmask & ~seq_masks[j]:
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


def _passing_table(
    pos_masks: tuple[int, ...],
    tests: list[tuple[int, int] | None],
    seq_masks: tuple[int, ...],
    first: list[int],
    last: list[int],
) -> list[list[int]] | None:
    """Per positive, the ascending indices where it can sit and still
    complete to a placement of itself and the positives after it whose slots
    all pass; None when the first positive has none, that is, when no
    embedding passes.

    Built backward, one level per positive. An index needs only the earliest
    entry of the next level after it, because that gives the shortest gap.
    """
    pmask = pos_masks[-1]
    level = [j for j in range(first[-1], last[-1] + 1) if not pmask & ~seq_masks[j]]
    table = [level]
    for i in range(len(pos_masks) - 2, -1, -1):
        pmask = pos_masks[i]
        if tests[i] is None:
            found = [j for j in range(first[i], level[-1]) if not pmask & ~seq_masks[j]]
        else:
            qmask, test = tests[i]
            found = []
            r = len(level) - 1  # level[r] is the earliest entry after j
            covered = 0  # what the gap from j to level[r] rules out of qmask
            for j in range(level[r] - 1, first[i] - 1, -1):
                if covered != qmask and not pmask & ~seq_masks[j]:
                    found.append(j)
                if r and level[r - 1] == j:
                    r -= 1
                    covered = 0
                elif covered != qmask:
                    covered |= _ruled_out(qmask, test, seq_masks[j])
            found.reverse()
        if not found:
            return None
        table.append(found)
        level = found
    table.reverse()
    return table


def _first_passing(
    pos_masks: tuple[int, ...],
    tests: list[tuple[int, int] | None],
    seq_masks: tuple[int, ...],
    first: list[int],
    last: list[int],
) -> Embedding | None:
    """The lexicographically first embedding whose slots all pass, if any."""
    table = _passing_table(pos_masks, tests, seq_masks, first, last)
    if table is None:
        return None
    # The earliest entry of the next level after a table entry always passes
    # the slot between them: that is how the entry got into the table.
    index = [table[0][0]]
    for level in table[1:]:
        index.append(level[bisect_right(level, index[-1])])
    return tuple(j + 1 for j in index)


def _first_failing(
    pos_masks: tuple[int, ...],
    tests: list[tuple[int, int] | None],
    seq_masks: tuple[int, ...],
    first: list[int],
    last: list[int],
) -> Embedding | None:
    """The lexicographically first embedding that fails a slot, if any."""
    k = len(pos_masks)
    # failing[i]: ascending indices where positive i can sit and still
    # complete to a placement of itself and the positives after it that
    # fails a slot. The widest gap of slot i from index j ends at
    # last[i + 1], and fails if any gap from j does.
    failing: list[list[int]] = [[]] * k
    for i in range(k - 2, -1, -1):
        pmask = pos_masks[i]
        later = failing[i + 1][-1] if failing[i + 1] else -1
        if tests[i] is None:
            found = [j for j in range(first[i], later) if not pmask & ~seq_masks[j]]
        else:
            qmask, test = tests[i]
            found = []
            covered = 0
            for j in range(last[i + 1] - 1, first[i] - 1, -1):
                if (covered == qmask or j < later) and not pmask & ~seq_masks[j]:
                    found.append(j)
                if covered != qmask:
                    covered |= _ruled_out(qmask, test, seq_masks[j])
            found.reverse()
        failing[i] = found
    if not failing[0]:
        return None
    index = [failing[0][0]]
    failed = False  # whether a slot already fails between the chosen indices
    for i in range(k - 1):
        a = index[-1]
        pmask = pos_masks[i + 1]
        j = a + 1
        if failed:
            while pmask & ~seq_masks[j]:
                j += 1
            index.append(j)
            continue
        # The next index is either the first entry of failing[i + 1] after
        # a, or an earlier (or equal) index whose gap from a fails slot i,
        # after which any completion fails.
        level = failing[i + 1]
        x = bisect_right(level, a)
        stop = level[x] if x < len(level) else last[i + 1]
        if tests[i] is not None:
            qmask, test = tests[i]
            covered = 0
            while j <= stop:
                if covered == qmask and not pmask & ~seq_masks[j]:
                    failed = True
                    break
                covered |= _ruled_out(qmask, test, seq_masks[j])
                j += 1
        index.append(j if failed else level[x])
    return tuple(j + 1 for j in index)


# Relation bit t is THETAS[t]: strong occurrence under COMBOS[c] is bit 2c,
# weak is bit 2c+1. _SPREAD maps a 4-bit combo set to its strong bits.
_SPREAD = tuple(sum(1 << 2 * c for c in range(4) if x >> c & 1) for x in range(16))
_COMBO_SET = {bits: x for x, bits in enumerate(_SPREAD)}
_STRONG_BITS = _SPREAD[0b1111]
_ALL_BITS = (1 << len(THETAS)) - 1

# The weak passes, weakest test first, with the combos each one decides. An
# embedding that passes a test passes every test before it.
_WEAK_PASSES = ((2, 0b0010), (1, 0b0001), (4, 0b1100))


def _decide(p: NegPattern, seq_masks: tuple[int, ...], wanted: int) -> int:
    """Containment under each relation whose bit is set in ``wanted``.

    Strong: every embedding passes a slot iff the widest gap any embedding
    gives it passes, from the earliest placement of the positive before the
    slot to the latest placement of the one after. Weak: the lexicographically
    first embedding settles the combos it passes; each remaining test gets
    one backward feasibility pass. Returns the relation bits, 0 outside
    ``wanted``.
    """
    pos_masks = p.positive_masks
    first = _earliest(pos_masks, seq_masks)
    if first is None:
        return 0
    if not p.constrained_slots:
        return wanted
    return _decide_placed(p, seq_masks, wanted, first, _latest(pos_masks, seq_masks))


def _decide_placed(
    p: NegPattern,
    seq_masks: tuple[int, ...],
    wanted: int,
    first: list[int],
    last: list[int],
) -> int:
    """The slot part of :func:`_decide`, for a pattern with a constrained
    slot whose positives embed, given their earliest and latest placements.
    The miner calls it with placements cached from the positive part."""
    slots = p.constrained_slots
    strong = _COMBO_SET[wanted & _STRONG_BITS]
    for i, qmask, mode in slots:
        if not strong:
            break
        strong &= _slot_pass4(qmask, mode, seq_masks[first[i] + 1 : last[i + 1]])
    weak = _COMBO_SET[wanted >> 1 & _STRONG_BITS]
    found = weak and weak & _embedding_pass4(slots, seq_masks, first)
    for test, combos in _WEAK_PASSES:
        if weak & combos & ~found:
            tests = _slot_tests(p, test)
            if _passing_table(p.positive_masks, tests, seq_masks, first, last) is None:
                break  # no embedding passes the stronger tests either
            found |= weak & combos
    return _SPREAD[strong] | _SPREAD[found] << 1


@dataclass(frozen=True, slots=True)
class MatchReport:
    """Outcome of one containment test.

    ``witness`` is the lexicographically first positive embedding that
    satisfies the negatives under the relation's (embedding, non-inclusion)
    combo, and ``violator`` the first that does not; each is None when there
    is no such embedding. So a weak relation holds iff ``witness`` is set,
    and a strong one iff the count is positive and ``violator`` is None. The
    embedding count is exact.
    """

    contained: bool
    witness: Embedding | None
    violator: Embedding | None
    total_positive_embeddings: int


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
        return MatchReport(False, None, None, 0)
    last = _latest(pos_masks, seq_masks)
    combo = theta.combo_index
    tests = _slot_tests(p, _COMBO_TEST[combo])
    lexfirst = tuple(j + 1 for j in first)
    if _embedding_pass4(p.constrained_slots, seq_masks, first) >> combo & 1:
        witness = lexfirst
        violator = _first_failing(pos_masks, tests, seq_masks, first, last)
    else:
        witness = _first_passing(pos_masks, tests, seq_masks, first, last)
        violator = lexfirst
    if theta.occurrence is Occurrence.WEAK:
        contained = witness is not None
    else:
        contained = violator is None
    count = _count_embeddings(pos_masks, seq_masks, first, last)
    return MatchReport(contained, witness, violator, count)


def is_contained(p: NegPattern, s: Sequence, theta: Theta) -> bool:
    """Boolean form of :func:`contains`, without the reporting."""
    return _decide(p, s.masks, 1 << theta.index) != 0


def support(p: NegPattern, db: SequenceDatabase, theta: Theta) -> int:
    """Number of database sequences that contain ``p`` under ``theta``."""
    wanted = 1 << theta.index
    count = 0
    for s in db.sequences:
        if _decide(p, s.masks, wanted):
            count += 1
    return count


def theta_bits(p: NegPattern, s: Sequence) -> int:
    """Containment under all eight relations at once.

    Bit t is set iff ``p`` is contained in ``s`` under ``THETAS[t]``. Used by
    the verification scans and the all-thetas reports.
    """
    return _decide(p, s.masks, _ALL_BITS)


def weak_strong_support(
    p: NegPattern,
    db: SequenceDatabase,
    embedding: EmbeddingKind,
    nonincl: NonInclusion,
) -> tuple[int, int]:
    """(weak, strong) supports in one database pass."""
    strong_bit = 1 << 2 * COMBOS.index((embedding, nonincl))
    weak_bit = strong_bit << 1
    weak = 0
    strong = 0
    for s in db.sequences:
        bits = _decide(p, s.masks, weak_bit | strong_bit)
        if bits & weak_bit:
            weak += 1
        if bits & strong_bit:
            strong += 1
    return weak, strong


def all_theta_supports(p: NegPattern, db: SequenceDatabase) -> tuple[int, ...]:
    """Supports under all eight relations, in canonical THETAS order."""
    counts = [0] * len(THETAS)
    for s in db.sequences:
        bits = theta_bits(p, s)
        for t in range(len(THETAS)):
            if (bits >> t) & 1:
                counts[t] += 1
    return tuple(counts)
