"""Partial orders on patterns, dominance between containment relations, and
the empirical verification harnesses.

The dominance table is the known result, derived from the product of two
chains. The scans run on a containment grid and are falsification harnesses
over finite pattern/sequence spaces. A scan can corroborate a dominance or
anti-monotonicity claim on a space and can refute one with a concrete,
re-checkable counterexample, never prove it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache, partial, reduce
from itertools import chain, combinations, repeat
from math import ceil, log
from operator import eq, or_
from typing import Callable, Iterable, Iterator, Sequence as SequenceABC

from .model import (
    Dictionary,
    EmbeddingKind,
    Itemset,
    NegPattern,
    Negative,
    NegseqError,
    NonInclusion,
    Occurrence,
    Sequence,
    SequenceDatabase,
    Theta,
    THETAS,
    positive_part,
    singleton_negatives_only,
)
from .matching import (
    NotAPositiveEmbeddingError,
    all_theta_supports,
    check_embedding,
    is_contained,  # only for the bench tracer, which patches orders.is_contained
    non_inclusion,
    positive_embeddings,
    theta_bits,
    theta_masks,
)
from .textio import parse_pattern, parse_sequence


class EmptySpaceError(NegseqError):
    """A scan was given an empty pattern or sequence space."""


class OrderKind(Enum):
    """The three strict partial orders on negative patterns."""

    EMBED_INCL = "embed-incl"
    PREFIX_INCL = "prefix-incl"
    NEG_EXT = "neg-ext"


def _neg_fits(q: int, q_other: int, nonincl: NonInclusion) -> bool:
    # Under total non-inclusion a negative may grow (q subset of q'); under
    # partial non-inclusion the direction reverses.
    if nonincl is NonInclusion.TOTAL:
        return q & ~q_other == 0
    return q_other & ~q == 0


def _neg_masks(p: NegPattern) -> tuple[int, ...]:
    # The orders compare constraint itemsets only; slot modes have no defined
    # order theory and are ignored.
    return tuple([negative.itemset.mask for negative in p.negatives])


def _positives_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return len(a) <= len(b) and all(x & ~y == 0 for x, y in zip(a, b))


def embed_incl(
    p: NegPattern, p2: NegPattern, nonincl: NonInclusion = NonInclusion.TOTAL
) -> bool:
    """General strict inclusion: positives of ``p`` map to a subsequence of the
    positives of ``p2`` and each negative fits the union of the slots its gap
    spans; equal-size patterns must differ somewhere."""
    a, b = p.positive_masks, p2.positive_masks
    q, q2 = _neg_masks(p), _neg_masks(p2)
    k, k2 = len(a), len(b)
    if k > k2 or (a == b and q == q2):
        return False

    # One forward pass over the positives of p: ``places`` holds, as bits,
    # the positives of p2 that can hold positive i, within the window
    # u <= k2 - k + i that leaves room for the rest. Positive i may sit on u
    # after a place of positive i - 1 whose span to u fits negative i - 1.
    # That test is monotone in the span's union, so one earlier place
    # decides: the earliest under total non-inclusion (the widest union),
    # the latest under partial (the narrowest). ``union`` is the union of
    # the slots from that place to u, None while there is no such place.
    total = nonincl is NonInclusion.TOTAL
    places = sum(1 << u for u in range(k2 - k + 1) if not a[0] & ~b[u])
    for i in range(1, k):
        before, places, union = places, 0, None
        for u in range(i, k2 - k + i + 1):
            if before >> (u - 1) & 1 and (union is None or not total):
                union = 0
            if union is not None:
                union |= q2[u - 1]
                if not a[i] & ~b[u] and _neg_fits(q[i - 1], union, nonincl):
                    places |= 1 << u
    return places != 0


def prefix_incl(
    p: NegPattern, p2: NegPattern, nonincl: NonInclusion = NonInclusion.TOTAL
) -> bool:
    """Positionwise inclusion; growth happens at the end (new positives) or
    inside itemsets. Equal-size patterns must differ in the last positive or
    in some negative."""
    a, b = p.positive_masks, p2.positive_masks
    if not _positives_prefix(a, b):
        return False
    q, q2 = _neg_masks(p), _neg_masks(p2)
    if not all(_neg_fits(x, y, nonincl) for x, y in zip(q, q2)):
        return False
    return len(a) < len(b) or a[-1] != b[-1] or q != q2


def neg_ext(
    p: NegPattern, p2: NegPattern, nonincl: NonInclusion = NonInclusion.TOTAL
) -> bool:
    """Identical positives; some negative strictly grows (shrinks under the
    partial variant). That is prefix inclusion with equal positives."""
    return eq(p.positive_masks, p2.positive_masks) and prefix_incl(p, p2, nonincl)


_ORDER_FUNCS = {
    OrderKind.EMBED_INCL: embed_incl,
    OrderKind.PREFIX_INCL: prefix_incl,
    OrderKind.NEG_EXT: neg_ext,
}


def _union(bitsets: Iterable[int]) -> int:
    return reduce(or_, bitsets, 0)


def _set_bits(x: int, ids: list[int]) -> list[int]:
    """``ids[j]`` for the set bits j of ``x >= 0``, ascending. Taking the ids
    from one list shares each int object among the pairs that hold it."""
    bits, found = bin(x)[:1:-1], []
    j = bits.find("1")
    while j >= 0:
        found.append(ids[j])
        j = bits.find("1", j + 1)
    return found


def _comparable(
    patterns: list[NegPattern], order: OrderKind, nonincl: NonInclusion
) -> tuple[tuple[int, int], ...]:
    """Every pair ``(i, i2)`` with ``pattern_order(order, patterns[i],
    patterns[i2], nonincl)``, in index order.

    The patterns are indexed once as big-int bitsets over pattern indices,
    and the partners of a pattern are a chain of ANDs and ORs of those sets
    along its positives, minus the patterns that the order's equality clause
    excludes. :func:`embed_incl`, :func:`prefix_incl` and :func:`neg_ext`
    define the orders and are the tests' all-pairs oracle for this index.
    """
    embed, exact = order is OrderKind.EMBED_INCL, order is OrderKind.NEG_EXT
    total = nonincl is NonInclusion.TOTAL
    keys = [(p.positive_masks, _neg_masks(p)) for p in patterns]
    # at[u][m]: the patterns whose positive u is m. spans[s, u][m]: the
    # patterns whose slots s..u-1 union to m. same[key]: the patterns that a
    # pattern of that key does not precede although the rest of the order
    # holds: equal masks under embed-incl; equal length, last positive and
    # negatives otherwise.
    at: list[dict[int, int]] = []
    spans: dict[tuple[int, int], dict[int, int]] = {}
    same: dict[tuple, int] = {}

    def same_key(b: tuple[int, ...], q2: tuple[int, ...]) -> tuple:
        return (b, q2) if embed else (len(b), b[-1], q2)

    for i, (b, q2) in enumerate(keys):
        bit = 1 << i
        for u, m in enumerate(b):
            if u == len(at):
                at.append({})
            at[u][m] = at[u].get(m, 0) | bit
        for s in range(len(q2)):
            union = 0
            for u in range(s + 1, len(b)):
                union |= q2[u - 1]
                cell = spans.setdefault((s, u), {})
                cell[union] = cell.get(union, 0) | bit
        key = same_key(b, q2)
        same[key] = same.get(key, 0) | bit

    @cache
    def positive(u: int, v: int) -> int:
        # The patterns whose positive u includes v (equals v, for neg-ext).
        if exact:
            return at[u].get(v, 0)
        return _union(bits for m, bits in at[u].items() if not v & ~m)

    @cache
    def fits(s: int, u: int, v: int) -> int:
        # The patterns whose slots s..u-1 union to a mask that negative v
        # fits: a superset of v under total non-inclusion, a subset under
        # partial.
        cells = spans[s, u].items()
        if total:
            return _union(bits for m, bits in cells if not v & ~m)
        return _union(bits for m, bits in cells if not m & ~v)

    # reach(a, q)[u]: the patterns where positives a sit with the last on u
    # and each negative of q fits the slots its gap spans. Positive i sits
    # on u = i under prefix-incl and neg-ext, and under embed-incl on any u
    # after some place s of positive i - 1 whose span to u fits: the
    # existence of such a place is all that embed_incl's earliest or latest
    # choice decides.
    width = len(at)

    def reach(a: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        row = tuple(positive(u, a[0]) if embed or u == 0 else 0 for u in range(width))
        for i in range(1, len(a)):
            before, v, w = row, a[i], q[i - 1]
            row = tuple(
                positive(u, v)
                & _union(before[s] & fits(s, u, w) for s in range(u) if before[s])
                if embed or u == i
                else 0
                for u in range(width)
            )
        return row

    ids = list(range(len(keys)))

    def partners(a: tuple[int, ...], q: tuple[int, ...]) -> list[int]:
        x = _union(reach(a, q)) & ~same[same_key(a, q)]
        if exact and len(a) < width:
            # Neg-ext needs equal positives: none after the last of a.
            x &= ~_union(at[len(a)].values())
        return _set_bits(x, ids)

    return tuple(
        chain.from_iterable(zip(repeat(i), partners(*key)) for i, key in zip(ids, keys))
    )


def pattern_order(
    kind: OrderKind,
    p: NegPattern,
    p2: NegPattern,
    nonincl: NonInclusion = NonInclusion.TOTAL,
) -> bool:
    return _ORDER_FUNCS[kind](p, p2, nonincl)


class Dominance(Enum):
    SELF = "."
    DOMINATES = ">"
    NOT_DOMINATES = "-"


# The known dominance order is the product of two chains. On occurrence,
# strong dominates weak. On the slot test, total dominates strict-partial,
# which dominates soft-partial; soft and strict total are the same test.
_OCCURRENCE_RANK = {Occurrence.WEAK: 0, Occurrence.STRONG: 1}
_SLOT_RANK = {
    (EmbeddingKind.SOFT, NonInclusion.PARTIAL): 0,
    (EmbeddingKind.STRICT, NonInclusion.PARTIAL): 1,
    (EmbeddingKind.SOFT, NonInclusion.TOTAL): 2,
    (EmbeddingKind.STRICT, NonInclusion.TOTAL): 2,
}


def _rank(theta: Theta) -> tuple[int, int]:
    return (
        _OCCURRENCE_RANK[theta.occurrence],
        _SLOT_RANK[(theta.embedding, theta.non_inclusion)],
    )


# Relations of equal rank on both chains are equivalent: 2 x 3 classes.
_DOMINANCE_CLASSES = len({_rank(theta) for theta in THETAS})


@dataclass(frozen=True)
class DominanceTable:
    entries: tuple[tuple[Dominance, ...], ...]

    def entry(self, left: Theta, right: Theta) -> Dominance:
        return self.entries[left.index][right.index]

    def dominates(self, left: Theta, right: Theta) -> bool:
        return self.entry(left, right) in (Dominance.DOMINATES, Dominance.SELF)


def known_dominance() -> DominanceTable:
    """The complete 8x8 dominance table: a relation dominates another when it
    ranks at least as high on both chains. Rows and columns follow THETAS."""

    def cell(left: Theta, right: Theta) -> Dominance:
        if left == right:
            return Dominance.SELF
        above = all(a >= b for a, b in zip(_rank(left), _rank(right)))
        return Dominance.DOMINATES if above else Dominance.NOT_DOMINATES

    return DominanceTable(
        tuple(tuple(cell(left, right) for right in THETAS) for left in THETAS)
    )


@dataclass(frozen=True)
class Counterexample:
    """A concrete refutation; ``pattern2`` is present for order-based scans."""

    pattern: NegPattern
    pattern2: NegPattern | None
    sequence: Sequence


@dataclass(frozen=True)
class Verdict:
    """Outcome of a scan. When ``holds`` is false the counterexample can be
    re-checked directly with the matcher."""

    holds: bool
    counterexample: Counterexample | None
    checked_pairs: int


def equivalence_classes(
    thetas: SequenceABC[Theta],
    patterns: Iterable[NegPattern],
    sequences: Iterable[Sequence],
) -> tuple[tuple[Theta, ...], ...]:
    """Partition of ``thetas`` under mutual empirical dominance on the space.

    Classes are ordered by their first member in canonical order. The
    partition can only be as fine as the space allows: relations without a
    separating witness in the space land in the same class.
    """
    return ContainmentGrid(patterns, sequences).equivalence_partition(thetas)


class ContainmentGrid:
    """Containment bits for every (pattern, sequence) pair of a space.

    For each pattern and relation the grid keeps one bitmask over the
    sequences' end separators, so every scan is a few integer operations per
    pattern, which keeps the verification suites well inside their time
    budgets. The vertical engine (:func:`~negseq.matching.theta_masks`)
    builds the masks and names the sequence of each end separator.
    """

    def __init__(self, patterns: Iterable[NegPattern], sequences: Iterable[Sequence]):
        self.patterns, self.sequences = list(patterns), list(sequences)
        if not self.patterns or not self.sequences:
            raise EmptySpaceError("pattern and sequence spaces must be non-empty")
        self._contained, self._sequence_of = theta_masks(self.patterns, self.sequences)
        self._n_seq = len(self.sequences)
        # Comparable pattern index pairs, per order and order variant.
        self._comparable: dict[tuple[OrderKind, NonInclusion], tuple] = {}

    @property
    def pairs(self) -> int:
        return len(self.patterns) * self._n_seq

    def _first_violation(
        self, cases: Iterable[tuple[int, int, NegPattern, NegPattern | None]]
    ) -> Verdict:
        # Each case (a, b, p, p2) is checked over every sequence: the first
        # case whose mask a holds a sequence that mask b lacks, and the
        # lowest such sequence, give the counterexample.
        index = -1
        for index, (a, b, p, p2) in enumerate(cases):
            bad = a & ~b
            if bad:
                j = self._sequence_of[(bad & -bad).bit_length() - 1]
                return Verdict(
                    False,
                    Counterexample(p, p2, self.sequences[j]),
                    index * self._n_seq + j + 1,
                )
        return Verdict(True, None, (index + 1) * self._n_seq)

    def dominance(self, theta: Theta, theta2: Theta) -> Verdict:
        """Search for a pair contained under ``theta`` but not under
        ``theta2``; the first counterexample in pattern-major order is
        reported."""
        t, t2 = theta.index, theta2.index
        return self._first_violation(
            (row[t], row[t2], p, None) for p, row in zip(self.patterns, self._contained)
        )

    def equivalence_partition(
        self, thetas: SequenceABC[Theta] = THETAS
    ) -> tuple[tuple[Theta, ...], ...]:
        # Two relations dominate each other on the space iff they contain the
        # same sequences for every pattern, that is, iff their columns are equal.
        columns = list(zip(*self._contained))
        classes: dict[tuple[int, ...], list[Theta]] = {}
        for theta in sorted(thetas, key=lambda t: t.index):
            classes.setdefault(columns[theta.index], []).append(theta)
        return tuple(tuple(cls) for cls in classes.values())

    def comparable_pairs(
        self, order: OrderKind, order_nonincl: NonInclusion = NonInclusion.TOTAL
    ) -> tuple[tuple[int, int], ...]:
        """Every pattern index pair ``(i, i2)`` with ``patterns[i]`` below
        ``patterns[i2]`` in the order, in index order: the tuple that trying
        every pair with :func:`pattern_order` gives. Built once per order
        and variant from bitset indexes over the patterns, per positive
        position and per span of slots (see :func:`_comparable`); the
        per-pair functions are its oracle in the tests."""
        key = (order, order_nonincl)
        if key not in self._comparable:
            self._comparable[key] = _comparable(self.patterns, order, order_nonincl)
        return self._comparable[key]

    def anti_monotonicity(
        self,
        theta: Theta,
        order: OrderKind,
        order_nonincl: NonInclusion = NonInclusion.TOTAL,
    ) -> Verdict:
        """Search for a triple p < p', s with p' contained but p not contained.

        ``order_nonincl`` selects the total or reversed (partial) variant of
        the order; it is independent of ``theta``.
        """
        t, rows, pats = theta.index, self._contained, self.patterns
        return self._first_violation(
            (rows[i2][t], rows[i][t], pats[i], pats[i2])
            for i, i2 in self.comparable_pairs(order, order_nonincl)
        )


# ---------------------------------------------------------------------------
# Default verification spaces
# ---------------------------------------------------------------------------

# Patterns and sequences that witness every known non-dominance and every
# anti-monotonicity failure; they are listed first so scans rediscover them
# deterministically.
_WITNESS_PATTERNS = (
    "<b !c a>",
    "<b !c d a>",
    "<a !b c>",
    "<a !b c d>",
    "<a !b (c d)>",
    "<a !(b c) d>",
    "<a !(b d) c>",
)

_WITNESS_SEQUENCES = (
    "b e d c a",
    "a c d a b c",
    "a (c d) a b c",
    "a b d",
    "a c b c",
    "a b c d",
    "a b d c d",
)


@dataclass(frozen=True)
class SpaceBounds:
    """Caps for the enumerated filler of a verification space, all at least 1."""

    alphabet: int = 3
    max_positives: int = 2
    max_itemset_size: int = 2
    max_neg_size: int = 2
    max_sequence_len: int = 3
    max_sequence_itemset: int = 2

    def __post_init__(self):
        if not 1 <= self.alphabet <= 6:
            raise ValueError("fill alphabet must use between 1 and 6 items")
        if any(getattr(self, f.name) < 1 for f in fields(self)):
            raise ValueError("fill size bounds must be at least 1")


@dataclass(frozen=True)
class VerificationSpace:
    patterns: tuple[NegPattern, ...]
    sequences: tuple[Sequence, ...]
    dictionary: Dictionary


def enumerate_sequences(
    alphabet: tuple[int, ...], max_len: int, max_itemset_size: int
) -> Iterator[Sequence]:
    """Every sequence up to ``max_len`` itemsets of bounded size, exactly once,
    in depth-first prefix order."""
    items = sorted(alphabet)
    itemsets = [
        Itemset.of(combo)
        for size in range(1, max_itemset_size + 1)
        for combo in combinations(items, size)
    ]
    # Pre-order walk on an explicit stack, so the length is not bounded by
    # the recursion limit; children are pushed last first.
    stack: list[tuple[Itemset, ...]] = [()]
    while stack:
        prefix = stack.pop()
        if prefix:
            yield Sequence(prefix)
        if len(prefix) < max_len:
            stack.extend(prefix + (itemset,) for itemset in reversed(itemsets))


def default_space(
    bounds: SpaceBounds = SpaceBounds(), *, singleton_negatives: bool = False
) -> VerificationSpace:
    """The default finite space: the known witnesses first, then a systematic
    filler within ``bounds``. With ``singleton_negatives`` every pattern whose
    negatives exceed one item is dropped (the witnesses included)."""
    # The miner's pattern walk loads here, so the lemma suite never loads it.
    from .mining import PatternBounds, enumerate_patterns

    dictionary = Dictionary("abcdef")
    alphabet = tuple(range(bounds.alphabet))

    small = tuple(range(min(2, bounds.alphabet)))
    fill = PatternBounds(
        bounds.max_positives, bounds.max_itemset_size, bounds.max_neg_size, alphabet
    )
    # dict.fromkeys drops repeats and keeps first-seen order. The last source
    # adds longer patterns with singleton itemsets, for order coverage at 3
    # steps.
    patterns = dict.fromkeys(
        p
        for p in chain(
            (parse_pattern(text, dictionary) for text in _WITNESS_PATTERNS),
            enumerate_patterns(fill),
            enumerate_patterns(PatternBounds(3, 1, 1, small)),
        )
        if not singleton_negatives or singleton_negatives_only(p)
    )
    sequences = dict.fromkeys(
        chain(
            (parse_sequence(text, dictionary) for text in _WITNESS_SEQUENCES),
            enumerate_sequences(
                alphabet, bounds.max_sequence_len, bounds.max_sequence_itemset
            ),
            enumerate_sequences(small, 5, 1),
        )
    )
    return VerificationSpace(tuple(patterns), tuple(sequences), dictionary)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominanceCheck:
    left: Theta
    right: Theta
    expected: Dominance
    verdict: Verdict

    @property
    def ok(self) -> bool:
        if self.expected is Dominance.DOMINATES:
            return self.verdict.holds
        return not self.verdict.holds


@dataclass(frozen=True)
class DominanceReport:
    checks: tuple[DominanceCheck, ...]
    pattern_count: int
    sequence_count: int

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


def verify_dominance(space: VerificationSpace | None = None) -> DominanceReport:
    """Scan every off-diagonal entry of the known table over the space."""
    if space is None:
        space = default_space()
    grid = ContainmentGrid(space.patterns, space.sequences)
    table = known_dominance()
    checks = tuple(
        DominanceCheck(
            left, right, table.entry(left, right), grid.dominance(left, right)
        )
        for left in THETAS
        for right in THETAS
        if left != right
    )
    return DominanceReport(checks, len(space.patterns), len(space.sequences))


@dataclass(frozen=True)
class EquivalenceReport:
    general: tuple[tuple[Theta, ...], ...]
    singleton: tuple[tuple[Theta, ...], ...]
    expected_general: int = _DOMINANCE_CLASSES
    expected_singleton: int = 4

    @property
    def ok_general(self) -> bool:
        return len(self.general) == self.expected_general

    @property
    def ok_singleton(self) -> bool:
        return len(self.singleton) == self.expected_singleton

    @property
    def ok(self) -> bool:
        return self.ok_general and self.ok_singleton


def verify_equivalence(bounds: SpaceBounds = SpaceBounds()) -> EquivalenceReport:
    """Empirical equivalence classes on the general and singleton spaces.

    On the singleton space the partition has two classes. The original
    specification asks for four; no known result backs that count. With a
    negative of at most one item x, soft and strict embedding coincide, and
    so do partial and total non-inclusion: all four tests say that x occurs
    in no gap itemset. So only the occurrence axis separates anything. The
    report keeps the specification's count of four and flags the mismatch
    rather than papering over it.
    """
    spaces = (default_space(bounds), default_space(bounds, singleton_negatives=True))
    return EquivalenceReport(
        *(equivalence_classes(THETAS, s.patterns, s.sequences) for s in spaces)
    )


@dataclass(frozen=True)
class AntiMonotonicityCheck:
    order: OrderKind
    theta: Theta
    expected_holds: bool
    verdict: Verdict

    @property
    def ok(self) -> bool:
        return self.verdict.holds == self.expected_holds


@dataclass(frozen=True)
class AntiMonotonicityReport:
    checks: tuple[AntiMonotonicityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


def _expected_anti_monotone(order: OrderKind, theta: Theta) -> bool:
    # Known results: negative extension preserves the relations under which
    # the miner cuts negatives; nothing is anti-monotonic under general
    # inclusion; prefix inclusion preserves weak-total containment only.
    if order is OrderKind.NEG_EXT:
        from .mining import cuts_negatives

        return cuts_negatives(theta)
    if order is OrderKind.EMBED_INCL or theta.non_inclusion is NonInclusion.PARTIAL:
        return False
    return theta.occurrence is Occurrence.WEAK


def verify_anti_monotonicity(
    space: VerificationSpace | None = None,
) -> AntiMonotonicityReport:
    """Scan all (order, theta) combinations against the known outcomes."""
    if space is None:
        space = default_space()
    grid = ContainmentGrid(space.patterns, space.sequences)
    checks = tuple(
        AntiMonotonicityCheck(
            order, theta, _expected_anti_monotone(order, theta),
            grid.anti_monotonicity(theta, order),
        )
        for order in OrderKind
        for theta in THETAS
    )
    return AntiMonotonicityReport(checks)


# ---------------------------------------------------------------------------
# Randomized invariant harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantCheck:
    name: str
    draws: int
    failures: int
    example: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _below(rng: random.Random, n: int) -> int:
    # A uniform int in [0, n), drawn as CPython's _randbelow_with_getrandbits
    # draws it; rng.randint(a, b) is a + _below(rng, b - a + 1).
    if n <= 0:
        raise ValueError(f"empty range below {n}")
    bits = n.bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def _sample_mask(rng: random.Random, n: int, k: int) -> int:
    # The bitmask of rng.sample(range(n), k), drawn as CPython draws it: by
    # swaps in a pool of n when that list is smaller than a set of k, else by
    # redrawing any index already taken. Up to six items, the pool path is a
    # walk of _sample_tree.
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    if n <= _TREE_ITEMS:
        return _walk(_sample_tree(n, k), rng).mask
    setsize = 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
    mask = 0
    if n <= setsize:
        pool = list(range(n))
        for i in range(k):
            j = _below(rng, n - i)
            mask |= 1 << pool[j]
            pool[j] = pool[n - i - 1]
    else:
        for _ in range(k):
            j = _below(rng, n)
            while mask >> j & 1:
                j = _below(rng, n)
            mask |= 1 << j
    return mask


# Draws over at most six items replay on trees, so they build no pool and
# no itemset. A node is a list: the bits it draws, then the next node for
# each value of those bits. A value past the range leads back to the node
# itself, which is _below's redraw. The leaves are shared itemsets, one per
# mask below 64. Each tree is built once and never changed; with six items
# there are at most a few hundred trees of at most a few thousand nodes.
_TREE_ITEMS = 6
_SMALL_ITEMSETS = tuple(Itemset(mask) for mask in range(1 << _TREE_ITEMS))


def _draw_node(m: int, kid: Callable[[int], list | Itemset]) -> list:
    # A draw below m, as _below draws it: kid(j) for each j < m.
    bits = m.bit_length()
    node: list = [bits]
    node.extend([kid(j) if j < m else node for j in range(1 << bits)])
    return node


def _pool_node(pool: tuple[int, ...], k: int, mask: int) -> list | Itemset:
    # The last k draws of _sample_mask's pool path, from ``pool`` on.
    if not k:
        return _SMALL_ITEMSETS[mask]
    last = len(pool) - 1

    def kid(j: int) -> list | Itemset:
        rest = list(pool)
        rest[j] = rest[last]
        return _pool_node(tuple(rest[:last]), k - 1, mask | 1 << pool[j])

    return _draw_node(last + 1, kid)


@cache
def _sample_tree(n: int, k: int) -> list | Itemset:
    # rng.sample(range(n), k), for 0 <= k <= n <= 6.
    return _pool_node(tuple(range(n)), k, 0)


def _walk(node: list | Itemset, rng: random.Random) -> Itemset:
    # The leaf that the draws of rng reach from node.
    getrandbits = rng.getrandbits
    while node.__class__ is list:
        node = node[1 + getrandbits(node[0])]
    return node


@cache
def _itemset_draw(n: int, low: int, high: int) -> Callable[[random.Random], Itemset]:
    # The draw of the itemset of rng.sample(range(n), rng.randint(low, high)):
    # a walk of a tree where one applies, else the draws one by one. Cached,
    # as a random pattern asks for two: callers pass a few fixed bounds, so
    # the cache stays small.
    if low <= high <= n <= _TREE_ITEMS:
        tree = _draw_node(high - low + 1, lambda r: _sample_tree(n, low + r))
        return partial(_walk, tree)
    return lambda rng: Itemset(_sample_mask(rng, n, low + _below(rng, high - low + 1)))


def random_pattern(
    rng: random.Random,
    alphabet: int = 5,
    max_positives: int = 3,
    max_itemset_size: int = 2,
    max_neg_size: int = 2,
    singleton_negatives: bool = False,
) -> NegPattern:
    """A random pattern, with the draws of ``rng.randint`` and
    ``rng.sample(range(alphabet), size)`` for the number of positives and
    each itemset. They are replayed on ``rng.getrandbits``, which is faster;
    a test compares the replay with the standard library over many seeds.
    Over an alphabet of at most six items, equal itemsets are one shared
    object: every mask below 64 has one."""
    k = 1 + _below(rng, max_positives)
    positive = _itemset_draw(alphabet, 1, max_itemset_size)
    positives = tuple([positive(rng) for _ in range(k)])
    negative = _itemset_draw(alphabet, 0, 1 if singleton_negatives else max_neg_size)
    return NegPattern(positives, tuple([Negative(negative(rng)) for _ in range(k - 1)]))


def random_sequence(
    rng: random.Random,
    alphabet: int = 5,
    max_len: int = 6,
    max_itemset_size: int = 3,
) -> Sequence:
    """A random sequence, drawn as :func:`random_pattern` draws: the
    standard library's draws, replayed on ``rng.getrandbits``. Over an
    alphabet of at most six items, equal itemsets are one shared object."""
    itemset = _itemset_draw(alphabet, 1, max_itemset_size)
    return Sequence(tuple([itemset(rng) for _ in range(_below(rng, max_len + 1))]))


def verify_invariants(draws: int = 10000, seed: int = 94001) -> tuple[InvariantCheck, ...]:
    """Randomized checks of the layered implications between the relations.

    Covers: total non-inclusion implies partial; a strict embedding is a soft
    embedding; under total non-inclusion soft and strict embeddings coincide,
    likewise when every negative is a singleton; tuples accepted by the
    embedding check embed the positive part; strong containment implies weak;
    total containment implies partial; and the support inequality chain
    across the eight relations, with equality of soft and strict supports
    under total non-inclusion.

    The per-sequence core decides each relation from its own slot test, so
    these checks test the definitions, not a chain built into the answers.
    One holds by construction: both total combos apply the same slot test,
    so "total non-inclusion: soft and strict embeddings coincide" guards
    only that mapping.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    rng = random.Random(seed)
    table = known_dominance()
    names = (
        "non-inclusion: total implies partial",
        "strict embedding implies soft embedding",
        "total non-inclusion: soft and strict embeddings coincide",
        "singleton negatives: soft and strict embeddings coincide",
        "accepted tuples embed the positive part",
        "strong containment implies weak containment",
        "total containment implies partial containment",
        "containment respects the dominance table",
        "support chain across the eight relations",
    )
    failures = {name: 0 for name in names}
    examples = {name: "" for name in names}
    recent: list[Sequence] = []
    # The (left, right) index pairs where THETAS[left] is known to dominate
    # THETAS[right], in THETAS order, and for each relation the ones it
    # dominates as a bitmask.
    dominated = [
        (left.index, right.index)
        for left in THETAS
        for right in THETAS
        if table.entry(left, right) is Dominance.DOMINATES
    ]
    implied = [0] * 8
    for left, right in dominated:
        implied[left] |= 1 << right
    # Among those, the pairs that differ on one axis only: strong over weak,
    # and total over partial.
    strong_weak = [
        (left, right)
        for left, right in dominated
        if THETAS[left].combo_index == THETAS[right].combo_index
    ]
    total_partial = [
        (left, right)
        for left, right in dominated
        if THETAS[left].occurrence is THETAS[right].occurrence
        and THETAS[left].embedding is THETAS[right].embedding
    ]

    def bit_failures(bits: int) -> list[tuple[str, str]]:
        # The (check, example) failures of checks 5-7 on these relation bits.
        found = []
        for name, pairs in ((names[5], strong_weak), (names[6], total_partial)):
            for left, right in pairs:
                if (bits >> left) & 1 and not (bits >> right) & 1:
                    found.append((name, THETAS[left].spell()))
        for t in range(8):
            if (bits >> t) & 1 and bits & implied[t] != implied[t]:
                found.append((names[7], THETAS[t].spell()))
        return found

    # Checks 5-7 read nothing but theta_bits: one lookup per draw.
    failures_of_bits = [bit_failures(bits) for bits in range(1 << len(THETAS))]
    # The (soft, strict) total indices under each occurrence.
    soft_strict_total = [
        (
            occ,
            Theta(occ, EmbeddingKind.SOFT, NonInclusion.TOTAL).index,
            Theta(occ, EmbeddingKind.STRICT, NonInclusion.TOTAL).index,
        )
        for occ in Occurrence
    ]
    # Draws repeat positive parts, so one run builds each once.
    positive_parts: dict[tuple[int, ...], NegPattern] = {}
    # The 1-based positions of each mask over a sequence of at most six
    # itemsets, random_sequence's default length.
    positions = [tuple(j + 1 for j in itemset) for itemset in _SMALL_ITEMSETS]
    dictionary = Dictionary(chr(ord("a") + i) for i in range(5))
    # The two itemsets of check 1: rng.sample(range(5), rng.randint(0, 3)).
    small_itemset = _itemset_draw(5, 0, 3)
    # Enum members, read once: a member lookup costs about 0.1 us.
    strict_kind, soft_kind = EmbeddingKind.STRICT, EmbeddingKind.SOFT
    partial_incl, total_incl = NonInclusion.PARTIAL, NonInclusion.TOTAL

    def record(name: str, detail: str) -> None:
        failures[name] += 1
        if not examples[name]:
            examples[name] = detail

    for draw in range(draws):
        singleton = draw % 2 == 1
        p = random_pattern(rng, singleton_negatives=singleton)
        s = random_sequence(rng)
        recent.append(s)

        pp = small_itemset(rng)
        ii = small_itemset(rng)
        if non_inclusion(pp, ii, total_incl) and not non_inclusion(pp, ii, partial_incl):
            record(names[0], f"P={pp.items} I={ii.items}")

        pplus = positive_parts.get(p.positive_masks)
        if pplus is None:
            pplus = positive_parts[p.positive_masks] = positive_part(p)
        embeddings = positive_embeddings(pplus, s)
        for e in embeddings[:8]:
            for incl in (partial_incl, total_incl):
                strict = check_embedding(e, p, s, strict_kind, incl)
                soft = check_embedding(e, p, s, soft_kind, incl)
                if strict and not soft:
                    record(names[1], f"e={e}")
                if incl is total_incl and strict != soft:
                    record(names[2], f"e={e}")
                if singleton and strict != soft:
                    record(names[3], f"e={e}")

        if len(s) >= len(p.positives) >= 1:
            # The sorted draw of rng.sample(range(1, len(s) + 1), k).
            guess = positions[_sample_mask(rng, len(s), len(p.positives))]
            try:
                check_embedding(guess, p, s, soft_kind, partial_incl)
                accepted = True
            except NotAPositiveEmbeddingError:
                accepted = False
            if accepted != (guess in embeddings):
                record(names[4], f"e={guess}")

        for name, detail in failures_of_bits[theta_bits(p, s)]:
            record(name, detail)

        if len(recent) >= 4:
            db = SequenceDatabase(tuple(recent), dictionary)
            recent.clear()
            supports = all_theta_supports(p, db)
            for left, right in dominated:
                if supports[left] > supports[right]:
                    record(
                        names[8],
                        f"{THETAS[left].spell()}={supports[left]} "
                        f"{THETAS[right].spell()}={supports[right]}",
                    )
            for occ, soft_total, strict_total in soft_strict_total:
                if supports[soft_total] != supports[strict_total]:
                    record(names[8], f"{occ.value} soft/strict total differ")

    return tuple(
        InvariantCheck(name, draws, failures[name], examples[name]) for name in names
    )
