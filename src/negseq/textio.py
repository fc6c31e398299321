"""Pattern language, database file formats, and text/CSV rendering.

Both text grammars read the same tokens: an item is a maximal run of
characters that are neither whitespace nor reserved (``model.ITEM_TOKEN``),
and each reserved character is a token by itself. Whitespace separates
tokens, so ``(a b)c`` is two itemsets.

Pattern grammar::

    pattern    := '<' element+ '>'
    element    := posItemset | negAtom
    posItemset := item | '(' item+ ')'
    negAtom    := '!' item | '!(' item+ ')' | '!{' item+ '}' | '!|' item+ '|'

``¬`` is accepted as an alias for ``!``, which must touch the item or bracket
it negates. ``!x`` and ``!(x y)`` leave the slot's evaluation to the
pattern-level containment relation, ``!{x y}`` pins strict-partial evaluation
for that slot and ``!|x y|`` pins total evaluation.

A native database line is read with ``str`` methods, not token by token.
One regex search rejects a line that holds a reserved character other than
``(`` and ``)``. The line is split at each ``(``, each piece after the first
at its first ``)``, and the pieces at whitespace; a ``)`` left in the piece
before the first ``(`` or after a group's ``)`` rejects the line. A piece
that passes these checks holds only valid item tokens, so the parse's token
table maps each to its one-item mask ``1 << id`` and registers an unseen one
with no ``check_token`` call. A bracketed itemset ORs its members' masks. A
line the reader rejects is scanned again with ``_TOKEN``, one token at a
time, and that scan only words the error: the first token that does not
fit, with its line and column.

Both database readers produce masks and nothing else: a loaded
:class:`Sequence` builds its Itemsets when they are first read, from one
mask -> Itemset table per parse, so each distinct mask of a database is one
shared Itemset.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, NoReturn

from .model import (
    Dictionary,
    ITEM_TOKEN,
    Itemset,
    NegMode,
    NegPattern,
    Negative,
    NegseqError,
    RESERVED_CHARS,
    Sequence,
    SequenceDatabase,
    THETAS,
    make_itemset,
)


class PatternSyntaxError(NegseqError):
    """Malformed pattern text; ``column`` is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


class StructureError(NegseqError):
    """Pattern text violates the alternation constraints on negatives."""


class DatabaseParseError(NegseqError):
    """Malformed database file; ``line`` and ``column`` are 1-based."""

    def __init__(self, message: str, line: int, column: int = 0):
        where = f"line {line}" + (f", column {column}" if column else "")
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


class EmptyItemsetError(DatabaseParseError):
    """A database file declares an empty itemset."""


_NEG_BRACKETS = {"(": (")", None), "{": ("}", NegMode.STRICT_PARTIAL), "|": ("|", NegMode.TOTAL)}


_TOKEN = re.compile(ITEM_TOKEN.pattern + "|\\S")

# The reserved characters that a native line may not hold anywhere; the
# reader finds misplaced brackets itself.
_NON_BRACKET_RESERVED = re.compile(
    "[" + re.escape("".join(sorted(RESERVED_CHARS - {"(", ")"}))) + "]"
)


def _read_items(
    tokens: Iterator[tuple[int, str]], closing: str, open_column: int
) -> list[str]:
    items = []
    while True:
        column, token = next(tokens)
        if token == closing:
            break
        if not token:
            raise PatternSyntaxError(f"expected {closing!r} before end of input", column)
        if token in RESERVED_CHARS:
            raise PatternSyntaxError(f"expected an item, found {token!r}", column)
        items.append(token)
    if not items:
        raise PatternSyntaxError("itemset must contain at least one item", open_column)
    return items


def parse_pattern(text: str, dictionary: Dictionary) -> NegPattern:
    """Parse pattern text against ``dictionary``, registering unseen tokens.

    Raises PatternSyntaxError with a 1-based column for grammar problems and
    StructureError when negatives lead, trail, or touch.
    """
    # (1-based column, token) pairs; the empty token marks the end of input.
    end = [(len(text) + 1, "")]
    tokens = iter([(m.start() + 1, m.group()) for m in _TOKEN.finditer(text)] + end)
    column, token = next(tokens)
    if token != "<":
        raise PatternSyntaxError("pattern must start with '<'", column)
    elements: list[tuple[bool, list[str], NegMode | None]] = []
    while True:
        column, token = next(tokens)
        if token == ">":
            break
        if not token:
            raise PatternSyntaxError("pattern must end with '>'", column)
        if token in ("!", "¬"):
            # The negated item or bracket must follow the sign directly.
            after = text[column : column + 1]
            if after in _NEG_BRACKETS:
                next(tokens)
                closing, mode = _NEG_BRACKETS[after]
                items = _read_items(tokens, closing, column + 1)
            else:
                item_column, item = next(tokens)
                if item_column != column + 1 or not item or item in RESERVED_CHARS:
                    found = repr(after) if after else "end of input"
                    raise PatternSyntaxError(
                        f"expected an item, found {found}", column + 1
                    )
                items, mode = [item], None
            elements.append((True, items, mode))
        elif token == "(":
            elements.append((False, _read_items(tokens, ")", column), None))
        elif token in RESERVED_CHARS:
            raise PatternSyntaxError(f"unexpected {token!r}", column)
        else:
            elements.append((False, [token], None))
    trailing_column, token = next(tokens)
    if token:
        raise PatternSyntaxError("trailing input after '>'", trailing_column)
    if not elements:
        raise PatternSyntaxError("pattern has no itemsets", column)

    positives: list[Itemset] = []
    negatives: list[Negative] = []
    pending: Negative | None = None
    for is_negative, items, mode in elements:
        itemset = make_itemset(items, dictionary)
        if is_negative:
            if not positives:
                raise StructureError("a pattern cannot start with a negative itemset")
            if pending is not None:
                raise StructureError(
                    "a pattern cannot have two successive negative itemsets"
                )
            pending = Negative(itemset, mode)
        else:
            if positives:
                negatives.append(pending if pending is not None else Negative())
            positives.append(itemset)
            pending = None
    if pending is not None:
        raise StructureError("a pattern cannot finish with a negative itemset")
    return NegPattern(tuple(positives), tuple(negatives))


def _render_tokens(itemset: Itemset, dictionary: Dictionary) -> str:
    return " ".join(itemset.tokens(dictionary))


def _render_negative(negative: Negative, dictionary: Dictionary) -> str:
    body = _render_tokens(negative.itemset, dictionary)
    if negative.mode is NegMode.STRICT_PARTIAL:
        return "!{" + body + "}"
    if negative.mode is NegMode.TOTAL:
        return "!|" + body + "|"
    # Mode-free slots and explicit soft-partial share the parenthesis form.
    if len(negative.itemset) == 1:
        return "!" + body
    return "!(" + body + ")"


def render_pattern(pattern: NegPattern, dictionary: Dictionary) -> str:
    """Canonical text: sorted itemsets, single spaces, empty slots omitted."""
    parts: list[str] = []
    for index, positive in enumerate(pattern.positives):
        if index:
            negative = pattern.negatives[index - 1]
            if negative.itemset:
                parts.append(_render_negative(negative, dictionary))
        body = _render_tokens(positive, dictionary)
        parts.append(body if len(positive) == 1 else "(" + body + ")")
    return "<" + " ".join(parts) + ">"


def render_sequence(sequence: Sequence, dictionary: Dictionary) -> str:
    parts = []
    for itemset in sequence:
        body = _render_tokens(itemset, dictionary)
        parts.append(body if len(itemset) == 1 else "(" + body + ")")
    return " ".join(parts)


class _Singletons(dict):
    """The tables of one parse. As a dict, token -> one-item mask,
    ``1 << id``; an unseen token is registered on lookup, so a token seen
    before never reaches the dictionary. ``itemsets`` is the mask -> Itemset
    table that the parse's sequences build their itemsets from when those
    are first read (:meth:`Sequence.of_masks`); a parse itself builds no
    Itemset.

    Registration skips ``check_token``: the readers look up only tokens
    they know to be valid, the native reader after its per-line checks
    and the spmf reader the decimal digits of a non-negative int.
    """

    __slots__ = ("dictionary", "itemsets")

    def __init__(self, dictionary: Dictionary):
        self.dictionary = dictionary
        self.itemsets: dict[tuple[int, int], Itemset] = {}

    def __missing__(self, token: str) -> int:
        found = self[token] = 1 << self.dictionary._add_valid(token)
        return found


def _parse_native_line(line: str, lineno: int, singletons: _Singletons) -> Sequence:
    """Read one native line: split at each '(', then at the first ')' of
    each piece, and look every item token up in ``singletons``.

    Every piece is checked before its tokens are looked up, so the lookups
    only ever see valid tokens, and those a rejected line registers come
    before its error. A line this reader rejects goes to
    :func:`_raise_native_error`, which words the error.
    """
    lookup = singletons.__getitem__
    head, *groups = line.split("(")
    # A ')' outside a group is a stray one.
    if not _NON_BRACKET_RESERVED.search(line) and ")" not in head:
        masks = list(map(lookup, head.split()))
        for group in groups:
            inside, closed, after = group.partition(")")
            members = inside.split()
            # No ')' before the next '(' or the end of the line (an unclosed
            # or nested group), nothing between the brackets, or a stray ')'.
            if not closed or not members or ")" in after:
                break
            masks.append(reduce(or_, map(lookup, members)))
            masks.extend(map(lookup, after.split()))
        else:
            return Sequence.of_masks(tuple(masks), singletons.itemsets)
    _raise_native_error(line, lineno, singletons.dictionary)


def _raise_native_error(line: str, lineno: int, dictionary: Dictionary) -> NoReturn:
    """Raise the error of the first token of ``line``, left to right, that
    does not fit the native grammar, with its 1-based column.

    The item tokens before that token are registered in ``dictionary`` in
    order: the reader may have stopped short of some of them, and a rejected
    line leaves the same dictionary behind wherever the reader stopped.
    """
    opened = 0  # column of the unclosed '(', if any
    empty = False
    for match in _TOKEN.finditer(line):
        token, column = match.group(), match.start() + 1
        if token not in RESERVED_CHARS:
            dictionary.add(token)
            empty = False
        elif token == "(" and not opened:
            opened, empty = column, True
        elif token == ")" and opened:
            if empty:
                raise EmptyItemsetError("empty itemset '()'", lineno, opened)
            opened = 0
        else:
            raise DatabaseParseError(f"unexpected {token!r}", lineno, column)
    if opened:
        raise DatabaseParseError("unclosed '('", lineno, opened)
    raise AssertionError(f"line {lineno} was rejected but holds no error")


# An spmf token: ASCII digits with an optional sign. int() alone would also
# take underscores and non-ASCII digits.
_SPMF_INTEGER = re.compile("[+-]?[0-9]+")


def _parse_spmf_line(line: str, lineno: int, singletons: _Singletons) -> Sequence:
    masks: list[int] = []
    mask = 0
    terminated = False
    for raw in line.split():
        if not _SPMF_INTEGER.fullmatch(raw):
            raise DatabaseParseError(f"expected an integer, found {raw!r}", lineno)
        value = int(raw)
        if terminated:
            raise DatabaseParseError("items after sequence terminator -2", lineno)
        if value == -2:
            if mask:
                raise DatabaseParseError(
                    "itemset not closed with -1 before -2", lineno
                )
            terminated = True
        elif value == -1:
            if not mask:
                raise EmptyItemsetError(
                    "empty itemset (consecutive -1 markers)", lineno
                )
            masks.append(mask)
            mask = 0
        elif value < 0:
            raise DatabaseParseError(f"unexpected marker {value}", lineno)
        else:
            # Keyed by value, so "01", "+1" and "1" are one item.
            mask |= singletons[str(value)]
    if not terminated:
        raise DatabaseParseError("sequence not terminated with -2", lineno)
    return Sequence.of_masks(tuple(masks), singletons.itemsets)


def parse_sequence(text: str, dictionary: Dictionary) -> Sequence:
    """Parse one native-format sequence line against an existing dictionary."""
    return _parse_native_line(text, 1, _Singletons(dictionary))


def parse_database(text: str, format: str = "native") -> SequenceDatabase:
    """Parse database text; see :func:`load_database` for the formats."""
    if format not in ("native", "spmf"):
        raise ValueError(f"unknown database format {format!r}")
    parse_line = _parse_native_line if format == "native" else _parse_spmf_line
    singletons = _Singletons(Dictionary())
    sequences: list[Sequence] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        sequences.append(parse_line(line, lineno, singletons))
    return SequenceDatabase(tuple(sequences), singletons.dictionary)


def load_database(path: str, format: str = "native") -> SequenceDatabase:
    """Load a sequence database from a UTF-8 file; a leading byte-order mark
    is dropped.

    native: one sequence per line, tokens as in the module docstring,
    multi-item itemsets parenthesized (``(b c) f a``), ``#`` starts a comment
    line. A line is checked for misplaced reserved characters once, read with
    ``str.split`` and table lookups that register unseen tokens without a
    per-token check, and a line that reader rejects is scanned token by token
    to word the error (module docstring).
    spmf: space-separated integer items, ``-1`` ends an itemset, ``-2`` ends
    the sequence. An integer is ASCII digits with an optional sign, and an
    item is keyed by its value, so ``01``, ``+1`` and ``1`` are one item. The
    dictionary is built in first-appearance order.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_database(handle.read(), format)


def dump_database(db: SequenceDatabase) -> str:
    """Native-format text for ``db``; inverse of native parsing."""
    return "".join(render_sequence(s, db.dictionary) + "\n" for s in db.sequences)


def save_database(db: SequenceDatabase, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_database(db))


def csv_row(cells: Iterable[object]) -> str:
    # Tokens cannot contain commas (reserved), so plain joining is safe.
    return ",".join(str(cell) for cell in cells)


def dominance_table_rows(table) -> list[list[str]]:
    """Header row plus one row per relation, cells as '.', '>' or '-'."""
    rows = [[""] + [t.spell() for t in THETAS]]
    for left in THETAS:
        rows.append(
            [left.spell()] + [table.entry(left, right).value for right in THETAS]
        )
    return rows


def dominance_table_to_text(table) -> str:
    return aligned_rows(dominance_table_rows(table))


def aligned_rows(rows: list[list[str]]) -> str:
    """Left-aligned text table, columns padded to the widest cell."""
    if not rows:
        return ""
    widths = [0] * max(len(row) for row in rows)
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in rows:
        line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"
