"""Pattern language, database file formats, and text/CSV rendering.

Pattern grammar::

    pattern    := '<' element+ '>'
    element    := posItemset | negAtom
    posItemset := item | '(' item+ ')'
    negAtom    := '!' item | '!(' item+ ')' | '!{' item+ '}' | '!|' item+ '|'

Items are whitespace-separated; ``¬`` is accepted as an alias for ``!``.
``!x`` and ``!(x y)`` leave the slot's evaluation to the pattern-level
containment relation, ``!{x y}`` pins strict-partial evaluation for that slot
and ``!|x y|`` pins total evaluation.
"""

from __future__ import annotations

from typing import Iterable

from .model import (
    Dictionary,
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


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    @property
    def column(self) -> int:
        return self.pos + 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def skip_ws(self) -> None:
        while self.peek().isspace():
            self.pos += 1

    def fail(self, message: str) -> PatternSyntaxError:
        return PatternSyntaxError(message, self.column)

    def read_item(self) -> str:
        start = self.pos
        while True:
            ch = self.peek()
            if not ch or ch.isspace() or ch in RESERVED_CHARS:
                break
            self.pos += 1
        if self.pos == start:
            got = repr(self.peek()) if self.peek() else "end of input"
            raise PatternSyntaxError(f"expected an item, found {got}", start + 1)
        return self.text[start : self.pos]

    def read_items(self, closing: str, open_column: int) -> list[str]:
        items = []
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == closing:
                self.pos += 1
                break
            if not ch:
                raise self.fail(f"expected {closing!r} before end of input")
            items.append(self.read_item())
        if not items:
            raise PatternSyntaxError(
                "itemset must contain at least one item", open_column
            )
        return items


def parse_pattern(text: str, dictionary: Dictionary) -> NegPattern:
    """Parse pattern text against ``dictionary``, registering unseen tokens.

    Raises PatternSyntaxError with a 1-based column for grammar problems and
    StructureError when negatives lead, trail, or touch.
    """
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.peek() != "<":
        raise sc.fail("pattern must start with '<'")
    sc.advance()
    elements: list[tuple[bool, list[str], NegMode | None]] = []
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if not ch:
            raise sc.fail("pattern must end with '>'")
        if ch == ">":
            closing_column = sc.column
            sc.advance()
            break
        if ch in "!¬":
            sc.advance()
            bracket = sc.peek()
            if bracket in _NEG_BRACKETS:
                closing, mode = _NEG_BRACKETS[bracket]
                open_column = sc.column
                sc.advance()
                items = sc.read_items(closing, open_column)
            else:
                items, mode = [sc.read_item()], None
            elements.append((True, items, mode))
        elif ch == "(":
            open_column = sc.column
            sc.advance()
            elements.append((False, sc.read_items(")", open_column), None))
        elif ch in RESERVED_CHARS:
            raise sc.fail(f"unexpected {ch!r}")
        else:
            elements.append((False, [sc.read_item()], None))
    sc.skip_ws()
    if sc.peek():
        raise sc.fail("trailing input after '>'")
    if not elements:
        raise PatternSyntaxError("pattern has no itemsets", closing_column)

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


def _parse_native_line(line: str, lineno: int, dictionary: Dictionary) -> Sequence:
    itemsets: list[Itemset] = []
    pos = 0
    n = len(line)

    def read_token(start: int) -> tuple[str, int]:
        end = start
        while end < n and not line[end].isspace() and line[end] not in RESERVED_CHARS:
            end += 1
        if end == start:
            raise DatabaseParseError(
                f"unexpected {line[start]!r}", lineno, start + 1
            )
        return line[start:end], end

    while pos < n:
        ch = line[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "(":
            open_col = pos + 1
            pos += 1
            items: list[int] = []
            while True:
                while pos < n and line[pos].isspace():
                    pos += 1
                if pos >= n:
                    raise DatabaseParseError("unclosed '('", lineno, open_col)
                if line[pos] == ")":
                    pos += 1
                    break
                token, pos = read_token(pos)
                items.append(dictionary.add(token))
            if not items:
                raise EmptyItemsetError("empty itemset '()'", lineno, open_col)
            itemsets.append(Itemset.of(items))
        elif ch in RESERVED_CHARS:
            raise DatabaseParseError(f"unexpected {ch!r}", lineno, pos + 1)
        else:
            token, pos = read_token(pos)
            itemsets.append(Itemset.of([dictionary.add(token)]))
    return Sequence(tuple(itemsets))


def _parse_spmf_line(line: str, lineno: int, dictionary: Dictionary) -> Sequence:
    itemsets: list[Itemset] = []
    current: list[int] = []
    terminated = False
    for raw in line.split():
        try:
            value = int(raw)
        except ValueError:
            raise DatabaseParseError(
                f"expected an integer, found {raw!r}", lineno
            ) from None
        if terminated:
            raise DatabaseParseError("items after sequence terminator -2", lineno)
        if value == -2:
            if current:
                raise DatabaseParseError(
                    "itemset not closed with -1 before -2", lineno
                )
            terminated = True
        elif value == -1:
            if not current:
                raise EmptyItemsetError(
                    "empty itemset (consecutive -1 markers)", lineno
                )
            itemsets.append(Itemset.of(current))
            current = []
        elif value < 0:
            raise DatabaseParseError(f"unexpected marker {value}", lineno)
        else:
            current.append(dictionary.add(str(value)))
    if not terminated:
        raise DatabaseParseError("sequence not terminated with -2", lineno)
    return Sequence(tuple(itemsets))


def parse_sequence(text: str, dictionary: Dictionary) -> Sequence:
    """Parse one native-format sequence line against an existing dictionary."""
    return _parse_native_line(text, 1, dictionary)


def parse_database(text: str, format: str = "native") -> SequenceDatabase:
    """Parse database text; see :func:`load_database` for the formats."""
    if format not in ("native", "spmf"):
        raise ValueError(f"unknown database format {format!r}")
    dictionary = Dictionary()
    sequences: list[Sequence] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if format == "native":
            sequences.append(_parse_native_line(line, lineno, dictionary))
        else:
            sequences.append(_parse_spmf_line(line, lineno, dictionary))
    return SequenceDatabase(tuple(sequences), dictionary)


def load_database(path: str, format: str = "native") -> SequenceDatabase:
    """Load a sequence database.

    native: one sequence per line, itemsets whitespace-separated, multi-item
    itemsets parenthesized (``(b c) f a``), ``#`` starts a comment line.
    spmf: space-separated integer items, ``-1`` ends an itemset, ``-2`` ends
    the sequence. The dictionary is built in first-appearance order.
    """
    with open(path, "r", encoding="utf-8") as handle:
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
