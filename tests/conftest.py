import pytest

from negseq import THETAS, Dictionary, theta_bits
from negseq.textio import parse_database

# Non-inclusion comparison dataset: five sequences, each containing exactly
# one placement of <b ... a> with a single itemset in the gap.
TABLE1_TEXT = """\
(b c) f a
(b c) (c f) a
(b c) (d f) a
(b c) (e f) a
(b c) (c d e f) a
"""

# Rule-support dataset: six sequences over {a, b, c, d, e}.
FIG1_TEXT = """\
a c e
a b c e
a b c e
a c d
a c d
a c d
"""

# Four sequences, each with one placement of <a ... d>, exercising the four
# embedding/non-inclusion combinations of <a !(b c) d>.
ABSENCE_TEXT = """\
a c b e d
a (b c) e d
a b e d
a e d
"""


@pytest.fixture
def table1_db():
    return parse_database(TABLE1_TEXT)


@pytest.fixture
def fig1_db():
    return parse_database(FIG1_TEXT)


@pytest.fixture
def absence_db():
    return parse_database(ABSENCE_TEXT)


@pytest.fixture
def abc_dict():
    return Dictionary("abcdef")


def sequence_rows(rows, sequence_of):
    """A grid's rows, masks over end-separator cells, as masks over sequence
    indexes. A set bit that is no sequence's end separator raises KeyError."""

    def bits(mask):
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << sequence_of[low.bit_length() - 1]
            mask ^= low
        return out

    return [[bits(mask) for mask in row] for row in rows]


def pairwise_masks(patterns, sequences):
    """The rows of a containment grid, per pattern one mask over sequence
    indexes for each relation, built pair by pair with theta_bits."""
    rows = []
    for p in patterns:
        row = [0] * len(THETAS)
        for j, s in enumerate(sequences):
            bits = theta_bits(p, s)
            for t in range(len(THETAS)):
                if bits >> t & 1:
                    row[t] |= 1 << j
        rows.append(row)
    return rows
