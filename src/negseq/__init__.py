"""Negative sequential patterns: containment semantics, partial orders,
verification scans, and frequent-pattern mining with provably safe pruning.

Submodules load on first use. ``import negseq`` runs none of them; reading a
public name (``negseq.verify_dominance``) or a submodule (``negseq.orders``)
imports the submodule that defines it, once. Every public name still imports
from ``negseq``, and ``from negseq import *`` binds them all.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "model": (
        "Dictionary",
        "EMPTY_ITEMSET",
        "EmbeddingKind",
        "EmptyPositiveError",
        "InvalidTokenError",
        "Itemset",
        "NegMode",
        "NegPattern",
        "Negative",
        "NegseqError",
        "NonInclusion",
        "Occurrence",
        "Sequence",
        "SequenceDatabase",
        "Theta",
        "THETAS",
        "make_itemset",
        "pattern_length",
        "positive_part",
        "singleton_negatives_only",
    ),
    "matching": (
        "Embedding",
        "MatchReport",
        "NotAPositiveEmbeddingError",
        "all_theta_supports",
        "check_embedding",
        "contains",
        "gap_union",
        "is_contained",
        "non_inclusion",
        "positive_embeddings",
        "support",
        "theta_bits",
    ),
    "orders": (
        "AntiMonotonicityReport",
        "ContainmentGrid",
        "Counterexample",
        "Dominance",
        "DominanceReport",
        "DominanceTable",
        "EmptySpaceError",
        "EquivalenceReport",
        "OrderKind",
        "SpaceBounds",
        "Verdict",
        "VerificationSpace",
        "default_space",
        "embed_incl",
        "enumerate_sequences",
        "equivalence_classes",
        "known_dominance",
        "neg_ext",
        "pattern_order",
        "prefix_incl",
        "verify_anti_monotonicity",
        "verify_dominance",
        "verify_equivalence",
        "verify_invariants",
    ),
    "mining": (
        "MiningResult",
        "MiningStats",
        "PatternBounds",
        "enumerate_patterns",
        "mine_bruteforce",
        "mine_pruned",
    ),
    "textio": (
        "DatabaseParseError",
        "EmptyItemsetError",
        "PatternSyntaxError",
        "StructureError",
        "dump_database",
        "load_database",
        "parse_database",
        "parse_pattern",
        "parse_sequence",
        "render_pattern",
        "render_sequence",
        "save_database",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
