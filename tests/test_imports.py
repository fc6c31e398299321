"""The package's public names and what a CLI process imports."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negseq

ROOT = Path(__file__).resolve().parents[1]
MINE_SMALL = str(ROOT / "tests" / "data" / "mine_small.txt")

# Every public name of ``negseq``, by the submodule that defines it.
PUBLIC_NAMES = {
    "model": [
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
    ],
    "matching": [
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
    ],
    "orders": [
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
    ],
    "mining": [
        "MiningResult",
        "MiningStats",
        "PatternBounds",
        "enumerate_patterns",
        "mine_bruteforce",
        "mine_pruned",
    ],
    "textio": [
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
    ],
}


def in_fresh_process(script: str, *args: str) -> str:
    """Stdout of ``python -c script args`` with this checkout's ``src`` on the
    path; the script starts with nothing of negseq imported."""
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True,
    )
    return done.stdout


class TestPublicNames:
    def test_each_name_is_its_submodules_object(self):
        for module_name, names in PUBLIC_NAMES.items():
            module = importlib.import_module(f"negseq.{module_name}")
            for name in names:
                assert getattr(negseq, name) is getattr(module, name), name
        assert negseq.__version__ == "0.1.0"

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from negseq import *", namespace)
        expected = {name for names in PUBLIC_NAMES.values() for name in names}
        assert expected <= namespace.keys()

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            getattr(negseq, "no_such_name")

    def test_submodules_resolve_as_attributes(self):
        for module_name in PUBLIC_NAMES:
            module = getattr(negseq, module_name)
            assert module is importlib.import_module(f"negseq.{module_name}")


# The cli globals that the bench tracer replaces by name before a traced pass.
PATCH_POINTS = (
    "load_database",
    "mine_pruned",
    "mine_bruteforce",
    "default_space",
    "verify_dominance",
    "verify_anti_monotonicity",
    "verify_equivalence",
    "verify_invariants",
)

_PATCH_SCRIPT = """
import contextlib, io, json, sys
from negseq import cli

points, argvs = json.loads(sys.argv[1]), json.loads(sys.argv[2])
calls = dict.fromkeys(points, 0)

def counting(name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted

for name in points:
    setattr(cli, name, counting(name, getattr(cli, name)))
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.run(argv) for argv in argvs]
print(json.dumps({"calls": calls, "codes": codes}))
"""


def test_patched_cli_names_are_the_ones_called():
    # A name patched before any handler runs must be what the handler calls;
    # otherwise a traced bench run silently counts nothing for it.
    mine = ["mine", "--db", MINE_SMALL, "--theta", "weak-strict-total", "--minsup", "6",
            "--max-positives", "2"]
    pattern = ["--db", MINE_SMALL, "--pattern", "<a !b d>"]
    argvs = [
        mine,
        mine + ["--engine", "bruteforce"],
        # These three load projected onto their patterns' items, through
        # the same name.
        ["match", *pattern, "--all-thetas"],
        ["support", *pattern, "--all-thetas"],
        ["report", *pattern],
        ["verify", "--suite", "lemmas", "--draws", "50"],
        ["verify", "--suite", "dominance"],
        ["verify", "--suite", "antimono"],
        ["verify", "--suite", "equivalence"],
    ]
    result = json.loads(
        in_fresh_process(_PATCH_SCRIPT, json.dumps(PATCH_POINTS), json.dumps(argvs))
    )
    # The equivalence suite reports the specification's singleton count of 4
    # as a violation, by design.
    assert result["codes"] == [0, 0, 0, 0, 0, 0, 0, 0, 1]
    assert all(result["calls"][name] >= 1 for name in PATCH_POINTS), result["calls"]
    assert result["calls"]["load_database"] == 5


_LOADED_SCRIPT = """
import contextlib, io, json, sys
import negseq.cli

argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        negseq.cli.run(argv)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("negseq."))))
"""


def loaded_modules(*argv: str) -> set[str]:
    """The negseq submodules loaded by a fresh process that imports the CLI
    and runs ``argv`` once (none when it is empty)."""
    loaded = json.loads(in_fresh_process(_LOADED_SCRIPT, json.dumps(argv)))
    return {name.removeprefix("negseq.") for name in loaded}


class TestModulesLoaded:
    # A process loads only what its subcommand needs.
    def test_importing_the_cli(self):
        assert loaded_modules() == {"cli", "matching", "model", "textio"}

    def test_match_support_and_report(self):
        for argv in (
            ("match", "--db", MINE_SMALL, "--pattern", "<a !b d>", "--theta",
             "weak-strict-total", "--explain"),
            ("support", "--db", MINE_SMALL, "--pattern", "<a !b d>", "--all-thetas"),
            ("report", "--db", MINE_SMALL, "--pattern", "<a !b d>"),
        ):
            loaded = loaded_modules(*argv)
            assert not {"orders", "mining"} & loaded, (argv[0], loaded)

    def test_mine(self):
        loaded = loaded_modules(
            "mine", "--db", MINE_SMALL, "--theta", "weak-strict-total", "--minsup", "6"
        )
        assert "mining" in loaded and "orders" not in loaded

    def test_verify_lemmas(self):
        # The other suites scan the default space, which the miner's pattern
        # walk enumerates, so they load mining too.
        loaded = loaded_modules("verify", "--suite", "lemmas", "--draws", "50")
        assert "orders" in loaded and "mining" not in loaded
