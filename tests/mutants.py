"""A catalogue of mutants of ``src/`` and the tests that must kill them.

    python tests/mutants.py [NAME ...]

Run from anywhere; with names, only those mutants run. Each mutant replaces
one exact piece of text, which must occur exactly once in its file, in a
temporary copy of ``src/``. The runner then runs the mutant's tests with
that copy first on PYTHONPATH. A mutant is killed when every test it names
fails; otherwise it survives. The runner first checks that the named tests
pass on the unmutated tree, lists the survivors, and exits 1 if any mutant
survives.

Pytest does not collect this file, as its name does not start with
``test_``. Name only tests that import ``negseq`` in process: a test that
starts a subprocess with its own PYTHONPATH never sees the mutant. Every
pytest run takes the same hypothesis seed, so a hypothesis test draws the
same examples on every run and a verdict does not change between runs; with
a fixed seed hypothesis also leaves its example database alone.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HYPOTHESIS_SEED = 0


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo root


MUTANTS = (
    Mutant(
        "failing-strict-partial-any-item",
        # A strict-partial slot fails where any one item of the negative is
        # inserted, not every one.
        "negseq/matching.py",
        "reduce(and_ if test == 1 else or_, ends)",
        "reduce(or_ if test == 1 else or_, ends)",
        (
            "tests/test_matching.py::test_vertical_engine_agrees_with_theta_bits",
            "tests/test_matching.py"
            "::test_strong_from_the_earliest_placement_with_an_inserted_itemset",
            "tests/test_orders.py::TestDominanceScan::test_grid_masks_equal_pairwise_theta_bits[False]",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[strong-strict-partial]",
            "tests/test_mining.py::TestPruned::test_three_step_patterns_and_strong_occurrence",
        ),
    ),
    Mutant(
        "failing-total-every-item",
        # A total slot fails only where every item of the negative is
        # inserted, not any one.
        "negseq/matching.py",
        "reduce(and_ if test == 1 else or_, ends)",
        "reduce(and_ if test == 1 else and_, ends)",
        (
            "tests/test_matching.py::test_vertical_engine_agrees_with_theta_bits",
            "tests/test_matching.py"
            "::test_strong_from_the_earliest_placement_with_an_inserted_itemset",
            "tests/test_orders.py::TestDominanceScan::test_grid_masks_equal_pairwise_theta_bits[False]",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[strong-strict-total]",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[strong-soft-total]",
            "tests/test_mining.py::TestPruned::test_three_step_patterns_and_strong_occurrence",
        ),
    ),
    Mutant(
        "failing-inserted-one-positive-late",
        # The itemset is inserted after positive i + 1, not after positive i.
        "negseq/matching.py",
        "                        reach = after & self.positive(w)\n"
        "                        for pmask in pos_masks[i + 1 :]:\n",
        "                        reach = after & self.positive(pos_masks[i + 1])\n"
        "                        for pmask in (w, *pos_masks[i + 2 :]):\n",
        (
            "tests/test_matching.py::test_vertical_engine_agrees_with_theta_bits",
            "tests/test_matching.py"
            "::test_strong_from_the_earliest_placement_with_an_inserted_itemset",
            "tests/test_orders.py::TestDominanceScan::test_grid_masks_equal_pairwise_theta_bits[False]",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[strong-strict-partial]",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[strong-soft-partial]",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[strong-strict-total]",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[strong-soft-total]",
            "tests/test_mining.py::TestPruned::test_three_step_patterns_and_strong_occurrence",
        ),
    ),
    Mutant(
        "failing-soft-partial-split-per-item",
        # A soft-partial slot inserts the negative's items one by one, and
        # fails where any one of them embeds.
        "negseq/matching.py",
        "                single = test == 2 or not qmask & qmask - 1\n",
        "                single = not qmask & qmask - 1\n",
        (
            "tests/test_matching.py::test_vertical_engine_agrees_with_theta_bits",
            "tests/test_matching.py"
            "::test_strong_from_the_earliest_placement_with_an_inserted_itemset",
            "tests/test_orders.py::TestDominanceScan::test_grid_masks_equal_pairwise_theta_bits[False]",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[strong-soft-partial]",
            "tests/test_mining.py::TestPruned::test_three_step_patterns_and_strong_occurrence",
        ),
    ),
    Mutant(
        "failing-reaches-kept-across-positives",
        # The layout keeps the inserted-itemset reaches of the first
        # positives it was asked about, for every later positive part.
        "negseq/matching.py",
        "        if pos_masks != self._inserted_into:\n",
        "        if not self._inserted_into:\n",
        (
            "tests/test_matching.py::test_vertical_engine_agrees_with_theta_bits",
            "tests/test_matching.py"
            "::test_strong_from_the_earliest_placement_with_an_inserted_itemset",
            "tests/test_orders.py::TestDominanceScan::test_grid_masks_equal_pairwise_theta_bits[False]",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[strong-strict-partial]",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[strong-soft-partial]",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[strong-strict-total]",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[strong-soft-total]",
            "tests/test_mining.py::TestPruned::test_three_step_patterns_and_strong_occurrence",
        ),
    ),
    Mutant(
        "strict-partial-rules-out-nothing",
        # The strict-partial slot test never rules out an item, so no gap
        # fails it.
        "negseq/matching.py",
        "    if test == 1:\n        return qmask & smask\n",
        "    if test == 1:\n        return 0\n",
        (
            # The lemma suite, as ``verify --suite lemmas`` runs it.
            "tests/test_orders.py::TestSuites::test_invariant_harness",
            "tests/test_matching.py::test_contains_agrees_with_quantifier_expansion",
            "tests/test_matching.py::test_vertical_engine_agrees_with_theta_bits",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[weak-strict-partial]",
            "tests/test_matching.py::test_strong_is_positive_containment_without_a_failing_chain",
        ),
    ),
    Mutant(
        "witness-reuses-an-index",
        # The witness takes the next positive's entry at the index of the one
        # before, when its level holds that index, so two positives share it.
        "negseq/matching.py",
        "        index.append(level[bisect_right(level, index[-1])])\n",
        "        from bisect import bisect_left\n\n"
        "        index.append(level[bisect_left(level, index[-1])])\n",
        (
            "tests/test_matching.py::TestContains::test_witness_moves_past_a_shared_index",
        ),
    ),
    Mutant(
        "violator-from-the-failing-index",
        # The violator may put the next positive at the index whose itemset
        # made the gap fail, which leaves that itemset out of the gap.
        "negseq/matching.py",
        "_earliest(pos_masks[i + 1 :], seq_masks, j + 1)",
        "_earliest(pos_masks[i + 1 :], seq_masks, j)",
        (
            "tests/test_matching.py::TestContains"
            "::test_violator_puts_the_failing_itemset_into_the_gap",
        ),
    ),
    Mutant(
        "enumerator-grows-positives-under-negatives",
        # The enumerator grows the positives of a node that has a negative,
        # which yields negative-free patterns twice.
        "negseq/mining.py",
        "        if last_slot < 0:\n",
        "        if True:\n",
        (
            "tests/test_mining.py::TestEnumeration::test_count_matches_closed_form",
            "tests/test_mining.py::TestEnumeration::test_exactly_once_and_valid",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[weak-strict-total]",
        ),
    ),
    Mutant(
        "flood-drops-its-seeds",
        # A flood no longer keeps its seeds, so a seed on a blocked cell
        # reaches nothing.
        "negseq/matching.py",
        "    return (((seeds & free) + free) ^ free) | seeds\n",
        "    return ((seeds & free) + free) ^ free\n",
        (
            "tests/test_matching.py::TestVerticalEdgeCases::test_one_positive",
            "tests/test_matching.py::test_vertical_engine_agrees_with_theta_bits",
            "tests/test_mining.py::TestPruned::test_infrequent_prefix_cuts_subtree",
            "tests/test_orders.py::TestSuites::test_dominance_suite_is_clean",
        ),
    ),
    Mutant(
        "partial-modes-swapped",
        # A pinned strict-partial slot tests as soft-partial and the other
        # way round.
        "negseq/matching.py",
        "_MODE_TEST = {NegMode.STRICT_PARTIAL: 1, NegMode.SOFT_PARTIAL: 2,",
        "_MODE_TEST = {NegMode.STRICT_PARTIAL: 2, NegMode.SOFT_PARTIAL: 1,",
        (
            "tests/test_matching.py::TestCheckEmbedding::test_slot_mode_pins_evaluation",
            "tests/test_matching.py::TestVerticalEdgeCases::test_pinned_partial_modes",
            "tests/test_matching.py::test_strong_is_positive_containment_without_a_failing_chain",
        ),
    ),
    Mutant(
        "partial-negative-subtrees-cut",
        # The pruned miner cuts below an infrequent negative node under
        # partial non-inclusion too, where growing the negative can regain
        # support.
        "negseq/mining.py",
        "        elif cut_negatives:\n",
        "        else:\n",
        (
            "tests/test_mining.py::TestPruned::test_partial_growth_regains_support",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[weak-soft-partial]",
        ),
    ),
    Mutant(
        "item-token-whitespace-narrowed",
        # The item-token rule stops at ASCII blanks only, so a form feed or
        # a non-ASCII space becomes part of an item.
        "negseq/model.py",
        'ITEM_TOKEN = re.compile("[^\\\\s"',
        'ITEM_TOKEN = re.compile("[^ \\\\t\\\\n\\\\r"',
        (
            "tests/test_model.py::TestTokens::test_rejected",
            "tests/test_textio.py::test_token_regex_agrees_with_character_loop",
        ),
    ),
    Mutant(
        "soft-partial-ignores-long-gaps",
        # The soft-partial slot test passes every gap of three or more
        # itemsets in the per-sequence core.
        "negseq/matching.py",
        "        for smask in seq_masks[lo[i] + 1 : hi[i + 1]]:\n",
        "        gap = seq_masks[lo[i] + 1 : hi[i + 1]]\n"
        "        for smask in () if slot_test == 2 and len(gap) >= 3 else gap:\n",
        (
            # The lemma suite, as ``verify --suite lemmas`` runs it.
            "tests/test_orders.py::TestSuites::test_invariant_harness",
            "tests/test_cli.py::test_verify_output_matches_golden[lemmas-extra3-text]",
            "tests/test_acceptance.py::test_criterion_6_equivalence_classes",
            "tests/test_orders.py::TestDominanceScan::test_grid_masks_equal_pairwise_theta_bits",
            "tests/test_matching.py::test_strong_is_positive_containment_without_a_failing_chain",
        ),
    ),
    Mutant(
        "soft-total-tests-as-soft-partial",
        # The soft-total combo applies the soft-partial slot test.
        "negseq/matching.py",
        "_COMBO_TEST = (1, 2, 4, 4)\n",
        "_COMBO_TEST = (1, 2, 4, 2)\n",
        (
            "tests/test_matching.py::TestCheckEmbedding::test_single_item_gap",
            "tests/test_matching.py::TestSupport::test_total_non_inclusion_on_comparison_db",
            "tests/test_orders.py::TestEquivalenceClasses::test_general_space_has_six_classes",
            "tests/test_orders.py::TestSuites::test_invariant_harness",
            "tests/test_cli.py::test_mine_output_matches_golden[small-bounds0-8-weak-soft-total]",
            "tests/test_matching.py::test_strong_is_positive_containment_without_a_failing_chain",
        ),
    ),
    Mutant(
        "partial-blockers-swapped",
        # The vertical engine blocks a strict-partial gap by the cells that
        # hold the whole negative, and a soft-partial one item by item.
        "negseq/matching.py",
        "            if test == 2:\n                cells = [reduce(and_, cells)]\n",
        "            if test == 1:\n                cells = [reduce(and_, cells)]\n",
        (
            "tests/test_matching.py::TestVerticalEdgeCases::test_pinned_partial_modes",
            "tests/test_orders.py::TestDominanceScan::test_grid_masks_equal_pairwise_theta_bits[False]",
            "tests/test_orders.py::TestSuites::test_dominance_suite_is_clean",
            "tests/test_cli.py::test_mine_output_matches_golden[small-bounds0-8-weak-soft-partial]",
        ),
    ),
    Mutant(
        "soft-partial-inclusion-reversed",
        # The soft-partial slot test asks whether the gap itemset is inside
        # the negative, not the negative inside the gap itemset.
        "negseq/matching.py",
        "        return qmask if qmask & smask == qmask else 0\n",
        "        return qmask if qmask & smask == smask else 0\n",
        (
            "tests/test_orders.py::TestSuites::test_invariant_harness",
            "tests/test_matching.py::test_vertical_engine_agrees_with_theta_bits",
            "tests/test_mining.py::TestPruned"
            "::test_agrees_with_bruteforce_on_random_instances[weak-soft-partial]",
            "tests/test_matching.py::test_strong_is_positive_containment_without_a_failing_chain",
        ),
    ),
    Mutant(
        "violator-slots-first-to-last",
        # The violator scan tries the slots first to last, so it returns a
        # failing placement that is not the lexicographically first one.
        "negseq/matching.py",
        "    for i in range(len(tests) - 1, -1, -1):\n",
        "    for i in range(len(tests)):\n",
        (
            "tests/test_matching.py::TestContains::test_violator_comes_from_the_last_failing_slot",
        ),
    ),
    Mutant(
        "count-window-off-by-one",
        # The embedding count takes the previous positive's full count one
        # index before the end of its window.
        "negseq/matching.py",
        "count += ways[x] if x < end else ways[end]",
        "count += ways[x] if x < end - 1 else ways[end]",
        (
            "tests/test_cli.py::TestMatchCommand::test_first_violator_beyond_a_million_embeddings",
        ),
    ),
    Mutant(
        "lemma-bit-table-misses-a-pair",
        # The lemma harness's table from theta_bits to failures leaves out
        # the first strong-over-weak pair.
        "negseq/orders.py",
        "(names[5], strong_weak)",
        "(names[5], strong_weak[1:])",
        (
            "tests/test_orders.py::TestSuites::test_invariant_harness_reports_failures",
        ),
    ),
    Mutant(
        "sample-pool-swap-off-by-one",
        # Above six items, the pool path of the sample replay moves the
        # wrong entry into the drawn index.
        "negseq/orders.py",
        "            pool[j] = pool[n - i - 1]\n",
        "            pool[j] = pool[n - i - 2]\n",
        (
            "tests/test_orders.py::TestDrawReplay::test_sample_mask_equals_the_stdlib_sample",
            "tests/test_orders.py::TestDrawReplay::test_patterns_and_sequences_equal_the_stdlib_draws",
        ),
    ),
    Mutant(
        "draw-tree-swap-off-by-one",
        # Up to six items, the draw tree moves the wrong entry of the pool
        # into the drawn index.
        "negseq/orders.py",
        "        rest[j] = rest[last]\n",
        "        rest[j] = rest[last - 1]\n",
        (
            "tests/test_orders.py::TestDrawReplay",
            "tests/test_orders.py::TestSuites::test_invariant_harness_reports_failures",
            "tests/test_orders.py::TestSuites::test_invariant_harness_sees_a_broken_slot_test",
        ),
    ),
    Mutant(
        "draw-tree-folds-instead-of-redrawing",
        # A drawn value past the range is folded into it instead of drawn
        # again, so the replay takes fewer words than the standard library.
        "negseq/orders.py",
        "kid(j) if j < m else node for j in range(1 << bits)",
        "kid(j % m) for j in range(1 << bits)",
        (
            "tests/test_orders.py::TestDrawReplay",
            "tests/test_orders.py::TestSuites::test_invariant_harness_reports_failures",
            "tests/test_orders.py::TestSuites::test_invariant_harness_sees_a_broken_slot_test",
        ),
    ),
    Mutant(
        "positive-part-cache-keyed-on-length",
        # The lemma harness reuses the positive part of any earlier pattern
        # with as many positives.
        "negseq/orders.py",
        "        pplus = positive_parts.get(p.positive_masks)\n"
        "        if pplus is None:\n"
        "            pplus = positive_parts[p.positive_masks] = positive_part(p)\n",
        "        pplus = positive_parts.get(len(p.positives))\n"
        "        if pplus is None:\n"
        "            pplus = positive_parts[len(p.positives)] = positive_part(p)\n",
        (
            "tests/test_orders.py::TestSuites::test_invariant_harness",
            "tests/test_cli.py::test_verify_output_matches_golden[lemmas-extra3-text]",
            "tests/test_orders.py::TestSuites::test_invariant_harness_sees_a_broken_slot_test",
        ),
    ),
    Mutant(
        "placement-memo-keyed-on-length",
        # The bruteforce miner reuses the placements of any earlier pattern
        # with as many positives.
        "negseq/mining.py",
        "        if pattern.positive_masks != memo_key:\n"
        "            memo_key = pattern.positive_masks\n",
        "        if len(pattern.positive_masks) != memo_key:\n"
        "            memo_key = len(pattern.positive_masks)\n",
        (
            "tests/test_mining.py::TestBruteforceSharedPlacements::test_equals_the_naive_loop",
            "tests/test_mining.py::TestBruteforce::test_rule_pattern_is_found",
            "tests/test_mining.py::TestPruned::test_three_step_patterns_and_strong_occurrence",
        ),
    ),
    Mutant(
        "placed-latest-is-the-earliest",
        # The shared placements store the earliest placement as the latest,
        # so strong occurrence tests the first embedding's gaps only and the
        # weak search stops at the first placement's last positive.
        "negseq/matching.py",
        "            placed.append((seq_masks, first, _latest(pos_masks, seq_masks)))\n",
        "            placed.append((seq_masks, first, first))\n",
        (
            "tests/test_mining.py::test_counting_over_placements_sums_the_decisions",
            "tests/test_mining.py::TestBruteforceSharedPlacements::test_equals_the_naive_loop",
            "tests/test_mining.py::TestPruned::test_three_step_patterns_and_strong_occurrence",
        ),
    ),
    Mutant(
        "existence-exit-at-every-level",
        # The existence form of the weak search stops at the first passing
        # index of any level, though only the first positive's completes.
        "negseq/matching.py",
        "                    if i == stop:\n",
        "                    if not witness:\n",
        (
            "tests/test_matching.py::TestContains"
            "::test_existence_search_stops_only_at_the_first_positive",
            "tests/test_matching.py::test_existence_search_agrees_with_the_witness_search",
            "tests/test_matching.py::test_decisions_agree_with_quantifier_expansion_on_long_inputs",
        ),
    ),
    Mutant(
        "unclosed-group-read-to-the-end",
        # The native line reader takes a '(' with no ')' after it as a group
        # that runs to the end of the line, or to the next '('.
        "negseq/textio.py",
        "            if not closed or not members or \")\" in after:\n",
        "            if not members or \")\" in after:\n",
        (
            "tests/test_textio.py::TestNativeFormat::test_unclosed_itemset",
            "tests/test_textio.py::TestNativeFormat::test_errors_carry_line_and_column",
        ),
    ),
    Mutant(
        "empty-group-reaches-the-mask",
        # The native line reader lets '()' through to the mask of its
        # members, which has none.
        "negseq/textio.py",
        "            if not closed or not members or \")\" in after:\n",
        "            if not closed or \")\" in after:\n",
        (
            "tests/test_textio.py::TestNativeFormat::test_empty_itemset_error",
            "tests/test_textio.py::TestNativeFormat::test_errors_carry_line_and_column",
            "tests/test_textio.py::test_sequence_reader_agrees_with_the_token_rule",
        ),
    ),
    Mutant(
        "stray-close-bracket-after-a-group-read-as-a-token",
        # The native line reader no longer rejects a ')' after a group's
        # own, so the lookup registers a token that holds it.
        "negseq/textio.py",
        "            if not closed or not members or \")\" in after:\n",
        "            if not closed or not members:\n",
        (
            "tests/test_textio.py::TestNativeFormat::test_errors_carry_line_and_column",
            "tests/test_textio.py::TestNativeFormat"
            "::test_rejected_sequence_registers_the_tokens_before_its_error",
        ),
    ),
    Mutant(
        "stray-close-bracket-before-any-group-read-as-a-token",
        # The native line reader no longer rejects a ')' before the line's
        # first '(', so the lookup registers a token that holds it.
        "negseq/textio.py",
        ' and ")" not in head:\n',
        ":\n",
        (
            "tests/test_textio.py::TestNativeFormat::test_stray_reserved_character",
            "tests/test_textio.py::TestNativeFormat"
            "::test_rejected_sequence_registers_the_tokens_before_its_error",
            "tests/test_textio.py::test_database_reader_agrees_with_the_token_rule",
            "tests/test_textio.py::test_sequence_reader_agrees_with_the_token_rule",
        ),
    ),
    Mutant(
        "line-check-misses-a-reserved-character",
        # The per-line search no longer looks for '!', so a token that holds
        # one is registered.
        "negseq/textio.py",
        'RESERVED_CHARS - {"(", ")"}',
        'RESERVED_CHARS - {"(", ")", "!"}',
        (
            "tests/test_textio.py::TestNativeFormat::test_errors_carry_line_and_column",
            "tests/test_textio.py::TestNativeFormat"
            "::test_rejected_sequence_registers_the_tokens_before_its_error",
            "tests/test_textio.py::test_database_reader_agrees_with_the_token_rule",
        ),
    ),
    Mutant(
        "all-thetas-table-swaps-true-and-false",
        # Every verdict cell of a match --all-thetas row reads the opposite
        # of its relation bit.
        "negseq/cli.py",
        '"true" if bits >> t & 1 else "false"',
        '"false" if bits >> t & 1 else "true"',
        (
            "tests/test_cli.py::test_match_all_thetas_matches_golden",
            "tests/test_cli.py::TestMatchCommand::test_all_thetas_matrix",
        ),
    ),
    Mutant(
        "database-check-misses-the-top-item",
        # The database's one-pass check lets through a mask of the first
        # item id past the dictionary.
        "negseq/model.py",
        "        if max(masks, default=0) >= bound:\n",
        "        if max(masks, default=0) > bound:\n",
        (
            "tests/test_model.py::TestSequenceDatabase::test_dictionary_covers_items",
            "tests/test_model.py::TestSequenceDatabase"
            "::test_sequences_without_itemsets_pass_the_check",
        ),
    ),
    Mutant(
        "itemset-read-not-from-the-load-table",
        # Reading a loaded sequence's itemsets builds a fresh Itemset for
        # each mask instead of taking the one its load's table holds.
        "negseq/model.py",
        "                    itemset = table.setdefault(key, Itemset(mask))\n",
        "                    itemset = Itemset(mask)\n",
        (
            "tests/test_textio.py::test_each_distinct_mask_is_one_shared_itemset",
            "tests/test_textio.py::test_database_reader_agrees_with_the_token_rule",
        ),
    ),
    Mutant(
        "sequence-equality-on-the-unread-slot",
        # Sequences compare the slot that holds their itemsets once built,
        # so a loaded sequence that nothing has read compares as no itemsets.
        "negseq/model.py",
        "            return self.itemsets == other.itemsets\n",
        "            return self._itemsets == other._itemsets\n",
        (
            "tests/test_textio.py::test_loaded_sequences_equal_their_rebuilt_form",
            "tests/test_textio.py::test_spmf_sequences_equal_their_rebuilt_form",
        ),
    ),
    Mutant(
        "error-scan-registers-no-items",
        # Wording the error of a rejected line no longer registers the items
        # before it, so parse_sequence leaves a different dictionary behind.
        "negseq/textio.py",
        "            dictionary.add(token)\n            empty = False\n",
        "            empty = False\n",
        (
            "tests/test_textio.py::test_sequence_reader_agrees_with_the_token_rule",
        ),
    ),
    Mutant(
        "byte-order-mark-kept",
        # A database file is read as plain UTF-8, so a byte-order mark
        # becomes part of the first token.
        "negseq/textio.py",
        'encoding="utf-8-sig"',
        'encoding="utf-8"',
        (
            "tests/test_textio.py::TestRoundTrips::test_byte_order_mark_is_not_part_of_the_first_token",
        ),
    ),
    Mutant(
        "plan-reuses-one-slot-tests-list",
        # A plan gives every weak search the first list it built, whatever
        # that list's slot test.
        "negseq/matching.py",
        "            tests = searches.get(test)\n",
        "            tests = searches.get(test) or next(iter(searches.values()), None)\n",
        (
            "tests/test_matching.py::TestSupport"
            "::test_each_relation_searches_with_its_own_slot_test",
            "tests/test_matching.py::TestContains::test_weak_needs_a_later_embedding",
            "tests/test_matching.py::test_decisions_agree_with_quantifier_expansion_on_long_inputs",
        ),
    ),
    Mutant(
        "pair-index-partial-fit-flipped",
        # Under the partial variant a negative fits a span whose union
        # includes it, as under the total variant, not one inside it.
        "negseq/orders.py",
        "        return _union(bits for m, bits in cells if not m & ~v)\n",
        "        return _union(bits for m, bits in cells if not v & ~m)\n",
        (
            "tests/test_orders.py::TestComparablePairs"
            "::test_default_space_equals_all_pairs_filter[OrderKind.EMBED_INCL-NonInclusion.PARTIAL]",
            "tests/test_orders.py::TestComparablePairs"
            "::test_default_space_equals_all_pairs_filter[OrderKind.PREFIX_INCL-NonInclusion.PARTIAL]",
            "tests/test_orders.py::TestComparablePairs::test_random_spaces_equal_all_pairs_filter",
            "tests/test_orders.py::test_comparable_pairs_equal_all_pairs_filter",
        ),
    ),
    Mutant(
        "pair-index-embed-keeps-equal-masks",
        # Embed-incl no longer excludes the patterns with the same masks, so
        # every pattern precedes itself.
        "negseq/orders.py",
        "        x = _union(reach(a, q)) & ~same[same_key(a, q)]\n",
        "        x = _union(reach(a, q)) & ~(not embed and same[same_key(a, q)])\n",
        (
            "tests/test_orders.py::TestComparablePairs"
            "::test_default_space_equals_all_pairs_filter[OrderKind.EMBED_INCL-NonInclusion.TOTAL]",
            "tests/test_orders.py::TestComparablePairs::test_random_spaces_equal_all_pairs_filter",
            "tests/test_orders.py::test_comparable_pairs_equal_all_pairs_filter",
        ),
    ),
    Mutant(
        "pair-index-embed-adjacent-places-only",
        # Embed-incl places a positive only right after the previous one, so
        # no positive of the larger pattern is skipped.
        "negseq/orders.py",
        "                & _union(before[s] & fits(s, u, w) for s in range(u) if before[s])\n",
        "                & _union(before[s] & fits(s, u, w) for s in range(u - 1, u) if before[s])\n",
        (
            "tests/test_orders.py::TestComparablePairs"
            "::test_default_space_equals_all_pairs_filter[OrderKind.EMBED_INCL-NonInclusion.TOTAL]",
            "tests/test_orders.py::TestComparablePairs::test_random_spaces_equal_all_pairs_filter",
            "tests/test_orders.py::test_comparable_pairs_equal_all_pairs_filter",
        ),
    ),
    Mutant(
        "pair-index-neg-ext-admits-longer",
        # Neg-ext keeps the patterns that extend the positives with more,
        # as prefix-incl does.
        "negseq/orders.py",
        "        if exact and len(a) < width:\n",
        "        if False:\n",
        (
            "tests/test_orders.py::TestComparablePairs"
            "::test_default_space_equals_all_pairs_filter[OrderKind.NEG_EXT-NonInclusion.TOTAL]",
            "tests/test_orders.py::TestComparablePairs::test_random_spaces_equal_all_pairs_filter",
            "tests/test_orders.py::test_comparable_pairs_equal_all_pairs_filter",
        ),
    ),
    Mutant(
        "pair-index-prefix-any-increasing-positions",
        # Under prefix-incl a positive after the first may sit on any later
        # position, as under embed-incl, not only on its own.
        "negseq/orders.py",
        "                if embed or u == i\n",
        "                if not exact or u == i\n",
        (
            "tests/test_orders.py::TestComparablePairs"
            "::test_default_space_equals_all_pairs_filter[OrderKind.PREFIX_INCL-NonInclusion.TOTAL]",
            "tests/test_orders.py::TestComparablePairs::test_random_spaces_equal_all_pairs_filter",
            "tests/test_orders.py::test_comparable_pairs_equal_all_pairs_filter",
        ),
    ),
)


def _pytest(src: Path, tests: list[str]) -> tuple[set[str], set[str]]:
    """The node ids that pytest reports as passed and as failed, running
    ``tests`` with ``src`` first on PYTHONPATH."""
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run(
        [sys.executable, "-c", "import negseq; print(negseq.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(src):
        sys.exit(f"negseq imports from {where}, not from {src}")
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
            f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests,
        ],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    outcomes: dict[str, set[str]] = {"PASSED": set(), "FAILED": set(), "ERROR": set()}
    for line in result.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in outcomes and rest:
            outcomes[word].add(rest.split(" - ")[0])
    return outcomes["PASSED"], outcomes["FAILED"] | outcomes["ERROR"]


def _covers(test: str, ids: set[str]) -> bool:
    """Does a reported node id belong to ``test``: the test itself, one of
    its parametrized cases, or the file or class that holds it?"""
    return any(
        i == test or i.startswith((test + "[", test + "::")) or test.startswith(i + "::")
        for i in ids
    )


def survivors(mutant: Mutant) -> list[str]:
    """The tests that ``mutant`` names and that do not fail under it."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            sys.exit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times")
        target.write_text(text.replace(mutant.old, mutant.new))
        _, failed = _pytest(src, list(mutant.tests))
    return [test for test in mutant.tests if not _covers(test, failed)]


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    tests = sorted({test for m in chosen for test in m.tests})
    passed, failed = _pytest(SRC, tests)
    broken = [t for t in tests if _covers(t, failed) or not _covers(t, passed)]
    if broken:
        print("the unmutated tree does not pass:", *broken, sep="\n  ")
        return 1
    alive = []
    for mutant in chosen:
        left = survivors(mutant) if mutant.tests else ["(no tests named)"]
        print(f"{mutant.name}: {'survived' if left else 'killed'}")
        for test in left:
            print(f"  passes: {test}")
        if left:
            alive.append(mutant.name)
    print(f"{len(chosen) - len(alive)} of {len(chosen)} mutants killed")
    if alive:
        print("survivors:", *alive, sep="\n  ")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
