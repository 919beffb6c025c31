"""Rewrite rules, proof scripts, the verifier, and the bounded search."""

import random

import pytest

from twistcert import (
    Direction,
    PatternMismatch,
    ProofScript,
    ProofStep,
    Word,
    apply_rule,
    equal_modulo_rules,
    even_power_presentation,
    fixture_path,
    format_script,
    parse_script,
    torus_presentation,
    verify_script,
    word,
)
from twistcert.presentation import SIGMA, Rule

from test_words import random_word

TORUS = torus_presentation()
TORUS_H = torus_presentation(with_h=True)


def step(family, params, direction, pos, pres=TORUS_H):
    return ProofStep(pres.rule(family, params), Direction(direction), pos)


def load_fixture(name):
    return parse_script(fixture_path(name).read_text(), TORUS)


# --- single-step application -------------------------------------------------


def test_braid_example():
    assert apply_rule(word("a1 b a1"), step("BRAID", ("b", "a1"), "RL", 0)) == word("b a1 b")
    assert apply_rule(word("b a2 b"), step("BRAID", ("b", "a2"), "LR", 0)) == word("a2 b a2")


def test_braid_matches_the_all_inverted_pattern_only_uniformly():
    inverted = apply_rule(word("b^-1 a1^-1 b^-1"), step("BRAID", ("b", "a1"), "LR", 0))
    assert inverted == word("a1^-1 b^-1 a1^-1")
    with pytest.raises(PatternMismatch):
        apply_rule(word("b a1^-1 b"), step("BRAID", ("b", "a1"), "LR", 0))


def test_conj_reflect_example():
    assert apply_rule(word("r a2 r"), step("CONJ_REFLECT", ("a2",), "LR", 0)) == word("a3^-1")
    # and back
    assert apply_rule(word("a3^-1"), step("CONJ_REFLECT", ("a2",), "RL", 0)) == word("r a2 r")


def test_commute_example():
    assert apply_rule(word("a3 a2"), step("COMMUTE", ("a2", "a3"), "RL", 0)) == word("a2 a3")
    assert apply_rule(word("a2^-1 a3"), step("COMMUTE", ("a2", "a3"), "LR", 0)) == word("a3 a2^-1")


def test_star_both_orientations_and_signs():
    expansion = word("( b a1 a2 a3 )^3")
    assert apply_rule(word("c1 c2 c3"), step("STAR", (), "LR", 0)) == expansion
    assert apply_rule(expansion, step("STAR", (), "RL", 0)) == word("c1 c2 c3")
    neg = apply_rule(word("c3^-1 c2^-1 c1^-1"), step("STAR", (), "LR", 0))
    assert neg == word("( ( b a1 a2 a3 )^3 )^-1")


def test_reverse_s_and_free_red():
    assert apply_rule(word("s c s^-1"), step("REVERSE_S", ("c",), "LR", 0,
                                             even_power_presentation())) == word("c^-1")
    assert apply_rule(word("b b^-1"), step("FREE_RED", ("b",), "LR", 0)) == Word()
    assert apply_rule(word("a1"), step("FREE_RED", ("c2",), "RL", 1)) == word("a1 c2 c2^-1")
    assert apply_rule(word("r r"), step("FREE_RED", ("r",), "LR", 0)) == Word()


def test_mismatch_carries_position_and_patterns():
    with pytest.raises(PatternMismatch) as exc:
        apply_rule(word("b a1"), step("BRAID", ("b", "a1"), "LR", 1))
    assert exc.value.position == 1


def test_apply_then_inverse_is_identity():
    rng = random.Random(42)
    names = tuple(SIGMA) + ("r",)
    rules = TORUS_H.rules()
    checked = 0
    for _ in range(120):
        w = random_word(rng, rng.randrange(0, 12), names)
        for rule in rules:
            for direction in (Direction.LR, Direction.RL):
                for pos in range(len(w) - rule.pattern_len(direction) + 1):
                    if rule.match(w.letters, pos, direction) is None:
                        continue
                    forward = ProofStep(rule, direction, pos)
                    assert apply_rule(apply_rule(w, forward), forward.inverted()) == w
                    checked += 1
    assert checked > 500


def test_sigma_is_an_involution():
    for name, image in SIGMA.items():
        assert SIGMA[image] == name


def test_illegal_rule_instances_are_rejected():
    for family, params in [("COMMUTE", ("b", "a1")),       # intersecting curves
                           ("BRAID", ("b", "c1")),
                           ("CENTRAL", ("b", "a1")),       # b is not a boundary twist
                           ("CONJ_REFLECT", ("h",)),
                           ("COMMUTE", ("a1", "a1")),
                           ("REVERSE_S", ("b",)),           # b is not the designated curve
                           ("FREE_RED", ("zz",))]:          # zz is no generator
        with pytest.raises(ValueError):
            Rule(family, params)


# --- proof scripts -----------------------------------------------------------


def test_chain_a_fixture_replays():
    script = load_fixture("chain_a.proof")
    assert script.start == word("c1 c2 c3")
    assert script.end == word("( b a2 a3 b a1 a2 )^2")
    report = verify_script(script)
    assert report.ok and report.final == script.end


def test_chain_b_fixture_replays():
    script = load_fixture("chain_b.proof")
    assert script.start == word("c3^-1 a3 a1 b a2 a3 b")
    assert script.end == word("a1 c3^-1 b a2 a3 b a1 a2 a1^-1")
    assert verify_script(script).ok


@pytest.mark.parametrize("name", ["chain_a.proof", "chain_b.proof"])
def test_perturbed_fixture_fails_at_the_broken_step(name):
    script = load_fixture(name)
    for i, st in enumerate(script.steps):
        bumped = list(script.steps)
        bumped[i] = ProofStep(st.rule, st.direction, st.position + 1)
        perturbed = ProofScript(script.start, tuple(bumped), script.end)
        report = verify_script(perturbed)
        assert not report.ok
        # the replay must point at the first genuinely broken line
        current = script.start
        expected = None
        for k, s in enumerate(perturbed.steps, start=1):
            try:
                current = apply_rule(current, s)
            except PatternMismatch:
                expected = k
                break
        assert report.failed_step == (expected if expected is not None
                                      else len(perturbed.steps) + 1)


def test_wrong_end_word_is_reported_after_the_last_step():
    script = load_fixture("chain_a.proof")
    broken = ProofScript(script.start, script.steps, word("b"))
    report = verify_script(broken)
    assert not report.ok and report.failed_step == len(script.steps) + 1


def test_script_text_round_trip():
    script = load_fixture("chain_a.proof")
    assert parse_script(format_script(script), TORUS) == script


def test_script_parser_rejects_bad_labels():
    text = "start: b\nstep 2: COMMUTE(a1,a2) LR @ 0\nend: b\n"
    with pytest.raises(Exception):
        parse_script(text, TORUS)


def test_inverted_script_replays_backwards():
    script = load_fixture("chain_a.proof")
    assert verify_script(script.inverted()).ok


# --- bounded bidirectional search --------------------------------------------


def test_search_finds_the_braid_relation():
    result = equal_modulo_rules(word("a1 b a1"), word("b a1 b"), budget=10)
    assert result.status == "equal"
    assert result.witness is not None and verify_script(result.witness).ok


def test_search_cannot_prove_distinct_generators_equal():
    assert equal_modulo_rules(word("b"), word("a1"), budget=25).status == "unknown"


def test_search_star_relation():
    result = equal_modulo_rules(word("( b a1 a2 a3 )^3"), word("c1 c2 c3"), budget=1000)
    assert result.status == "equal"
    witness = result.witness
    assert witness.start == word("( b a1 a2 a3 )^3") and witness.end == word("c1 c2 c3")
    assert verify_script(witness).ok


def test_search_is_deterministic():
    a = equal_modulo_rules(word("a1 b a1"), word("b a1 b"), budget=10)
    b = equal_modulo_rules(word("a1 b a1"), word("b a1 b"), budget=10)
    assert a.witness == b.witness


def test_search_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        equal_modulo_rules(word("b"), word("b"), budget=0)


def test_search_identical_words_give_an_empty_witness():
    result = equal_modulo_rules(word("b a1"), word("b a1"), budget=1)
    assert result.status == "equal" and result.witness.steps == ()
