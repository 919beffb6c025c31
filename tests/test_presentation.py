"""Rewrite rules, proof scripts, the verifier, and the bounded search."""

import hashlib
import random

import pytest

from twistcert import (
    Direction,
    PatternMismatch,
    ProofScript,
    ProofStep,
    Word,
    equal_modulo_rules,
    even_power_presentation,
    fixture_path,
    format_script,
    parse_script,
    torus_presentation,
    verify_script,
    word,
)
from twistcert import presentation
from twistcert.certificates import ScriptBuilder, build_rel1, mirror_local_steps
from twistcert.presentation import SIGMA, Rule, ScriptSyntaxError, UnknownRule, rewrite
from twistcert.words import Letter

from test_words import random_word

TORUS = torus_presentation()
TORUS_H = torus_presentation(with_h=True)
_TWISTS = ("b", "a1", "a2", "a3", "c1", "c2", "c3")


def apply_rule(w, step):
    """A step applied to a word; raise PatternMismatch if it does not fit."""
    letters = list(w.letters)
    rewrite(letters, step)
    return Word(tuple(letters))


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
                           ("COMMUTE", ("a2", "a1")),       # no rule set lists the reversed pair
                           ("REVERSE_S", ("b",)),           # b is not the designated curve
                           ("FREE_RED", ("zz",))]:          # zz is no generator
        with pytest.raises(ValueError):
            Rule(family, params)
    # a library caller asking a presentation for one gets the KeyError
    # UnknownRule; parse_script names the script line instead
    with pytest.raises(UnknownRule, match=r"^COMMUTE\(a1,a1\) is not in presentation 'torus'$"):
        TORUS.rule("COMMUTE", ("a1", "a1"))


def test_rule_tables_must_be_inverse_bijections(monkeypatch):
    # a^e -> a2 rewrites two segments to one, so its RL table could not
    # undo its LR steps
    monkeypatch.setattr(presentation, "_equations", lambda family, params: [("a1^e", "a2")])
    with pytest.raises(ValueError, match="rewrites two segments to one"):
        Rule("COMMUTE", ("a1", "a2"))


# --- moves: a rule in one direction ---------------------------------------------


_EVERY_MOVE = [move for rule in presentation.every_rule().rules() for move in rule.moves.values()]
# r is its own inverse as a group element, but r^-1 is no letter of a rule
_UNMIRRORED = sorted([*(f"CONJ_REFLECT({g}) {d}" for g in _TWISTS for d in ("LR", "RL")),
                      "FREE_RED(r) LR", "FREE_RED(r) RL"])


def _inverse_word(letters):
    return [lt.inverse() for lt in reversed(letters)]


def test_every_move_is_undone_by_its_inverse():
    assert len(_EVERY_MOVE) == 152
    for move in _EVERY_MOVE:
        inverse = move.inverse
        assert inverse.inverse is move and inverse is not move
        assert move.rule.moves[move.direction] is move and inverse.rule is move.rule
        assert inverse.table == {repl: seg for seg, repl in move.table.items()}
        assert len(set(move.table.values())) == len(move.table)
        assert {len(seg) for seg in move.table} == {move.length}
        assert move.text == f"{move.rule.render()} {move.direction.value} @ "


def test_every_mirrored_move_rewrites_the_inverse_word():
    """A move at p on w, and its mirror at |w| - p - len(segment) on w^-1,
    give inverse words; mirror_local_steps makes that step."""
    rng = random.Random(27)
    names = tuple(SIGMA) + ("r", "h", "s", "c")
    mirrored = [move for move in _EVERY_MOVE if move.mirror is not None]
    assert len(mirrored) == 136
    for move in mirrored:
        assert move.mirror.rule is move.rule
        for seg in move.table:
            head = list(random_word(rng, rng.randrange(4), names).letters)
            w = [*head, *seg, *random_word(rng, rng.randrange(4), names).letters]
            forward, backward = list(w), _inverse_word(w)
            move.apply(forward, len(head))
            pos = len(w) - len(head) - move.length
            move.mirror.apply(backward, pos)
            assert backward == _inverse_word(forward), move.name
            single = ProofStep(move.rule, move.direction, len(head))
            assert mirror_local_steps([single], len(w)) == (
                ProofStep(move.rule, move.mirror.direction, pos),)


def test_the_moves_without_a_mirror_are_pinned_and_refused():
    unmirrored = [move for move in _EVERY_MOVE if move.mirror is None]
    assert sorted(move.name for move in unmirrored) == _UNMIRRORED
    for move in unmirrored:
        with pytest.raises(ValueError) as exc:
            mirror_local_steps([ProofStep(move.rule, move.direction, 0)], move.length)
        assert str(exc.value) == f"{move.name} steps cannot be mirrored"


def test_both_spellings_of_torus_h_share_one_presentation():
    assert torus_presentation(True) is torus_presentation(with_h=True)


_RULE_SETS = {"torus": TORUS, "torus+h": TORUS_H, "even-power": even_power_presentation()}


@pytest.mark.parametrize("name, digest", [
    ("torus", "2f50b7ffef8537dee0797d453e1c72ef331492de0ba0908b3068aa09dde7cd00"),
    ("torus+h", "283158d2cea4298776f5ccf9389f6c1a081f26ef62fc6eeaa09d9f441715acdc"),
    ("even-power", "375a1b16912cae2457432fd8378efb7e8c726a98b3651cc7520a7ceb59d8623d"),
])
def test_each_rule_set_is_pinned_in_order(name, digest):
    # the search tries rules in text order, but the benchmark's search
    # workload draws its inputs from torus+h in this order
    texts = "|".join(rule.render() for rule in _RULE_SETS[name].rules())
    assert hashlib.sha256(texts.encode()).hexdigest() == digest


def test_every_rule_set_shares_the_one_rule_table():
    table = presentation.every_rule()
    assert len(table.rules()) == 76
    for pres in _RULE_SETS.values():
        for rule in pres.rules():
            assert table.rule(rule.family, rule.params) is rule, rule.render()


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
    # each fixture is the text format_script writes, byte for byte
    for name in ("chain_a.proof", "chain_b.proof"):
        data = fixture_path(name).read_bytes()
        assert data == format_script(parse_script(data.decode(), TORUS)).encode()


def test_script_parser_rejects_bad_labels():
    text = "start: b\nstep 2: COMMUTE(a1,a2) LR @ 0\nend: b\n"
    with pytest.raises(Exception):
        parse_script(text, TORUS)


SHARED_TEXT_SCRIPT = ["start: a1 a2", "step 1: COMMUTE(a1,a2) LR @ 0",
                      "step 2: COMMUTE(a1,a2) RL @ 0", "step 3: COMMUTE(a1,a2) LR @ 0",
                      "end: a2 a1"]


def test_parsed_scripts_share_one_step_per_distinct_text():
    script = parse_script("\n".join(SHARED_TEXT_SCRIPT) + "\n", TORUS)
    assert script.steps == (step("COMMUTE", ("a1", "a2"), "LR", 0, TORUS),
                            step("COMMUTE", ("a1", "a2"), "RL", 0, TORUS),
                            step("COMMUTE", ("a1", "a2"), "LR", 0, TORUS))
    assert script.steps[0] is script.steps[2]
    assert verify_script(script).ok


_STEP = "step 3: COMMUTE(a1,a2) LR @ 0"


# Line 4 of SHARED_TEXT_SCRIPT replaced, and the error that names it.
@pytest.mark.parametrize("line, expected", [
    ("step 4: COMMUTE(a1,a2) LR @ 0",
     f"expected {_STEP!r}, found 'step 4: COMMUTE(a1,a2) LR @ 0'"),
    ("step 4: COMMUTE(a1,a3) LR @ 0",
     "expected 'step 3: COMMUTE(a1,a3) LR @ 0', found 'step 4: COMMUTE(a1,a3) LR @ 0'"),
    ("step 03: COMMUTE(a1,a2) LR @ 0",
     f"expected {_STEP!r}, found 'step 03: COMMUTE(a1,a2) LR @ 0'"),
    ("step 02: COMMUTE(a1,a2) LR @ 0",
     f"expected {_STEP!r}, found 'step 02: COMMUTE(a1,a2) LR @ 0'"),
    ("step 3: COMMUTE(a1,a2) LR @ 0  # again",
     "cannot parse 'step 3: COMMUTE(a1,a2) LR @ 0  # again'"),
    ("step 3: COMMUTE(a1,a2) LR @ 00",
     f"expected {_STEP!r}, found 'step 3: COMMUTE(a1,a2) LR @ 00'"),
    ("step 3:  COMMUTE(a1,a2) LR @ 0", "cannot parse 'step 3:  COMMUTE(a1,a2) LR @ 0'"),
    ("step 3: COMMUTE(a1,a2)  LR @ 0", "cannot parse 'step 3: COMMUTE(a1,a2)  LR @ 0'"),
    ("step  3: COMMUTE(a1,a2) LR @ 0",
     f"expected {_STEP!r}, found 'step  3: COMMUTE(a1,a2) LR @ 0'"),
    ("step 5: COMMUTE(a1,a1) LR @ 0", "COMMUTE(a1,a1) is not in presentation 'torus'"),
    ("step 3: COMMUTE(a1,a1) LR @ 0", "COMMUTE(a1,a1) is not in presentation 'torus'"),
    ("step 5: nonsense", "cannot parse 'step 5: nonsense'"),
], ids=["repeat-wrong-label", "new-wrong-label", "leading-zero", "leading-zero-wrong",
        "trailing-comment", "position-00", "double-space-after-colon",
        "double-space-before-direction", "double-space-in-label", "unknown-rule-wrong-label",
        "unknown-rule", "garbage-wrong-label"])
def test_shared_step_parse_keeps_every_step_and_error(line, expected):
    lines = list(SHARED_TEXT_SCRIPT)
    lines[3] = line
    with pytest.raises(ScriptSyntaxError) as info:
        parse_script("\n".join(lines) + "\n", TORUS)
    assert str(info.value) == f"line 4: {expected}"


@pytest.mark.parametrize("text, expected", [
    ("start: b\nend: b", "line 2: expected 'end: b\\n', found 'end: b'"),
    ("start: b\nstep 1: FREE_RED(b) RL @ 1\n",
     "line 2: expected an end line after 'step 1: FREE_RED(b) RL @ 1'"),
    ("start: b", "line 1: expected an end line after 'start: b'"),
    ("start: b\nend: b\nend: b\n", "line 3: expected the end of the text, found 'end: b'"),
    ("", "line 1: cannot parse ''"),
], ids=["no-final-line-feed", "no-end-line", "start-line-only", "second-end-line", "empty"])
def test_a_script_text_ends_with_its_end_line_and_line_feed(text, expected):
    with pytest.raises(ScriptSyntaxError) as info:
        parse_script(text, TORUS)
    assert str(info.value) == expected


# --- scripts read and written in windows ---------------------------------------
#
# format_script and parse_script work _CHUNK lines at a time; rel1 at n = 64
# has three windows of steps and a partial fourth.


def _long_script_lines():
    script = build_rel1(64).script
    assert len(script.steps) > 3 * presentation._CHUNK
    return script, format_script(script).split("\n")


def test_a_long_script_is_written_and_read_in_windows():
    script, lines = _long_script_lines()
    text = "\n".join(lines)
    assert text == "\n".join([f"start: {script.start}",
                              *(f"step {i}: {s.render()}" for i, s in enumerate(script.steps, 1)),
                              f"end: {script.end}", ""])
    assert parse_script(text, TORUS) == script
    assert format_script(script, "  ") == "".join(f"  {line}\n" for line in lines[:-1])
    assert parse_script(format_script(script, "  "), TORUS, indent="  ") == script


_W = presentation._CHUNK


@pytest.mark.parametrize("number", [2, _W, _W + 1, _W + 2, 2 * _W + 1, 3 * _W + 7, -3],
                         ids=lambda number: f"line{number}")
@pytest.mark.parametrize("edit, message", [
    (lambda line: line.replace(" @ ", " @ 0"), "expected {want!r}, found {found!r}"),
    (lambda line: line.replace(": ", ":  ", 1), "cannot parse {found!r}"),
    (lambda line: line.replace("step", "Step"), "expected {want!r}, found {found!r}"),
    (lambda line: line + "x" * 10 ** 6, "cannot parse {found!r}"),
    (lambda line: line.replace("(", "(zz,", 1), "{rule} is not in presentation 'torus'"),
], ids=["leading-zero", "double-space", "capital", "a-million-letters", "unknown-rule"])
def test_a_long_script_is_refused_at_its_line_in_any_window(number, edit, message):
    script, lines = _long_script_lines()
    if number < 0:  # counted back from the end line
        number += len(lines)
    want = lines[number - 1]
    lines[number - 1] = found = edit(want)
    rule = found.partition(": ")[2].partition(")")[0] + ")"
    with pytest.raises(ScriptSyntaxError) as info:
        parse_script("\n".join(lines), TORUS)
    assert str(info.value) == f"line {number}: " + message.format(want=want, found=found,
                                                                    rule=rule)


def test_inverted_script_replays_backwards():
    script = load_fixture("chain_a.proof")
    assert verify_script(script.inverted()).ok


# --- in-place replay ------------------------------------------------------------
#
# Replay rewrites one list of letters with slice assignment, which wraps a
# negative index and would write a partial segment if a check came late.


@pytest.mark.parametrize("pos", [-1, 3])
def test_free_red_insertion_outside_the_word_is_rejected(pos):
    # FREE_RED RL has an empty pattern, so only the bounds check stops it
    start = word("a1 a2")
    script = ProofScript(start, (step("COMMUTE", ("a1", "a2"), "LR", 0),
                                 step("FREE_RED", ("b",), "RL", pos)), word("a2 a1 b b^-1"))
    report = verify_script(script)
    assert not report.ok and report.failed_step == 2
    assert report.message == f"expected FREE_RED(b) RL at position {pos}, found <out of range>"
    assert report.final == word("a2 a1")


@pytest.mark.parametrize("pos, found", [(0, "a2 a1 b"), (1, "a1 b")])
def test_mismatch_reports_the_word_before_the_failed_step(pos, found):
    script = ProofScript(word("a1 a2 b"), (step("COMMUTE", ("a1", "a2"), "LR", 0),
                                           step("BRAID", ("b", "a1"), "LR", pos)), word("b"))
    report = verify_script(script)
    assert not report.ok and report.failed_step == 2
    assert report.message == f"expected BRAID(b,a1) LR at position {pos}, found {found}"
    assert report.final == word("a2 a1 b")


def test_builder_word_is_unchanged_after_a_failed_step():
    builder = ScriptBuilder(word("a1 a2 b"), TORUS)
    builder.apply("COMMUTE", ("a1", "a2"), Direction.LR, 0)
    for family, params, direction, pos in [("BRAID", ("b", "a1"), Direction.LR, 1),
                                           ("FREE_RED", ("b",), Direction.RL, -1),
                                           ("FREE_RED", ("b",), Direction.RL, 4)]:
        with pytest.raises(PatternMismatch):
            builder.apply(family, params, direction, pos)
        assert builder.word() == word("a2 a1 b")
    script = builder.finish(word("a2 a1 b"))
    assert script.steps == (step("COMMUTE", ("a1", "a2"), "LR", 0, TORUS),)


def test_builder_appends_an_inverted_script_only_from_its_end():
    rel = build_rel1(2).script
    builder = ScriptBuilder(word("a1 a2 b"), TORUS)
    with pytest.raises(AssertionError):
        builder.apply_inverted(rel)
    assert builder.word() == word("a1 a2 b")
    builder = ScriptBuilder(rel.end, TORUS)
    builder.apply_inverted(rel)
    assert builder.finish(rel.start) == rel.inverted()


@pytest.mark.parametrize("n", range(-16, 17))
def test_inverted_rel1_scripts_replay(n):
    # the builder appends them without replaying them
    assert verify_script(build_rel1(n).script.inverted()).ok


def test_match_reads_lists_and_tuples_alike():
    rule = TORUS.rule("BRAID", ("b", "a1"))
    letters = word("a2 b a1 b").letters
    for pos in range(-1, len(letters) + 1):
        assert rule.match(list(letters), pos, Direction.LR) == rule.match(letters, pos,
                                                                          Direction.LR)
    assert rule.match(list(letters), 1, Direction.LR) == word("a1 b a1").letters


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


@pytest.mark.parametrize("budget", [1.5, 2.0, True, "60", None])
def test_search_rejects_a_budget_that_is_not_an_int(budget):
    # 1.5 would act as two expansions and True as one
    with pytest.raises(TypeError, match="budget must be an int"):
        equal_modulo_rules(word("a1 b a1"), word("b a1 b"), budget=budget)


def test_search_identical_words_give_an_empty_witness():
    result = equal_modulo_rules(word("b a1"), word("b a1"), budget=1)
    assert result.status == "equal" and result.witness.steps == ()


def _reference_reduce(letters, rules):
    """Free reduction by replaying FREE_RED LR steps found with the public
    Rule.match, leftmost match first, as (letters, steps)."""
    cancellations = [r for r in rules if r.family == "FREE_RED"]
    steps = []
    while True:
        found = next(((rule, pos) for pos in range(len(letters) - 1) for rule in cancellations
                      if rule.match(letters, pos, Direction.LR) is not None), None)
        if found is None:
            return letters, steps
        rule, pos = found
        letters = letters[:pos] + letters[pos + 2:]
        steps.append(ProofStep(rule, Direction.LR, pos))


def _reference_neighbours(letters, rules):
    """The search's rewrites of a reduced word: every rule but FREE_RED, in
    rule text order, tried in both directions at every position, as
    (spliced word, rule, direction, position)."""
    for rule in sorted(rules, key=Rule.render):
        if rule.family == "FREE_RED":
            continue
        for direction in (Direction.LR, Direction.RL):
            span = rule.pattern_len(direction)
            for pos in range(len(letters) - span + 1):
                repl = rule.match(letters, pos, direction)
                if repl is not None:
                    yield letters[:pos] + repl + letters[pos + span:], rule, direction, pos


# words every rule set must get right: the empty word, every pattern
# length (STAR's 12 letters included) and a pattern ending the word
_EDGE_WORDS = ["", "r", "h b", "b h^-1", "r a2 r", "r r", "s c s^-1", "s^-1 c^-1 s",
               "s c s^-1 s c s^-1", "c^-1 c", "a3^-1", "c1 c2 c3", "c3^-1 c2^-1 c1^-1",
               "( b a1 a2 a3 )^3", "( ( b a1 a2 a3 )^3 )^-1", "a1 ( b a1 a2 a3 )^3 r"]
_NEIGHBOUR_NAMES = {"torus": _TWISTS + ("r", "h"), "torus+h": _TWISTS + ("r", "h"),
                    "even-power": ("c", "s", "b", "r")}
# even-power has one family besides FREE_RED, so it takes eight times the
# random words to compare as many rewrites as the torus rule sets
_NEIGHBOUR_WORDS = {"torus": 1200, "torus+h": 1200, "even-power": 9600}


@pytest.mark.parametrize("name", sorted(presentation.PRESENTATIONS))
def test_segment_lookup_finds_every_rewrite_in_rule_order(name):
    pres = presentation.PRESENTATIONS[name]
    rules = pres.rules()
    rng = random.Random(7)
    words = [word(text) for text in _EDGE_WORDS]
    words += [random_word(rng, rng.randrange(0, 13), _NEIGHBOUR_NAMES[name])
              for _ in range(_NEIGHBOUR_WORDS[name])]
    # the search runs over reduced code strings: encode each word, decode each child
    letter_of = {code: Letter(*pair) for pair, code in presentation._CODES.items()}
    compared = cascades = 0
    for w in words:
        letters, _ = _reference_reduce(w.letters, rules)
        encoded = presentation._encode(letters, presentation._CODES)
        expected = [(*_reference_reduce(spliced, rules), rule, direction, pos, len(spliced))
                    for spliced, rule, direction, pos in _reference_neighbours(letters, rules)]
        # the word at the length limit, one and two letters below it (the
        # even-power rules change a length by two), and the search's slack;
        # the limit bounds the spliced word, before its reduction
        for limit in (len(letters) + extra for extra in (0, 1, 2, presentation.SEARCH_SLACK)):
            found = [(tuple(letter_of[code] for code in child), list(reductions),
                      rule, direction, pos)
                     for child, rule, direction, pos, reductions
                     in presentation._neighbours(encoded, pres._segment_index(), limit)]
            assert found == [n[:-1] for n in expected if n[-1] <= limit], (w, limit)
            compared += len(found)
            cascades += sum(len(n[1]) > 1 for n in found)
    assert compared > 20_000
    assert cascades > 100  # children that cancel more than one pair


@pytest.mark.parametrize("u, v, equal_under", [
    ("s c s^-1 s c s^-1", "c^-1 c^-1", {"even-power"}),
    ("r b r", "b^-1", {"torus", "torus+h"}),
    ("h b", "b h", {"torus+h"}),  # one COMMUTE_H step
])
def test_search_uses_the_given_presentation(u, v, equal_under):
    # each rule set in turn, so an index kept for the wrong one shows
    for _ in range(2):
        for name, pres in presentation.PRESENTATIONS.items():
            result = equal_modulo_rules(word(u), word(v), budget=50, presentation=pres)
            assert result.status == ("equal" if name in equal_under else "unknown"), name
            if result.witness is not None:
                assert verify_script(result.witness).ok
                assert all(s.rule in pres for s in result.witness.steps)


@pytest.mark.parametrize("u, v, expected", [
    # both reduce to c1: the reductions alone are the witness
    ("a1 b b^-1 a1^-1 c1", "c1 a2 a2^-1",
     ["FREE_RED(b) LR @ 1", "FREE_RED(a1) LR @ 0", "FREE_RED(a2) RL @ 1"]),
    # reduce u, one BRAID step, then unreduce v
    ("a1 b a1 c2 c2^-1", "a2 a2^-1 b a1 b",
     ["FREE_RED(c2) LR @ 3", "BRAID(b,a1) RL @ 0", "FREE_RED(a2) RL @ 0"]),
    # a BRAID step whose child cancels at the splice boundary
    ("b^-1 a1 b a1", "a1 b", ["BRAID(b,a1) RL @ 1", "FREE_RED(b^-1) LR @ 0"]),
])
def test_search_starts_at_u_and_ends_at_v_letter_for_letter(u, v, expected):
    result = equal_modulo_rules(word(u), word(v), budget=10)
    assert result.status == "equal"
    witness = result.witness
    assert witness.start.letters == word(u).letters and witness.end.letters == word(v).letters
    assert [s.render() for s in witness.steps] == expected
    assert verify_script(witness).ok


@pytest.mark.parametrize("name", sorted(presentation.PRESENTATIONS))
def test_search_does_not_cancel_r_inverse_r(name):
    # no FREE_RED rule deletes r^-1 r, so b r^-1 r b^-1 never reduces to 1
    pres = presentation.PRESENTATIONS[name]
    for u in ("r^-1 r", "b r^-1 r b^-1"):
        assert equal_modulo_rules(word(u), word(""), budget=60, presentation=pres).status == (
            "unknown")
    result = equal_modulo_rules(word("r^-1 r r"), word("r^-1"), budget=60, presentation=pres)
    if name == "even-power":  # which has no FREE_RED(r)
        assert result.status == "unknown"
    else:
        assert [s.render() for s in result.witness.steps] == ["FREE_RED(r) LR @ 1"]


def test_witness_words_stay_within_the_search_slack():
    # walks from unreduced words, so the witnesses hold FREE_RED steps
    rng = random.Random(9)
    decided = reductions = grew = 0
    for i in range(30):
        u = random_word(rng, 3 + i % 6, _TWISTS + ("r",))
        v = _rewrite_walk(rng, u, 1 + i % 4)
        result = equal_modulo_rules(u, v, budget=60)
        if result.status != "equal":
            continue
        decided += 1
        limit = max(len(u), len(v)) + presentation.SEARCH_SLACK
        current = u
        for s in result.witness.steps:
            current = apply_rule(current, s)
            assert len(current) <= limit, (u, v)
            grew += len(current) > max(len(u), len(v))
            reductions += s.rule.family == "FREE_RED"
        assert current == v
    assert decided >= 25 and reductions >= 20 and grew


# --- golden search outcomes ------------------------------------------------------
#
# The status and witness text of every search in a seeded set of pairs,
# pinned as one SHA-256.  A change to how the search finds rewrites must
# move no verdict and no witness.


def _rewrite_walk(rng, start, steps):
    """A seeded self-avoiding walk of non-FREE_RED steps from ``start``,
    found with the public Rule.match; no step grows the word past
    |start| + 3 letters."""
    rules = [r for r in TORUS_H.rules() if r.family != "FREE_RED"]
    current, seen = start, {start}
    for _ in range(steps):
        children = []
        for rule in rules:
            for direction in (Direction.LR, Direction.RL):
                for pos in range(len(current) - rule.pattern_len(direction) + 1):
                    if rule.match(current.letters, pos, direction) is not None:
                        child = apply_rule(current, ProofStep(rule, direction, pos))
                        if len(child) <= len(start) + 3 and child not in seen:
                            children.append(child)
        if not children:
            break
        current = rng.choice(children)
        seen.add(current)
    return current


def _golden_pairs():
    """40 pairs of a random twist word and a rewrite walk from it, then 20
    pairs of two random twist words; every third searched under torus."""
    rng = random.Random(8)
    pairs = []
    for i in range(60):
        u = random_word(rng, 3 + i % 5, _TWISTS)
        v = (_rewrite_walk(rng, u, 1 + i % 5) if i < 40
             else random_word(rng, 3 + i % 5, _TWISTS))
        pairs.append((u, v, TORUS if i % 3 == 0 else None))
    return pairs


# taken from the search over freely reduced words: 40 "equal" with
# witnesses of 1 to 8 steps (every walk pair), 20 "unknown"
GOLDEN_SEARCH_DIGEST = "73b046eae36b58bfb22a78f59a11dd8787f3c36f01f873ee07764553fcab3145"
# the pairs the search over literal words, FREE_RED insertions included,
# decided at budget 60; the search over reduced words decides each of them
LITERAL_SEARCH_EQUAL = [0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 19, 20, 21,
                        22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 39]


def test_search_outcomes_match_the_golden_digest():
    digest = hashlib.sha256()
    statuses = []
    for u, v, pres in _golden_pairs():
        result = equal_modulo_rules(u, v, budget=60, presentation=pres)
        statuses.append(result.status)
        digest.update(result.status.encode())
        if result.witness is not None:
            assert verify_script(result.witness).ok
            digest.update(format_script(result.witness).encode())
    assert statuses.count("equal") == 40
    assert all(statuses[i] == "equal" for i in LITERAL_SEARCH_EQUAL)
    assert digest.hexdigest() == GOLDEN_SEARCH_DIGEST


# the smallest budget that decides each "equal" pair of _golden_pairs(), in
# order, taken from the search over freely reduced words: one expansion
# more or less is a different search
GOLDEN_SEARCH_BUDGETS = [1, 1, 1, 26, 3, 1, 7, 1, 2, 11, 3, 2, 1, 2, 3, 1, 2, 4, 13, 6,
                         1, 1, 1, 2, 3, 1, 2, 8, 2, 3, 1, 2, 1, 9, 3, 1, 2, 36, 9, 3]


def test_search_decides_each_golden_pair_at_its_pinned_budget():
    equal = [(u, v, pres) for u, v, pres in _golden_pairs()
             if equal_modulo_rules(u, v, budget=60, presentation=pres).status == "equal"]
    assert len(equal) == len(GOLDEN_SEARCH_BUDGETS)
    for (u, v, pres), budget in zip(equal, GOLDEN_SEARCH_BUDGETS):
        found = equal_modulo_rules(u, v, budget=budget, presentation=pres)
        assert found == equal_modulo_rules(u, v, budget=60, presentation=pres), (u, v)
        # u != v, so a budget of 1 is the least that can decide the pair
        if budget > 1:
            short = equal_modulo_rules(u, v, budget=budget - 1, presentation=pres)
            assert short.status == "unknown", (u, v, budget)


_ZZ, _YY = Letter("zz", 1), Letter("yy", 1)
_B = Letter("b", 1)


@pytest.mark.parametrize("u, v, pres, expected", [
    # letters no generator table knows, in words built directly
    (Word((_ZZ, _B, _B.inverse())), Word((_ZZ,)), None,
     "start: zz b b^-1\nstep 1: FREE_RED(b) LR @ 1\nend: zz\n"),
    (Word((_ZZ, _B, _B.inverse(), _YY)), Word((_ZZ, _YY)), None,
     "start: zz b b^-1 yy\nstep 1: FREE_RED(b) LR @ 1\nend: zz yy\n"),
    (Word((_ZZ,)), Word((_YY,)), None, None),
    (Word((_ZZ, _YY)), Word((_YY, _ZZ)), None, None),
    # generators the rule set has no rule for
    (word("s a1 b a1"), word("s b a1 b"), TORUS,
     "start: s a1 b a1\nstep 1: BRAID(b,a1) RL @ 1\nend: s b a1 b\n"),
    (word("s b b^-1"), word("s"), TORUS, "start: s b b^-1\nstep 1: FREE_RED(b) LR @ 1\nend: s\n"),
    (word("s"), word("c"), TORUS, None),
])
def test_search_over_letters_outside_the_code_table(u, v, pres, expected):
    # outcomes taken before the search ran over code strings
    codes = dict(presentation._CODES)
    index = (TORUS_H if pres is None else pres)._segment_index()
    segments = dict(index.segments)
    result = equal_modulo_rules(u, v, budget=10, presentation=pres)
    assert result.status == ("unknown" if expected is None else "equal")
    if expected is not None:
        assert format_script(result.witness) == expected
        assert verify_script(result.witness).ok
    # such a letter gets a code for one search only
    assert presentation._CODES == codes
    assert index.segments == segments
