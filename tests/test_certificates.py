"""End-to-end certificate builders and the verifier."""

import hashlib
import random
import time
from collections import Counter
from dataclasses import replace

import pytest

from twistcert import (
    CurveClass,
    Direction,
    OutOfScope,
    ProofScript,
    ProofStep,
    SurfaceSpec,
    Word,
    build_certificate,
    build_rel1,
    commutator,
    concat,
    conjugate,
    evaluate_rep,
    free_reduce,
    genus3_assignment,
    power,
    select_case,
    torus_presentation,
    verify_certificate,
    verify_script,
    word,
)
from twistcert import certificates
from twistcert.certificates import (CLAIMS, Claim, MembershipRecord, P_WORD, Q_WORD,
                                    ScriptBuilder, _central_move, _repeated,
                                    _row_homology_ok)
from twistcert.homology import ASSIGNMENTS
from twistcert.presentation import (PRESENTATIONS, PatternMismatch, UnknownRule, every_rule,
                                    format_script, parse_script)
from twistcert.cli import CertificateSyntaxError, format_certificate, parse_certificate

from test_homology import mat_eye, oracle_rep
from test_words import random_word

O3 = SurfaceSpec(True, 3)
N7 = SurfaceSpec(False, 7)
NONSEP = CurveClass(separating=False)
SEP_N2_N5 = CurveClass.parse("sep:n2+n5")
NONSEP_NC = CurveClass.parse("nonsep:nc")
NONSEP_OC = CurveClass.parse("nonsep:oc")


# --- the factorisation -------------------------------------------------------


def test_rel1_at_one_matches_the_displayed_word():
    rel = build_rel1(1)
    assert str(rel.lhs) == "c1"
    assert str(rel.rhs) == "b a2 a3 b a1 a2 c2^-1 c3^-1 b a2 a3 b a1 a2"
    assert verify_script(rel.script).ok


def test_rel1_at_zero_is_empty():
    rel = build_rel1(0)
    assert rel.lhs == Word() and rel.rhs == Word()
    assert rel.script.steps == () and verify_script(rel.script).ok


@pytest.mark.parametrize("n", [-2, -1, 2, 3, -5])
def test_rel1_scripts_replay_and_shadow_correctly(n):
    rel = build_rel1(n)
    assert rel.lhs == power(word("c1"), n)
    assert rel.rhs == concat(power(P_WORD, n), power(Q_WORD, n))
    assert verify_script(rel.script).ok
    # independent matrix oracle: both sides act trivially on homology
    assert oracle_rep(rel.lhs) == mat_eye(6)
    assert oracle_rep(rel.rhs) == mat_eye(6)


def test_rel1_script_words_are_literal():
    # the script runs on written sequences: the verifier tolerates no
    # implicit reduction, so replaying the inverse direction works too
    rel = build_rel1(2)
    assert verify_script(rel.script.inverted()).ok



def test_rel1_takes_the_step_counts_of_the_induction():
    """At each k < |n| the next c1 moves left across Q^k, 7k central moves,
    and the unit derivation adds fixed counts: 13 central moves for c1
    and 16 for c1^-1."""
    for n in range(-40, 41):
        m = abs(n)
        central = 7 * m * (m - 1) // 2 + (13 if n > 0 else 16) * m
        counts = Counter(step.rule.family for step in build_rel1(n).script.steps)
        assert +counts == +Counter({"CENTRAL": central, "FREE_RED": 2 * m, "STAR": m,
                                    "COMMUTE": 4 * m, "BRAID": 3 * m}), n


@pytest.mark.parametrize("surface, curve, flavor, n, steps", [
    (O3, NONSEP, "extended-group", 32, 4944),
    (O3, NONSEP, "extended-group", 64, 17056),
    (O3, NONSEP, "extended-group", 128, 62784),
    (SurfaceSpec(False, 8), NONSEP_NC, "twist-subgroup", -64, 17697),
])
def test_large_n_certificates_have_the_step_totals_of_the_induction(surface, curve, flavor,
                                                                     n, steps):
    assert len(build_certificate(surface, curve, n, flavor).script.steps) == steps


# --- certificates ------------------------------------------------------------


def test_theorem1_certificate_shape():
    cert = build_certificate(O3, NONSEP, 1, "extended-group")
    assert str(cert.y) == "a1^-1 r"
    assert cert.x == P_WORD
    assert cert.target == word("c1")
    assert cert.script.start == commutator(cert.x, cert.y)
    assert cert.script.end == cert.target
    assert cert.homology_ok and cert.membership is None
    assert verify_certificate(cert).ok


def test_theorem1_rejects_small_genus():
    with pytest.raises(OutOfScope):
        build_certificate(SurfaceSpec(True, 2), NONSEP, 1, "extended-group")


def test_theorem1_nonorientable_separating():
    cert = build_certificate(N7, SEP_N2_N5, 5, "extended-group")
    assert verify_certificate(cert).ok


def test_theorem2_y_carries_h_exactly_when_needed():
    cert = build_certificate(N7, SEP_N2_N5, 3, "twist-subgroup")
    assert str(cert.y) == "a1^-1 r h"
    assert cert.case.forced_rh and cert.membership.conditional
    assert verify_certificate(cert).ok

    cert = build_certificate(SurfaceSpec(False, 6), NONSEP_OC, 2, "twist-subgroup")
    assert str(cert.y) == "a1^-1 r"
    assert cert.membership.det_x == 1 and cert.membership.det_y == 1
    assert not cert.membership.conditional
    assert verify_certificate(cert).ok


def test_theorem2_out_of_scope():
    with pytest.raises(OutOfScope):
        build_certificate(N7, NONSEP_NC, 1, "twist-subgroup")
    with pytest.raises(OutOfScope):
        build_certificate(SurfaceSpec(False, 8), NONSEP_OC, 1, "twist-subgroup")


def test_even_power_certificates():
    cert = build_certificate(SurfaceSpec(True, 1), NONSEP, 1, "even-power-extended")
    assert str(cert.target) == "c c" and str(cert.x) == "c" and str(cert.y) == "s"
    assert verify_certificate(cert).ok

    cert = build_certificate(N7, NONSEP_NC, 3, "even-power-twist")
    assert cert.flavor == "even-power-twist" and cert.membership.ok
    assert verify_certificate(cert).ok

    cert = build_certificate(N7, NONSEP_NC, 0, "even-power-extended")
    assert cert.target == Word() and verify_certificate(cert).ok


def test_even_power_twist_needs_a_nonorientable_piece():
    with pytest.raises(OutOfScope):
        build_certificate(O3, NONSEP, 1, "even-power-twist")


# --- perturbations must be caught ---------------------------------------------


def test_certificate_with_r_deleted_from_y_fails():
    cert = build_certificate(O3, NONSEP, 2, "extended-group")
    bad_y = word("a1^-1")
    bad = replace(cert, y=bad_y)
    report = verify_certificate(bad)
    assert not report.ok
    assert "commutator" in report.message


def test_certificate_with_broken_script_fails_at_first_reflection_step():
    cert = build_certificate(O3, NONSEP, 1, "extended-group")
    # delete the r letters from the script start: the replay must break at
    # the first step that consumes them
    letters = tuple(lt for lt in cert.script.start.letters if lt.name != "r")
    bad_script = ProofScript(Word(letters), cert.script.steps, cert.script.end)
    bad = replace(cert, script=bad_script)
    report = verify_certificate(bad)
    assert not report.ok and not report.script_ok


def test_twist_certificate_with_odd_reflection_determinant_fails_membership():
    good = build_certificate(SurfaceSpec(False, 6), NONSEP_OC, 1, "twist-subgroup")
    # claim the same y on the genus 8 embedding, whose reflection has
    # determinant -1: case selection has no twist-subgroup case there
    bad = replace(good, surface=SurfaceSpec(False, 8))
    report = verify_certificate(bad)
    assert not report.ok and not report.membership_ok
    assert report.message.startswith("case selection rejects this certificate: orientable "
                                     "complement with genus 0 mod 4")


def test_verifier_reports_rather_than_raises_on_malformed_certificates():
    good = build_certificate(N7, SEP_N2_N5, 1, "twist-subgroup")
    # a twist-subgroup claim on an orientable surface: the determinant
    # homomorphism is undefined there, but verification must stay a report
    report = verify_certificate(replace(good, surface=O3))
    assert not report.ok and "case selection" in report.message

    report = verify_certificate(replace(good, flavor="no-such-flavor"))
    assert not report.ok and "unknown certificate flavor 'no-such-flavor'" in report.message

    # a separating case records no embedding, so the determinant of r is
    # undefined; the record is the claim row's, and x is not the row's word
    good = build_certificate(SurfaceSpec(False, 8), CurveClass.parse("sep:n2+n6"), 2,
                             "twist-subgroup")
    report = verify_certificate(replace(good, x=concat(good.x, word("r"))))
    assert not report.ok and report.membership_ok is False
    assert "; x is not the word that n = 2 and the case require" in report.message


def _edit_fields(text, **values):
    """``text`` with the header line of each key (written with _ for -)
    set to ``key: value``."""
    lines = text.split("\n")
    for i, line in enumerate(lines[:21]):
        key = line.partition(": ")[0]
        if key.replace("-", "_") in values:
            lines[i] = f"{key}: {values[key.replace('-', '_')]}"
    return "\n".join(lines)


def _refused_at(text, message):
    with pytest.raises(CertificateSyntaxError) as exc:
        parse_certificate(text)
    assert str(exc.value) == f"certificate {message}"


def test_verifier_checks_the_recorded_case_against_a_fresh_selection():
    text = format_certificate(build_certificate(N7, SEP_N2_N5, 2, "twist-subgroup"))
    _refused_at(_edit_fields(text, y_choice="r", forced_rh="no", r_det="+1"),
                "line 8: expected 'y-choice: rh', found 'y-choice: r'")
    _refused_at(_edit_fields(text, case="T2-orientable-complement"),
                "line 6: expected 'case: T2-separating', found 'case: T2-orientable-complement'")
    _refused_at(_edit_fields(text, forced_rh="no"),
                "line 11: expected 'forced-rh: yes', found 'forced-rh: no'")


def recorded_determinant_text(r_det):
    """The n = 2 twist-subgroup certificate for ``n:8 sep:n2+n6`` that a
    user-set reflection determinant once produced: y = a1^-1 r for +1 and
    a1^-1 r h for -1, each recording membership-y +1.  At most one of the
    two claims is true.  Its claim, script and model are those of the
    flavour that makes that claim, with the twist-subgroup case lines."""
    surface, curve = SurfaceSpec(False, 8), CurveClass.parse("sep:n2+n6")
    claim = build_certificate(surface, curve, 2,
                              "extended-group" if r_det == 1 else "twist-subgroup")
    return _edit_fields(
        format_certificate(claim), flavor="twist-subgroup", theorem="T2-twist",
        case="T2-separating", r_det=f"{r_det:+d}", forced_rh="no", membership_x="+1",
        membership_y="+1",
        membership_note=f"reflection determinant {r_det:+d} recorded for the embedding")


#: where each of those texts is refused: the first line its case renders otherwise
RECORDED_DETERMINANT_REFUSALS = {
    1: "line 8: expected 'y-choice: rh', found 'y-choice: r'",
    -1: "line 10: expected 'r-det: -', found 'r-det: -1'",
}


@pytest.mark.parametrize("r_det, y, digest", [
    (1, "a1^-1 r", "941bee36fad53b91d335b889fc5739c1d8291985efc904fdb4e78c3a9744302c"),
    (-1, "a1^-1 r h", "60a3f9824013d2ae8ac5f295b0771ea4104e57623fab4359584e4a1ec5a34ab6"),
])
def test_a_recorded_reflection_determinant_is_rejected(r_det, y, digest):
    text = recorded_determinant_text(r_det)
    assert f"\ny: {y}\n" in text and f"\nr-det: {r_det:+d}\n" in text
    # byte for byte the certificate that `certify --r-det` printed
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    _refused_at(text, RECORDED_DETERMINANT_REFUSALS[r_det])


def test_forced_rh_membership_requires_the_rh_shape():
    cert = build_certificate(N7, SEP_N2_N5, 1, "twist-subgroup")
    bad = replace(cert, y=word("a1^-1 r"),
                  script=ProofScript(commutator(word("( b a2 a3 b a1 a2 c2^-1 )^1"),
                                                word("a1^-1 r")),
                                     build_certificate(O3, NONSEP, 1,
                                                       "extended-group").script.steps,
                                     cert.target))
    report = verify_certificate(bad)
    assert not report.ok


def test_a_script_that_ends_where_it_starts_is_rejected():
    cert = build_certificate(O3, NONSEP, 1, "extended-group")
    start = cert.script.start
    report = verify_certificate(replace(cert, script=ProofScript(start, (), start)))
    assert not report.ok and report.script_ok and report.homology_ok
    assert report.message == "script end is not the target word"


def test_a_record_of_an_entry_outside_the_twist_subgroup_is_rejected():
    """x times h has determinant -1: it is not the claim row's x, whose
    record certifies both entries."""
    cert = build_certificate(SurfaceSpec(False, 6), NONSEP_OC, 2, "twist-subgroup")
    x = concat(cert.x, word("h"))
    assert certificates.det_hom(x, cert.surface) == -1
    bad = replace(cert, x=x)
    assert bad.membership == cert.membership == MembershipRecord(1, 1, cert.membership.note)
    report = verify_certificate(bad)
    assert not report.ok and report.membership_ok is False
    assert report.message == ("script start is not the commutator of x and y; "
                              "x is not the word that n = 2 and the case require")


def test_empty_claim_with_an_empty_script_fails():
    cert = build_certificate(O3, NONSEP, 2, "extended-group")
    empty = ProofScript(Word(), (), Word())
    bad = replace(cert, target=Word(), x=Word(), y=Word(), script=empty)
    report = verify_certificate(bad)
    assert not report.ok and "target" in report.message


def test_certificate_with_an_edited_n_fails():
    cert = build_certificate(O3, NONSEP, 3, "extended-group")
    report = verify_certificate(replace(cert, n=5))
    assert not report.ok and "n = 5" in report.message


def test_recorded_homology_failure_fails():
    text = format_certificate(build_certificate(O3, NONSEP, 2, "extended-group"))
    _refused_at(_edit_fields(text, homology_check="fail"),
                "line 18: expected 'homology-check: pass', found 'homology-check: fail'")


def test_recorded_assignment_must_be_the_model_of_the_claim():
    text = format_certificate(build_certificate(O3, NONSEP, 2, "extended-group"))
    _refused_at(_edit_fields(text, assignment="genus3-h"),
                "line 17: expected 'assignment: genus3', found 'assignment: genus3-h'")
    _refused_at(_edit_fields(text, assignment="no-such-assignment"),
                "line 17: expected 'assignment: genus3', found 'assignment: no-such-assignment'")


def test_an_unknown_y_choice_is_reported():
    text = format_certificate(build_certificate(N7, SEP_N2_N5, 1, "twist-subgroup"))
    _refused_at(_edit_fields(text, y_choice="q"),
                "line 8: expected 'y-choice: rh', found 'y-choice: q'")


def test_membership_records_are_compared_as_a_whole():
    # a record on a flavour that carries none
    text = format_certificate(build_certificate(O3, NONSEP, 2, "extended-group"))
    _refused_at(_edit_fields(text, membership_x="-1", membership_y="-1",
                             membership_note="forged"),
                "line 19: expected 'membership-x: -', found 'membership-x: -1'")
    # a record that certifies both entries, but not the one the flavour states
    text = format_certificate(build_certificate(N7, NONSEP_NC, 2, "even-power-twist"))
    expected = text.split("\n")[20]
    _refused_at(_edit_fields(text, membership_note="forged"),
                f"line 21: expected {expected!r}, found 'membership-note: forged'")


@pytest.mark.parametrize("surface, curve, flavor", [
    (O3, NONSEP, "extended-group"),
    (SurfaceSpec(False, 10), NONSEP_OC, "twist-subgroup"),
    (N7, CurveClass.parse("sep:n5+n2"), "even-power-twist"),
])
def test_a_round_trip_selects_the_case_at_most_twice(monkeypatch, surface, curve, flavor):
    """build, format, parse and verify: one selection for the request as
    given, and at most one more for its classified curve."""
    calls = []

    def counted(*args):
        calls.append(args)
        return select_case(*args)

    monkeypatch.setattr(certificates, "select_case", counted)
    certificates._select_case.cache_clear()
    cert = build_certificate(surface, curve, 2, flavor)
    assert verify_certificate(parse_certificate(format_certificate(cert))).ok
    assert 1 <= len(calls) <= 2


def test_certificate_bytes_are_unchanged():
    """SHA-256 of the certificate text of every flavour at n in {-2, 0, 3}."""
    digest = hashlib.sha256()
    for surface, curve, flavor in [
            ("o:3", "nonsep", "extended-group"), ("n:7", "sep:n2+n5", "twist-subgroup"),
            ("n:6", "nonsep:oc", "twist-subgroup"), ("o:1", "nonsep", "even-power-extended"),
            ("n:7", "nonsep:nc", "even-power-twist")]:
        for n in (-2, 0, 3):
            cert = build_certificate(SurfaceSpec.parse(surface), CurveClass.parse(curve), n, flavor)
            digest.update(format_certificate(cert).encode())
    assert digest.hexdigest() == (
        "495bde70d6cbae76c750b7ee9d466f4f968dcedd4487c81f60c26b424a8253e1")


@pytest.mark.parametrize("surface, curve, flavor, n, digest", [
    ("o:3", "nonsep", "extended-group", 40,
     "a4f5315e5057b1ec0a367ae5661157c8b88f90153366cceef32d200a34924b6b"),
    ("o:3", "nonsep", "extended-group", -33,
     "b5fb8f4e0fdb085898710184bf89ef2a0b1a6d9a00f82ddc04f9da3a7bf6e561"),
    ("n:8", "nonsep:nc", "twist-subgroup", 40,
     "5e7ef558cd424bbd303670c8b3704ae47c6392d0a35c8092e6a7362310a278f1"),
    ("n:8", "nonsep:nc", "twist-subgroup", -33,
     "d61c03b16d89cc38bb34812a6fdbbb3cdfa81996e9f517fa5ade0dd9793812f6"),
])
def test_large_n_certificate_bytes_are_unchanged(surface, curve, flavor, n, digest):
    """SHA-256 of the certificate text where the central moves make most
    of the script: the ``r`` and ``rh`` rows at n = 40 and -33."""
    cert = build_certificate(SurfaceSpec.parse(surface), CurveClass.parse(curve), n, flavor)
    assert hashlib.sha256(format_certificate(cert).encode()).hexdigest() == digest


def with_detour(cert, presentation, detour):
    """``cert`` with ``detour`` -- steps that return to the start word --
    replayed before its script."""
    steps = tuple(ProofStep(presentation.rule(family, params), Direction(direction), pos)
                  for family, params, direction, pos in detour)
    return replace(cert, script=replace(cert.script, steps=steps + cert.script.steps))


H_DETOUR = [("FREE_RED", ("h",), "RL", 0), ("COMMUTE_H", ("b",), "LR", 1),
            ("COMMUTE_H", ("b",), "RL", 1), ("FREE_RED", ("h",), "LR", 0)]


@pytest.mark.parametrize("cert, presentation, detour", [
    (build_certificate(O3, NONSEP, 2, "extended-group"), torus_presentation(True), H_DETOUR),
    (build_certificate(SurfaceSpec(False, 6), NONSEP_OC, 1, "twist-subgroup"),
     torus_presentation(True), H_DETOUR),
    (build_certificate(N7, NONSEP_NC, 2, "even-power-twist"), torus_presentation(),
     [("FREE_RED", ("b",), "RL", 0), ("FREE_RED", ("b",), "LR", 0)]),
], ids=["extended-group", "twist-subgroup-r", "even-power-twist"])
def test_rules_outside_the_flavour_presentation_fail(cert, presentation, detour):
    bad = with_detour(cert, presentation, detour)
    assert verify_script(bad.script).ok  # the detour replays; only membership catches it
    report = verify_certificate(bad)
    assert not report.ok and not report.script_ok and report.failed_step == 1
    assert f"step 1 uses {detour[0][0]}({detour[0][1][0]})" in report.message


@pytest.mark.parametrize("cert", [build_certificate(O3, NONSEP, 2, "extended-group"),
                                  build_certificate(SurfaceSpec(False, 6),
                                                    NONSEP_OC, 1, "twist-subgroup")])
def test_h_rules_without_h_fail_after_a_text_round_trip(cert):
    # the text parser resolves every torus flavour against the rules with h
    text = format_certificate(with_detour(cert, torus_presentation(True), H_DETOUR))
    report = verify_certificate(parse_certificate(text))
    assert not report.ok and "step 1 uses FREE_RED(h)" in report.message


def test_h_rules_are_allowed_when_y_carries_h():
    cert = build_certificate(N7, SEP_N2_N5, 1, "twist-subgroup")
    assert cert.case.y_choice == "rh"
    assert verify_certificate(with_detour(cert, torus_presentation(True), H_DETOUR)).ok


# --- cross-checks -------------------------------------------------------------


def test_conjugation_closure_in_homology():
    """Conjugating a certificate keeps the homology identity intact."""
    rng = random.Random(4711)
    asg = genus3_assignment()
    cert = build_certificate(O3, NONSEP, 3, "extended-group")
    for _ in range(25):
        w = random_word(rng, rng.randrange(0, 10))
        x = conjugate(cert.x, w)
        y = conjugate(cert.y, w)
        target = conjugate(cert.target, w)
        assert evaluate_rep(commutator(x, y), asg) == evaluate_rep(target, asg)


@pytest.mark.parametrize("n", [-3, -1, 0, 2, 4])
def test_rel1_and_theorem1_agree(n):
    """P^n a1^-1 r P^-n r a1 and the factorised word act identically."""
    asg = genus3_assignment()
    rel = build_rel1(n)
    comm = commutator(power(P_WORD, n), word("a1^-1 r"))
    assert evaluate_rep(comm, asg) == evaluate_rep(rel.rhs, asg)
    assert evaluate_rep(comm, asg) == evaluate_rep(rel.lhs, asg)


def test_every_rule_holds_in_the_model_of_its_row():
    """Every sign instance of every rule in a row's rule set has equal
    images in the row's homology model.  So a script that replays has
    equal start and end shadows, and checking the claim's shadow is
    checking the script's endpoints."""
    instances = {}
    for claim in CLAIMS.values():
        model = ASSIGNMENTS[claim.assignment]()
        failures, count = [], 0
        for rule in PRESENTATIONS[claim.rules].rules():
            for seg, repl in rule.moves[Direction.LR].table.items():
                count += 1
                if evaluate_rep(Word(seg), model) != evaluate_rep(Word(repl), model):
                    failures.append(rule.render())
        assert failures == [], (claim.rules, claim.assignment)
        instances[claim.rules] = count
    assert instances == {"torus": 181, "torus+h": 211, "even-power": 6}


def _holds_in_homology(claim, n):
    """The claim at n in its row's model, from the images of the written
    words [x_base^n, y] and target_base^n."""
    model = ASSIGNMENTS[claim.assignment]()
    return (evaluate_rep(commutator(power(claim.x_base, n), claim.y), model)
            == evaluate_rep(power(claim.target_base, n), model))


@pytest.mark.parametrize("y_choice", sorted(CLAIMS))
def test_each_claim_row_passes_its_homology_check_as_the_written_words_do(y_choice):
    claim = CLAIMS[y_choice]
    assert _row_homology_ok(claim)
    assert [n for n in range(-16, 17) if not _holds_in_homology(claim, n)] == []


@pytest.mark.parametrize("claim, first_failure", [
    # c^n = [c^n, s] = c^(2n) fails at once
    (Claim(word("c"), word("c"), word("s"), "even-power", "curve-reverser"), 1),
    # [b, a1] is its own target, but [b^2, a1] is not the target squared
    (Claim(word("b a1 b^-1 a1^-1"), word("b"), word("a1"), "torus", "genus3"), 2),
], ids=["false-at-1", "false-at-2"])
def test_a_false_claim_row_fails_its_homology_check(claim, first_failure):
    """Each equation of the row check is needed: the first row fails the
    claim at n = 1, and the second holds at n = 1 but fails at n = 2."""
    assert not _row_homology_ok(claim)
    assert [n for n in range(1, 3) if not _holds_in_homology(claim, n)][0] == first_failure


def test_a_row_that_fails_its_homology_check_fails_every_certificate(monkeypatch):
    monkeypatch.setattr(certificates, "_row_homology_ok", lambda claim: False)
    cert = build_certificate(O3, NONSEP, 2, "extended-group")
    assert cert.homology_ok is False
    # the header renders the row's verdict, and a text that says so still fails
    text = format_certificate(cert)
    assert "\nhomology-check: fail\n" in text
    for checked in (cert, parse_certificate(text)):
        report = verify_certificate(checked)
        assert not report.ok and report.script_ok and report.homology_ok is False
        assert report.message == "the claim row fails its homology check"


def test_a_huge_edited_n_fails_before_any_squaring():
    cert = build_certificate(O3, NONSEP, 3, "extended-group")
    start = time.perf_counter()
    report = verify_certificate(replace(cert, n=10 ** 4000))
    assert time.perf_counter() - start < 1.0
    assert not report.ok and report.homology_ok is False
    assert f"x is not the word that n = {10 ** 4000} and the case require" in report.message


@pytest.mark.parametrize("y_choice", sorted(CLAIMS))
def test_claim_words_are_their_base_letters_repeated(y_choice):
    """The verifier compares target and x with the letters of their base,
    inverted for negative n, repeated |n| times: that is the base's power
    because every base is cyclically reduced and holds no r."""
    claim = CLAIMS[y_choice]
    for base in (claim.target_base, claim.x_base):
        assert free_reduce(concat(base, base)) == concat(base, base)
        for k in range(-3, 4):
            assert _repeated(base, k) == power(base, k).letters, (base, k)
    assert _repeated(claim.y, 1) == power(claim.y, 1).letters


def test_twist_certificates_never_carry_odd_determinants():
    certs = [
        build_certificate(N7, SEP_N2_N5, 2, "twist-subgroup"),
        build_certificate(SurfaceSpec(False, 8), NONSEP_NC, -3, "twist-subgroup"),
        build_certificate(SurfaceSpec(False, 6), NONSEP_OC, 1, "twist-subgroup"),
        build_certificate(N7, NONSEP_NC, 2, "even-power-twist"),
    ]
    for cert in certs:
        record = cert.membership
        assert record is not None and record.ok
        assert record.det_x == 1
        assert record.det_y == 1 or record.conditional


def test_builder_verifier_contract_sample():
    rng = random.Random(2026)
    for n in rng.sample(range(-10, 11), 8):
        for cert in (build_certificate(O3, NONSEP, n, "extended-group"),
                     build_certificate(N7, SEP_N2_N5, n, "twist-subgroup"),
                     build_certificate(N7, NONSEP_NC, n, "even-power-twist")):
            assert verify_certificate(cert).ok, (cert.flavor, n)


# --- central moves ------------------------------------------------------------


def _move_one_swap_at_a_time(builder, src, dst):
    """Reference for ``_central_move``: swap the letter at ``src`` left to
    ``dst`` one CENTRAL swap at a time, each through ``ScriptBuilder.apply``."""
    for jj in range(src, dst, -1):
        left, mover = builder.letters[jj - 1], builder.letters[jj]
        if mover.name in ("c1", "c2", "c3"):
            if left.name == mover.name:
                raise AssertionError("cannot swap a central letter past itself")
            builder.apply("CENTRAL", (mover.name, left.name), Direction.RL, jj - 1)
        elif left.name in ("c1", "c2", "c3"):
            builder.apply("CENTRAL", (left.name, mover.name), Direction.LR, jj - 1)
        else:
            raise AssertionError(f"neither {left} nor {mover} is central; cannot rearrange")


def _moved(move, start, src, dst):
    """The script a move of the letter at ``src`` to ``dst`` makes, or what
    it raises."""
    builder = ScriptBuilder(start, torus_presentation())
    try:
        move(builder, src, dst)
    except Exception as exc:
        return type(exc), str(exc)
    letters = list(start.letters)
    letters.insert(dst, letters.pop(src))
    return builder.finish(Word(tuple(letters)))


@pytest.mark.parametrize("seed", range(40))
def test_central_move_matches_one_swap_at_a_time(seed):
    rng = random.Random(seed)
    start = random_word(rng, rng.randrange(2, 40), names=("b", "a1", "a2", "a3", "c1", "c2", "c3"))
    if seed % 4:  # a boundary letter, moved no further than its own twist's last letter
        src = rng.choice([i for i, lt in enumerate(start.letters) if lt.name[0] == "c"]
                         or [0])
        name = start.letters[src].name
        stop = max((i + 1 for i in range(src) if start.letters[i].name == name), default=0)
        dst = rng.randint(stop, src)
    else:  # any letter to any place on its left: the two must also fail alike
        src = rng.randrange(len(start))
        dst = rng.randint(0, src)
    expected = _moved(_move_one_swap_at_a_time, start, src, dst)
    assert _moved(_central_move, start, src, dst) == expected
    if seed % 4 and start.letters[src].name[0] == "c":
        assert isinstance(expected, ProofScript) and verify_script(expected).ok


@pytest.mark.parametrize("start, src, dst, error", [
    ("a1 a2", 1, 0, (AssertionError, "neither a1 nor a2 is central; cannot rearrange")),
    ("b c2 a3^-1", 2, 0, (AssertionError, "neither b nor a3^-1 is central; cannot rearrange")),
    ("c1 c1^-1", 1, 0, (AssertionError, "cannot swap a central letter past itself")),
    ("r c1", 1, 0, (UnknownRule, "CENTRAL(c1,r) is not in presentation 'torus'")),
])
def test_central_move_refuses_a_swap_no_rule_makes(start, src, dst, error):
    assert _moved(_central_move, word(start), src, dst) == error
    assert _moved(_move_one_swap_at_a_time, word(start), src, dst) == error


def test_central_move_checks_each_swap_against_its_rule_table(monkeypatch):
    """A swap whose move does not rewrite the pair raises PatternMismatch,
    as ``ScriptBuilder.apply`` would, before the letter moves."""
    real = certificates._central_swap

    def wrong_direction(presentation, left, mover):
        return real(presentation, left, mover).inverse

    monkeypatch.setattr(certificates, "_central_swap", wrong_direction)
    builder = ScriptBuilder(word("a1 b c1"), torus_presentation())
    with pytest.raises(PatternMismatch) as info:
        _central_move(builder, 2, 0)
    assert str(info.value) == "expected CENTRAL(c1,b) LR at position 1, found b c1"
    assert builder.finish(word("a1 b c1")).steps == ()


# --- memory shape ----------------------------------------------------------------
#
# A script's memory grows with its distinct steps and its text: a built
# script, as a parsed one, holds one object per distinct step, and the text
# is written and read without a list of every line.


_FLAVOUR_REQUESTS = [(O3, NONSEP, "extended-group"), (N7, SEP_N2_N5, "twist-subgroup"),
                     (SurfaceSpec(False, 8), NONSEP_NC, "twist-subgroup"),
                     (SurfaceSpec(True, 1), NONSEP, "even-power-extended"),
                     (N7, NONSEP_NC, "even-power-twist")]


@pytest.mark.parametrize("surface, curve, flavor, n", [
    *((surface, curve, flavor, n) for surface, curve, flavor in _FLAVOUR_REQUESTS
      for n in (-9, 8)),
    (O3, NONSEP, "extended-group", 64),
])
def test_built_and_parsed_scripts_hold_one_object_per_distinct_step(surface, curve, flavor, n):
    script = build_certificate(surface, curve, n, flavor).script
    parsed = parse_script(format_script(script), every_rule())
    assert parsed == script
    for steps in (script.steps, parsed.steps):
        assert len({id(step) for step in steps}) == len(set(steps))
    if n == 64:
        assert len(set(script.steps)) == 3755 and len(script.steps) == 17056


def test_format_and_parse_peaks_are_a_few_times_the_text():
    """Traced allocations at n = 64: format_script peaks at most 2.5 times
    the text's length, and parse_script at most 3 times."""
    import tracemalloc

    script = build_certificate(O3, NONSEP, 64, "extended-group").script
    tracemalloc.start()
    try:
        text = format_script(script)
        format_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        parse_script(text, every_rule())
        parse_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert format_peak <= 2.5 * len(text), format_peak / len(text)
    assert parse_peak <= 3 * len(text), parse_peak / len(text)
