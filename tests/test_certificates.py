"""End-to-end certificate builders and the verifier."""

import random
from dataclasses import replace

import pytest

from twistcert import (
    CurveClass,
    OutOfScope,
    ProofScript,
    SurfaceSpec,
    Word,
    build_even_power_certificate,
    build_rel1,
    build_theorem1_certificate,
    build_theorem2_certificate,
    commutator,
    concat,
    conjugate,
    evaluate_rep,
    genus3_assignment,
    power,
    verify_certificate,
    verify_script,
    word,
)
from twistcert.certificates import P_WORD, Q_WORD

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


# --- certificates ------------------------------------------------------------


def test_theorem1_certificate_shape():
    cert = build_theorem1_certificate(O3, NONSEP, 1)
    assert str(cert.y) == "a1^-1 r"
    assert cert.x == P_WORD
    assert cert.target == word("c1")
    assert cert.script.start == commutator(cert.x, cert.y)
    assert cert.script.end == cert.target
    assert cert.homology_ok and cert.membership is None
    assert verify_certificate(cert).ok


def test_theorem1_rejects_small_genus():
    with pytest.raises(OutOfScope):
        build_theorem1_certificate(SurfaceSpec(True, 2), NONSEP, 1)


def test_theorem1_nonorientable_separating():
    cert = build_theorem1_certificate(N7, SEP_N2_N5, 5)
    assert verify_certificate(cert).ok


def test_theorem2_y_carries_h_exactly_when_needed():
    cert = build_theorem2_certificate(N7, SEP_N2_N5, 3)
    assert str(cert.y) == "a1^-1 r h"
    assert cert.case.forced_rh and cert.membership.conditional
    assert verify_certificate(cert).ok

    cert = build_theorem2_certificate(SurfaceSpec(False, 6), NONSEP_OC, 2)
    assert str(cert.y) == "a1^-1 r"
    assert cert.membership.det_x == 1 and cert.membership.det_y == 1
    assert not cert.membership.conditional
    assert verify_certificate(cert).ok


def test_theorem2_recorded_determinant_gives_plain_r():
    cert = build_theorem2_certificate(N7, SEP_N2_N5, 2, r_det_override=1)
    assert str(cert.y) == "a1^-1 r"
    assert cert.membership.det_y == 1 and not cert.membership.conditional
    assert verify_certificate(cert).ok


def test_theorem2_out_of_scope():
    with pytest.raises(OutOfScope):
        build_theorem2_certificate(N7, NONSEP_NC, 1)
    with pytest.raises(OutOfScope):
        build_theorem2_certificate(SurfaceSpec(False, 8), NONSEP_OC, 1)


def test_even_power_certificates():
    cert = build_even_power_certificate(SurfaceSpec(True, 1), NONSEP, 1, "extended")
    assert str(cert.target) == "c c" and str(cert.x) == "c" and str(cert.y) == "s"
    assert verify_certificate(cert).ok

    cert = build_even_power_certificate(N7, NONSEP_NC, 3, "twist")
    assert cert.flavor == "even-power-twist" and cert.membership.ok
    assert verify_certificate(cert).ok

    cert = build_even_power_certificate(N7, NONSEP_NC, 0, "extended")
    assert cert.target == Word() and verify_certificate(cert).ok


def test_even_power_twist_needs_a_nonorientable_piece():
    with pytest.raises(OutOfScope):
        build_even_power_certificate(O3, NONSEP, 1, "twist")


# --- perturbations must be caught ---------------------------------------------


def test_certificate_with_r_deleted_from_y_fails():
    cert = build_theorem1_certificate(O3, NONSEP, 2)
    bad_y = word("a1^-1")
    bad = replace(cert, y=bad_y)
    report = verify_certificate(bad)
    assert not report.ok
    assert "commutator" in report.message


def test_certificate_with_broken_script_fails_at_first_reflection_step():
    cert = build_theorem1_certificate(O3, NONSEP, 1)
    # delete the r letters from the script start: the replay must break at
    # the first step that consumes them
    letters = tuple(lt for lt in cert.script.start.letters if lt.name != "r")
    bad_script = ProofScript(Word(letters), cert.script.steps, cert.script.end)
    bad = replace(cert, script=bad_script)
    report = verify_certificate(bad)
    assert not report.ok and not report.script_ok


def test_twist_certificate_with_odd_reflection_determinant_fails_membership():
    good = build_theorem2_certificate(SurfaceSpec(False, 6), NONSEP_OC, 1)
    # claim the same y on an embedding whose reflection has determinant -1
    bad_case = replace(good.case, k=1, r_det=-1,
                       surface=SurfaceSpec(False, 8))
    bad = replace(good, case=bad_case, surface=SurfaceSpec(False, 8))
    report = verify_certificate(bad)
    assert not report.ok and report.membership_ok is False


def test_verifier_reports_rather_than_raises_on_malformed_certificates():
    good = build_theorem2_certificate(N7, SEP_N2_N5, 1)
    # a twist-subgroup claim on an orientable surface: the determinant
    # homomorphism is undefined there, but verification must stay a report
    bad = replace(good, surface=O3, case=replace(good.case, surface=O3))
    report = verify_certificate(bad)
    assert not report.ok and "case selection" in report.message

    bad = replace(good, assignment_id="no-such-assignment")
    report = verify_certificate(bad)
    assert not report.ok and "unknown assignment" in report.message


def test_verifier_checks_the_recorded_case_against_a_fresh_selection():
    good = build_theorem2_certificate(N7, SEP_N2_N5, 2)
    bad = replace(good, case=replace(good.case, y_choice="r", forced_rh=False, r_det=1))
    report = verify_certificate(bad)
    assert not report.ok


def test_forced_rh_membership_requires_the_rh_shape():
    cert = build_theorem2_certificate(N7, SEP_N2_N5, 1)
    bad = replace(cert, y=word("a1^-1 r"),
                  script=ProofScript(commutator(word("( b a2 a3 b a1 a2 c2^-1 )^1"),
                                                word("a1^-1 r")),
                                     build_theorem1_certificate(O3, NONSEP, 1).script.steps,
                                     cert.target))
    report = verify_certificate(bad)
    assert not report.ok


def test_empty_claim_with_an_empty_script_fails():
    cert = build_theorem1_certificate(O3, NONSEP, 2)
    empty = ProofScript(Word(), (), Word())
    bad = replace(cert, target=Word(), x=Word(), y=Word(), script=empty)
    report = verify_certificate(bad)
    assert not report.ok and "target" in report.message


def test_certificate_with_an_edited_n_fails():
    cert = build_theorem1_certificate(O3, NONSEP, 3)
    report = verify_certificate(replace(cert, n=5))
    assert not report.ok and "n = 5" in report.message


def test_recorded_homology_failure_fails():
    cert = build_theorem1_certificate(O3, NONSEP, 2)
    report = verify_certificate(replace(cert, homology_ok=False))
    assert not report.ok and "homology-check" in report.message


# --- cross-checks -------------------------------------------------------------


def test_conjugation_closure_in_homology():
    """Conjugating a certificate keeps the homology identity intact."""
    rng = random.Random(4711)
    asg = genus3_assignment()
    cert = build_theorem1_certificate(O3, NONSEP, 3)
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


def test_twist_certificates_never_carry_odd_determinants():
    certs = [
        build_theorem2_certificate(N7, SEP_N2_N5, 2),
        build_theorem2_certificate(SurfaceSpec(False, 8), NONSEP_NC, -3),
        build_theorem2_certificate(SurfaceSpec(False, 6), NONSEP_OC, 1),
        build_even_power_certificate(N7, NONSEP_NC, 2, "twist"),
    ]
    for cert in certs:
        record = cert.membership
        assert record is not None and record.ok
        assert record.det_x == 1
        assert record.det_y == 1 or record.conditional


def test_builder_verifier_contract_sample():
    rng = random.Random(2026)
    for n in rng.sample(range(-10, 11), 8):
        for cert in (build_theorem1_certificate(O3, NONSEP, n),
                     build_theorem2_certificate(N7, SEP_N2_N5, n),
                     build_even_power_certificate(N7, NONSEP_NC, n, "twist")):
            assert verify_certificate(cert).ok, (cert.flavor, n)
