"""Curve classification and per-case admissibility."""

import time
from fractions import Fraction

import pytest

from twistcert import (
    CurveClass,
    OutOfScope,
    SideType,
    SurfaceSpec,
    Unrealizable,
    classify,
    scl_upper_bound,
    select_case,
)


def sep(*sides):
    return CurveClass(separating=True, sides=tuple(SideType.parse(s) for s in sides))


NONSEP = CurveClass(separating=False)
NONSEP_OC = CurveClass(separating=False, complement_orientable=True)
NONSEP_NC = CurveClass(separating=False, complement_orientable=False)


# --- classify ----------------------------------------------------------------


def test_classify_examples():
    assert classify(SurfaceSpec(False, 8), NONSEP_OC) == NONSEP_OC
    normalized = classify(SurfaceSpec(True, 3), NONSEP)
    assert normalized.complement_orientable is True
    with pytest.raises(Unrealizable):
        classify(SurfaceSpec(True, 3), NONSEP_NC)
    # a class that records the wrong data for its kind
    with pytest.raises(Unrealizable, match="must record both side types"):
        classify(SurfaceSpec(False, 7), CurveClass(separating=True))
    with pytest.raises(Unrealizable, match="has no sides"):
        classify(SurfaceSpec(False, 7), CurveClass(separating=False,
                                                   sides=sep("n2", "n5").sides))


def test_classify_is_idempotent():
    cases = [
        (SurfaceSpec(True, 3), NONSEP),
        (SurfaceSpec(True, 4), sep("o1", "o3")),
        (SurfaceSpec(False, 7), NONSEP_NC),
        (SurfaceSpec(False, 8), NONSEP_OC),
        (SurfaceSpec(False, 7), sep("n5", "n2")),
        (SurfaceSpec(False, 9), sep("o2", "n5")),
    ]
    for surface, curve in cases:
        once = classify(surface, curve)
        assert classify(surface, once) == once


def test_classify_separating_checks_genus_sum():
    assert classify(SurfaceSpec(True, 3), sep("o1", "o2")).sides == (
        SideType(True, 1), SideType(True, 2))
    with pytest.raises(Unrealizable):
        classify(SurfaceSpec(True, 3), sep("o1", "o3"))
    with pytest.raises(Unrealizable):
        classify(SurfaceSpec(False, 7), sep("n2", "n4"))
    with pytest.raises(Unrealizable):
        classify(SurfaceSpec(False, 7), sep("o1", "o2"))  # both sides orientable


def test_classify_rejects_disc_and_moebius_sides():
    with pytest.raises(Unrealizable):
        classify(SurfaceSpec(True, 2), sep("o0", "o2"))
    with pytest.raises(Unrealizable):
        classify(SurfaceSpec(False, 7), sep("n1", "n6"))


def test_classify_nonseparating_parity():
    with pytest.raises(Unrealizable):
        classify(SurfaceSpec(False, 7), NONSEP_OC)  # odd genus
    with pytest.raises(Unrealizable):
        classify(SurfaceSpec(False, 2), NONSEP_NC)  # complement too small
    # odd genus forces the nonorientable complement
    assert classify(SurfaceSpec(False, 7), NONSEP) == NONSEP_NC
    with pytest.raises(Unrealizable):
        classify(SurfaceSpec(False, 8), NONSEP)  # ambiguous: oc or nc


def test_complement_orientable_forces_even_genus():
    for g in range(2, 13):
        try:
            classify(SurfaceSpec(False, g), NONSEP_OC)
            assert g % 2 == 0
        except Unrealizable:
            assert g % 2 == 1


# --- select_case: extended group ----------------------------------------------


def test_extended_group_exact_boundary():
    for g in range(1, 10):
        curve = NONSEP if g >= 1 else NONSEP
        try:
            case = select_case(SurfaceSpec(True, g), curve, "extended-group")
            assert g >= 3 and case.case_id == "T1-orientable" and case.y_choice == "r"
        except OutOfScope:
            assert g < 3
    for g in range(3, 12, 2):  # odd genera keep the class unambiguous
        try:
            case = select_case(SurfaceSpec(False, g), NONSEP_NC, "extended-group")
            assert g >= 7 and case.case_id == "T1-nonorientable"
        except OutOfScope:
            assert g < 7


def test_extended_group_takes_every_two_sided_class():
    select_case(SurfaceSpec(True, 3), sep("o1", "o2"), "extended-group")
    select_case(SurfaceSpec(False, 8), NONSEP_OC, "extended-group")
    select_case(SurfaceSpec(False, 7), sep("o1", "n5"), "extended-group")


# --- select_case: twist subgroup -----------------------------------------------


def test_twist_subgroup_three_bullets():
    case = select_case(SurfaceSpec(False, 7), sep("n2", "n5"), "twist-subgroup")
    assert case.case_id == "T2-separating" and case.forced_rh and case.y_choice == "rh"

    case = select_case(SurfaceSpec(False, 8), NONSEP_NC, "twist-subgroup")
    assert case.case_id == "T2-nonorientable-complement" and case.y_choice == "rh"

    case = select_case(SurfaceSpec(False, 6), NONSEP_OC, "twist-subgroup")
    assert case.case_id == "T2-orientable-complement"
    assert case.k == 0 and case.r_det == 1 and case.y_choice == "r"

    case = select_case(SurfaceSpec(False, 10), NONSEP_OC, "twist-subgroup")
    assert case.k == 2 and case.r_det == 1 and case.y_choice == "r"


def test_orientable_complement_case_selection_at_a_large_genus_builds_no_matrix():
    start = time.perf_counter()
    case = select_case(SurfaceSpec(False, 2006), NONSEP_OC, "twist-subgroup")
    assert time.perf_counter() - start < 1.0
    assert case.k == 1000 and case.r_det == 1 and case.y_choice == "r"


def test_twist_subgroup_conjectural_exclusions():
    with pytest.raises(OutOfScope) as exc:
        select_case(SurfaceSpec(False, 7), NONSEP_NC, "twist-subgroup")
    assert exc.value.conjectural
    for g in (8, 12, 16):
        with pytest.raises(OutOfScope) as exc:
            select_case(SurfaceSpec(False, g), NONSEP_OC, "twist-subgroup")
        assert exc.value.conjectural


def test_twist_subgroup_plain_rejections_are_not_conjectural():
    for surface, curve in [
        (SurfaceSpec(True, 5), NONSEP),
        (SurfaceSpec(False, 6), sep("n2", "n4")),       # separating needs genus 7
        (SurfaceSpec(False, 5), NONSEP_NC),
        (SurfaceSpec(False, 2), NONSEP_OC),
    ]:
        with pytest.raises(OutOfScope) as exc:
            select_case(surface, curve, "twist-subgroup")
        assert not exc.value.conjectural


def test_twist_subgroup_exact_sweep():
    """The flavour succeeds exactly on the three bullets.  Every separating
    spelling that classify accepts is admitted exactly at genus >= 7: its
    sides always leave room for the torus beside a nonorientable piece of
    genus >= 2, so the flavour needs no arrangement check of its own."""
    accepted = 0
    for g in range(1, 41):
        surface = SurfaceSpec(False, g)
        for curve in ([sep(f"n{i}", f"n{g - i}") for i in range(g + 1)]
                      + [sep(f"o{i}", f"n{g - 2 * i}") for i in range(g // 2 + 1)]):
            try:
                classify(surface, curve)
            except Unrealizable:
                continue
            accepted += 1
            assert _admits(surface, curve) == (g >= 7)
    assert accepted == 1064
    for g in range(2, 15):
        if g % 2 == 0:
            assert _admits(SurfaceSpec(False, g), NONSEP_OC) == (g >= 6 and g % 4 == 2)
        if g >= 3:
            assert _admits(SurfaceSpec(False, g), NONSEP_NC) == (g >= 8)


def _admits(surface, curve):
    try:
        select_case(surface, curve, "twist-subgroup")
        return True
    except OutOfScope:
        return False


# --- select_case: even power ----------------------------------------------------


def test_even_power_is_always_available_extended():
    for surface, curve in [
        (SurfaceSpec(True, 1), NONSEP),
        (SurfaceSpec(True, 2), sep("o1", "o1")),
        (SurfaceSpec(False, 3), NONSEP_NC),
        (SurfaceSpec(False, 7), sep("n2", "n5")),
    ]:
        case = select_case(surface, curve, "even-power")
        assert case.case_id == "R4-even-power" and case.y_choice == "s"


def test_even_power_twist_admissibility():
    assert select_case(SurfaceSpec(False, 7), NONSEP_NC, "even-power").twist_admissible
    assert select_case(SurfaceSpec(False, 7), sep("n2", "n5"), "even-power").twist_admissible
    assert not select_case(SurfaceSpec(True, 3), NONSEP, "even-power").twist_admissible
    assert not select_case(SurfaceSpec(False, 8), NONSEP_OC, "even-power").twist_admissible
    assert not select_case(SurfaceSpec(False, 3), NONSEP_NC, "even-power").twist_admissible


# --- scl ------------------------------------------------------------------------


def test_scl_upper_bound_is_zero_with_justification():
    for surface, curve, flavor in [
        (SurfaceSpec(True, 3), NONSEP, "extended-group"),
        (SurfaceSpec(False, 7), sep("n2", "n5"), "twist-subgroup"),
        (SurfaceSpec(False, 7), NONSEP_NC, "even-power"),
    ]:
        bound = scl_upper_bound(select_case(surface, curve, flavor))
        assert bound.value == Fraction(0)
        assert "<= 1" in bound.justification


def test_scl_upper_bound_even_power_improvement_names_the_twist_subgroup():
    case = select_case(SurfaceSpec(False, 7), NONSEP_NC, "even-power")
    assert "twist subgroup" in scl_upper_bound(case).justification


def test_surface_and_curve_parsing_round_trip():
    for text in ("o:3", "n:12"):
        assert str(SurfaceSpec.parse(text)) == text
    for text in ("sep:n2+n5", "nonsep:oc", "nonsep:nc", "nonsep"):
        assert str(CurveClass.parse(text)) == text
    with pytest.raises(Unrealizable):
        SurfaceSpec.parse("x:3")
    with pytest.raises(Unrealizable):
        CurveClass.parse("sep:o1")
    with pytest.raises(Unrealizable):
        SurfaceSpec(True, 0)
