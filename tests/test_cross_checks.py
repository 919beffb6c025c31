"""Cross-module property: a verified script never changes the homology
representation, under every shipped assignment that covers its letters."""

import pytest

from twistcert import (
    CurveClass,
    SurfaceSpec,
    build_certificate,
    build_rel1,
    equal_modulo_rules,
    evaluate_rep,
    fixture_path,
    parse_script,
    torus_presentation,
    verify_script,
    word,
)
from twistcert.homology import ASSIGNMENTS


def _shipped_scripts():
    pres = torus_presentation()
    for name in ("chain_a.proof", "chain_b.proof"):
        yield name, parse_script(fixture_path(name).read_text(), pres)
    for n in (-3, -1, 0, 2, 4):
        yield f"rel1({n})", build_rel1(n).script
    o3 = SurfaceSpec(True, 3)
    n7 = SurfaceSpec(False, 7)
    yield "theorem1", build_certificate(
        o3, CurveClass(separating=False), 2, "extended-group").script
    yield "theorem2", build_certificate(
        n7, CurveClass.parse("sep:n2+n5"), -2, "twist-subgroup").script
    yield "even-power", build_certificate(
        n7, CurveClass.parse("nonsep:nc"), 3, "even-power-twist").script
    search = equal_modulo_rules(word("( b a1 a2 a3 )^3"), word("c1 c2 c3"), budget=1000)
    yield "search-witness", search.witness


@pytest.mark.parametrize("label,script", list(_shipped_scripts()))
def test_verified_scripts_preserve_every_covering_representation(label, script):
    assert verify_script(script).ok, label
    covered = 0
    for factory in ASSIGNMENTS.values():
        assignment = factory()
        if not (assignment.covers(script.start) and assignment.covers(script.end)):
            continue
        covered += 1
        assert evaluate_rep(script.start, assignment) == evaluate_rep(script.end, assignment), (
            label, assignment.assignment_id)
    assert covered >= 1, f"no shipped assignment covers {label}"
