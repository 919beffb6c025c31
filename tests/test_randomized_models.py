"""Soundness under randomized conjugate models.

Conjugating every matrix of the capped-torus assignment by a random
integer symplectic basis change produces a fresh assignment with the same
defining properties but entirely different entries; every shipped script
must still evaluate to equal representations on both sides.  Guards
against the relation checks accidentally depending on the special shape
of the standard matrices.
"""

import random

import pytest

from twistcert import (
    CurveClass,
    SurfaceSpec,
    SymplecticSpace,
    build_certificate,
    build_rel1,
    evaluate_rep,
    fixture_path,
    genus3_assignment,
    parse_script,
    torus_presentation,
    transvection,
    verify_script,
)
from twistcert.homology import HomologyAssignment


def random_symplectic(space, rng, factors=14):
    """A random product of integer transvections: symplectic, unimodular."""
    m = transvection(space, space.basis_vector(0)) ** 0  # identity
    for _ in range(factors):
        v = tuple(rng.randrange(-2, 3) for _ in range(space.dim))
        m = m * transvection(space, v, rng.choice((1, -1)))
    return m


@pytest.fixture(params=[101, 202, 303])
def conjugated_assignment(request):
    rng = random.Random(request.param)
    base = genus3_assignment()
    space = base.space
    s = random_symplectic(space, rng)
    form = space.form
    s_inv = -(form * s.transpose() * form)  # s preserves the form
    assert (s * s_inv).is_identity()
    matrices = {name: s * mat * s_inv for name, mat in base.matrices.items()}
    # construction re-validates form behaviour
    return HomologyAssignment(f"genus3-conj-{request.param}", space,
                              matrices, base.form_signs)


def test_conjugated_generator_inverses_are_two_sided(conjugated_assignment):
    for name, m in conjugated_assignment.matrices.items():
        assert (m * conjugated_assignment.matrix(name, -1)).is_identity(), name
        assert (conjugated_assignment.matrix(name, -1) * m).is_identity(), name


def test_conjugated_assignment_is_genuinely_different(conjugated_assignment):
    base = genus3_assignment()
    assert any(conjugated_assignment.matrices[name] != base.matrices[name]
               for name in ("b", "a1", "r"))


def test_fixture_chains_hold_in_conjugated_models(conjugated_assignment):
    pres = torus_presentation()
    for name in ("chain_a.proof", "chain_b.proof"):
        script = parse_script(fixture_path(name).read_text(), pres)
        assert verify_script(script).ok
        assert evaluate_rep(script.start, conjugated_assignment) == \
            evaluate_rep(script.end, conjugated_assignment)


@pytest.mark.parametrize("n", [-3, 1, 4])
def test_generated_scripts_hold_in_conjugated_models(conjugated_assignment, n):
    rel = build_rel1(n)
    assert evaluate_rep(rel.lhs, conjugated_assignment) == \
        evaluate_rep(rel.rhs, conjugated_assignment)
    cert = build_certificate(SurfaceSpec(True, 3),
                             CurveClass(separating=False), n, "extended-group")
    assert evaluate_rep(cert.script.start, conjugated_assignment) == \
        evaluate_rep(cert.script.end, conjugated_assignment)
