"""Acceptance criteria.

Each test covers one criterion at its stated tolerance (exact integers
everywhere; runtime budgets where given) and prints one PASS line; run
with ``pytest -v -s tests/test_acceptance.py`` to see them.
"""

import random
import time
from fractions import Fraction

import pytest

from twistcert import (
    CurveClass,
    Direction,
    IntMatrix,
    OutOfScope,
    ProofStep,
    SurfaceSpec,
    SymplecticSpace,
    Word,
    build_certificate,
    commutator,
    concat,
    curve_reverser_assignment,
    det_hom,
    evaluate_rep,
    even_power_presentation,
    fixture_path,
    genus3_assignment,
    genus3_with_h_assignment,
    parse_script,
    power,
    reflection_matrix_fig2,
    scl_upper_bound,
    select_case,
    torus_presentation,
    transvection,
    verify_certificate,
    verify_script,
    word,
)
from twistcert.certificates import P_WORD, Q_WORD
from twistcert.cli import run
from twistcert.presentation import PatternMismatch
from twistcert.words import Letter

from test_homology import det_oracle, mat_eye, mat_mul
from test_presentation import apply_rule


# --- criterion 1: the two derivation chains ship, verify, and break loudly ----


def test_criterion_1_chain_fixtures(capsys):
    t0 = time.perf_counter()
    pres = torus_presentation()
    for name in ("chain_a.proof", "chain_b.proof"):
        path = fixture_path(name)
        assert run(["verify-script", str(path), "--rules", "torus"]) == 0
        script = parse_script(path.read_text(), pres)
        assert verify_script(script).ok

        for i, st in enumerate(script.steps):
            bumped = list(script.steps)
            bumped[i] = ProofStep(st.rule, st.direction, st.position + 1)
            perturbed = script.__class__(script.start, tuple(bumped), script.end)
            report = verify_script(perturbed)
            assert not report.ok
            # independent replay pins the first genuinely broken line
            current, expected = script.start, len(bumped) + 1
            for k, s in enumerate(perturbed.steps, start=1):
                try:
                    current = apply_rule(current, s)
                except PatternMismatch:
                    expected = k
                    break
            assert report.failed_step == expected
            if name == "chain_a.proof":
                assert expected == i + 1  # every bump in chain A breaks its own step
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"chain fixture criterion took {elapsed:.3f}s"
    capsys.readouterr()
    print(f"\nPASS criterion 1: chain fixtures verify; every perturbation "
          f"fails at the broken step ({elapsed * 1000:.0f} ms)")


# --- criterion 2: the star-relation shadow ------------------------------------


def test_criterion_2_star_shadow():
    asg = genus3_assignment()
    star = evaluate_rep(word("( b a1 a2 a3 )^3"), asg)
    boundary = evaluate_rep(word("c1 c2 c3"), asg)
    assert star == boundary
    assert star.is_identity()

    # rank-two restriction, frozen by hand multiplication
    A = [[1, -1], [0, 1]]
    B = [[1, 0], [1, 1]]
    M = mat_mul(B, mat_mul(A, mat_mul(A, A)))
    assert M[0][0] + M[1][1] == -1
    assert det_oracle(M) == 1
    assert mat_mul(M, mat_mul(M, M)) == mat_eye(2)
    space = SymplecticSpace(1)
    module_m = transvection(space, (0, 1)) * transvection(space, (1, 0)) ** 3
    assert [list(r) for r in module_m.rows] == M
    print("PASS criterion 2: star shadow is the identity; rank-two restriction "
          "has trace -1, det 1, cube identity")


# --- criterion 3: factorisation and commutator shadows over a range -----------


def test_criterion_3_relation_shadows_over_exponents():
    t0 = time.perf_counter()
    asg = genus3_assignment()
    y = word("a1^-1 r")
    for n in range(-10, 11):
        target = evaluate_rep(power(word("c1"), n), asg)
        assert target.is_identity()
        rhs = concat(power(P_WORD, n), power(Q_WORD, n))
        assert evaluate_rep(rhs, asg) == target
        comm = commutator(power(P_WORD, n), y)
        assert evaluate_rep(comm, asg) == target
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"relation shadows took {elapsed:.3f}s"
    print(f"PASS criterion 3: factorisation and commutator shadows equal the "
          f"boundary-twist power for n in [-10, 10] ({elapsed * 1000:.0f} ms)")


# --- criterion 4: rule soundness sweep -----------------------------------------


def _random_words(rng, count, names):
    out = []
    for _ in range(count):
        length = rng.randrange(0, 25)
        out.append(Word(tuple(Letter(rng.choice(names), rng.choice((1, -1)))
                              for _ in range(length))))
    return out


def _seed_words(alphabet_kind):
    if alphabet_kind == "cs":
        return [word(t) for t in ("s c s^-1", "s c^-1 s^-1", "c c^-1", "s s^-1")]
    seeds = ["c1 c2 c3", "c3^-1 c2^-1 c1^-1",
             "( b a1 a2 a3 )^3", "( ( b a1 a2 a3 )^3 )^-1"]
    for g in ("b", "a1", "a2", "a3", "c1", "c2", "c3"):
        seeds += [f"r {g} r", f"r {g}^-1 r"]
    for ai in ("a1", "a2", "a3"):
        seeds += [f"b {ai} b", f"{ai} b {ai}", f"b^-1 {ai}^-1 b^-1", f"{ai}^-1 b^-1 {ai}^-1"]
    if alphabet_kind == "torus+h":
        seeds += ["h b h^-1", "h h^-1", "b h a1"]
    return [word(t) for t in seeds]


def _sweep(words, presentation, assignment, counters, rng):
    """Check every matching rule application on every word position."""
    seg_cache: dict[tuple, IntMatrix] = {}

    def seg_rep(letters):
        if letters not in seg_cache:
            seg_cache[letters] = evaluate_rep(Word(letters), assignment)
        return seg_cache[letters]

    rules = presentation.rules()
    checked = 0
    for w in words:
        prefix = suffix = None
        for rule in rules:
            for direction in (Direction.LR, Direction.RL):
                span = rule.pattern_len(direction)
                for pos in range(len(w) - span + 1):
                    repl = rule.match(w.letters, pos, direction)
                    if repl is None:
                        continue
                    checked += 1
                    counters[(rule.render(), direction.value)] += 1
                    before = w.letters[pos:pos + span]
                    assert seg_rep(before) == seg_rep(repl), (
                        f"{rule.render()} {direction.value} changes the "
                        f"representation of {Word(before)}")
                    if checked % 101 == 0:
                        # full-word cross-check through prefix/suffix products
                        if prefix is None:
                            dim = assignment.space.dim
                            prefix = [IntMatrix.identity(dim)]
                            for lt in w.letters:
                                prefix.append(prefix[-1] * assignment.matrix(lt.name, lt.sign))
                            suffix = [IntMatrix.identity(dim)]
                            for lt in reversed(w.letters):
                                suffix.append(assignment.matrix(lt.name, lt.sign) * suffix[-1])
                            suffix.reverse()
                        after_rep = prefix[pos] * seg_rep(repl) * suffix[pos + span]
                        assert after_rep == prefix[-1]
                    if checked % 37 == 0:
                        # applying the step and undoing it restores the word
                        step = ProofStep(rule, direction, pos)
                        assert apply_rule(apply_rule(w, step), step.inverted()) == w
    return checked


def test_criterion_4_rule_soundness_sweep():
    rng = random.Random(0x5EED)
    counters: dict[tuple[str, str], int] = {}

    pools = [
        (_random_words(rng, 600, ("b", "a1", "a2", "a3", "c1", "c2", "c3", "r"))
         + _seed_words("torus"), torus_presentation(), genus3_assignment()),
        (_random_words(rng, 200, ("b", "a1", "a2", "a3", "c1", "c2", "c3", "r", "h"))
         + _seed_words("torus+h"), torus_presentation(with_h=True), genus3_with_h_assignment()),
        (_random_words(rng, 200, ("c", "s")) + _seed_words("cs"),
         even_power_presentation(), curve_reverser_assignment()),
    ]
    total = 0
    for words_, pres, asg in pools:
        for rule in pres.rules():
            for direction in ("LR", "RL"):
                counters.setdefault((rule.render(), direction), 0)
        total += _sweep(words_, pres, asg, counters, rng)

    by_rule: dict[str, int] = {}
    for (rule_id, _), count in counters.items():
        by_rule[rule_id] = by_rule.get(rule_id, 0) + count
    unmatched = sorted(rule_id for rule_id, count in by_rule.items() if count == 0)
    assert not unmatched, f"rule instances never exercised: {unmatched}"
    assert total > 100_000
    print(f"PASS criterion 4: {total} rule applications over 1000 random words "
          f"(plus structured seeds) all preserve the representation")


# --- criterion 5: reflection determinant and the mod-4 boundary ----------------


def test_criterion_5_reflection_determinant():
    for k in range(0, 9):
        # the matrix rebuilt here verbatim from the listed basis action
        dim = 2 * k + 5
        rows = [[0] * dim for _ in range(dim)]
        diag = [1, -1, 1, -1, 1] + [-1] * k + [1] * k
        for i, v in enumerate(diag):
            rows[i][i] = v
        rows[3][4] = -1  # the h column picks up -d
        verbatim = IntMatrix.from_rows(rows)
        assert verbatim == reflection_matrix_fig2(k)
        assert verbatim.det() == (-1) ** k
        assert det_oracle(verbatim.rows) == (-1) ** k
        assert (verbatim * verbatim).is_identity()

    oc = CurveClass.parse("nonsep:oc")
    for g in (6, 10):
        case = select_case(SurfaceSpec(False, g), oc, "twist-subgroup")
        assert case.y_choice == "r" and case.r_det == 1
        assert det_hom(word("r"), SurfaceSpec(False, g), k=g // 2 - 3) == 1
    for g in (8, 12):
        with pytest.raises(OutOfScope) as exc:
            select_case(SurfaceSpec(False, g), oc, "twist-subgroup")
        assert exc.value.conjectural
        assert det_hom(word("r"), SurfaceSpec(False, g), k=g // 2 - 3) == -1
    print("PASS criterion 5: reflection determinant is (-1)^k for k = 0..8 and "
          "membership holds exactly for genus 2 mod 4 (6, 10 accept; 8, 12 reject)")


# --- criterion 6: the certificate matrix ---------------------------------------


ADMISSIBLE = [
    # extended group, orientable
    ("o:3", "nonsep", "extended-group"),
    ("o:3", "sep:o1+o2", "extended-group"),
    ("o:4", "nonsep", "extended-group"),
    ("o:4", "sep:o2+o2", "extended-group"),
    # extended group, nonorientable
    ("n:7", "nonsep:nc", "extended-group"),
    ("n:7", "sep:n2+n5", "extended-group"),
    ("n:7", "sep:o1+n5", "extended-group"),
    ("n:8", "nonsep:nc", "extended-group"),
    ("n:8", "nonsep:oc", "extended-group"),
    ("n:8", "sep:n2+n6", "extended-group"),
    # twist subgroup, the three families at their smallest genera
    ("n:7", "sep:n2+n5", "twist-subgroup"),
    ("n:8", "nonsep:nc", "twist-subgroup"),
    ("n:6", "nonsep:oc", "twist-subgroup"),
    # even powers, both flavours
    ("o:1", "nonsep", "even-power-extended"),
    ("n:7", "nonsep:nc", "even-power-twist"),
]

EXCLUDED = [
    ("n:7", "nonsep:nc", "twist-subgroup"),
    ("n:8", "nonsep:oc", "twist-subgroup"),
    ("n:12", "nonsep:oc", "twist-subgroup"),
]


def test_criterion_6_certificate_matrix():
    t0 = time.perf_counter()
    built = 0
    for surface_text, curve_text, flavor in ADMISSIBLE:
        surface = SurfaceSpec.parse(surface_text)
        curve = CurveClass.parse(curve_text)
        for n in range(-10, 11):
            cert = build_certificate(surface, curve, n, flavor)
            report = verify_certificate(cert)
            assert report.ok, (surface_text, curve_text, flavor, n, report.message)
            built += 1
    for surface_text, curve_text, flavor in EXCLUDED:
        surface = SurfaceSpec.parse(surface_text)
        curve = CurveClass.parse(curve_text)
        with pytest.raises(OutOfScope) as exc:
            build_certificate(surface, curve, 1, flavor)
        assert exc.value.conjectural, (surface_text, curve_text)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"certificate matrix took {elapsed:.1f}s"
    print(f"PASS criterion 6: {built} certificates built and verified for "
          f"n in [-10, 10]; excluded families out of scope ({elapsed:.1f} s)")


# --- criterion 7: the stable commutator length bound ----------------------------


def test_criterion_7_scl_upper_bound():
    flavor_map = {"extended-group": "extended-group",
                  "twist-subgroup": "twist-subgroup",
                  "even-power-extended": "even-power",
                  "even-power-twist": "even-power"}
    for surface_text, curve_text, flavor in ADMISSIBLE:
        case = select_case(SurfaceSpec.parse(surface_text), CurveClass.parse(curve_text),
                           flavor_map[flavor])
        bound = scl_upper_bound(case)
        assert bound.value == Fraction(0)
        assert "<= 1" in bound.justification
    # the even-power improvement: genus 7, nonseparating, inside the twist subgroup
    case = select_case(SurfaceSpec(False, 7), CurveClass.parse("nonsep:nc"), "even-power")
    assert case.twist_admissible
    bound = scl_upper_bound(case)
    assert bound.value == 0 and "twist subgroup" in bound.justification
    print("PASS criterion 7: every admissible case has scl upper bound 0 via a "
          "single-commutator family")
