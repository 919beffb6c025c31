"""Integer homology representations, checked against naive matrix oracles.

The oracle matrices below are written out by hand from the definitions:
a transvection along v sends x to x + <x,v> v, the reflection fixes every
xi and negates every yi, and the twists about null-homologous boundary
curves act trivially.  Products are computed with a plain nested-loop
multiply so nothing here depends on the module under test.
"""

import random
import time
from fractions import Fraction

import pytest

from twistcert import (
    IntMatrix,
    MissingGenerator,
    SurfaceSpec,
    SymplecticSpace,
    UndefinedDet,
    Word,
    commutator,
    concat,
    curve_reverser_assignment,
    det_hom,
    evaluate_rep,
    fig2_basis_labels,
    genus3_assignment,
    genus3_with_h_assignment,
    power,
    reflection_matrix_fig2,
    transvection,
    word,
)
from twistcert.homology import HomologyAssignment, fig2_reflection_det

from test_words import random_word

# --- naive oracles -----------------------------------------------------------


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def mat_eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det_oracle(rows):
    """Gaussian elimination over Fractions."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            factor = m[i][col] * inv
            if factor:
                m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
    assert det.denominator == 1
    return int(det)


# the genus-3 assignment written out by hand (basis x1 y1 x2 y2 x3 y3)
def _eye_with(updates):
    rows = mat_eye(6)
    for (i, j), v in updates.items():
        rows[i][j] = v
    return rows


ORACLE_MATRICES = {
    "b": _eye_with({(1, 0): 1}),     # transvection along y1
    "a1": _eye_with({(0, 1): -1}),   # transvection along x1
    "a2": _eye_with({(0, 1): -1}),
    "a3": _eye_with({(0, 1): -1}),
    "c1": mat_eye(6),
    "c2": mat_eye(6),
    "c3": mat_eye(6),
    "r": [[(-1 if i % 2 else 1) * int(i == j) for j in range(6)] for i in range(6)],
}


def oracle_rep(w):
    result = mat_eye(6)
    for lt in w:
        mat = ORACLE_MATRICES[lt.name]
        if lt.sign < 0:
            # all oracle letters are +-1-determinant and small: invert by hand
            mat = _oracle_inverse(lt.name)
        result = mat_mul(result, mat)
    return result


def _oracle_inverse(name):
    if name in ("c1", "c2", "c3"):
        return mat_eye(6)
    if name == "r":
        return ORACLE_MATRICES["r"]
    if name == "b":
        return _eye_with({(1, 0): -1})
    return _eye_with({(0, 1): 1})  # a1, a2, a3


# --- IntMatrix arithmetic ----------------------------------------------------


def random_int_matrix(rng, dim, lo=-4, hi=4):
    return IntMatrix.from_rows([[rng.randrange(lo, hi + 1) for _ in range(dim)]
                                for _ in range(dim)])


def test_matrix_det_matches_fraction_oracle():
    rng = random.Random(321)
    for dim in (1, 2, 3, 5, 8):
        for _ in range(40):
            m = random_int_matrix(rng, dim)
            assert m.det() == det_oracle(m.rows)


def test_matrix_power_and_mul_match_oracle():
    rng = random.Random(11)
    for _ in range(25):
        a = random_int_matrix(rng, 3)
        b = random_int_matrix(rng, 3)
        assert (a * b).rows == tuple(tuple(r) for r in mat_mul(a.rows, b.rows))
    m = IntMatrix.from_rows([[1, 1], [0, 1]])
    assert (m ** 5).rows == ((1, 5), (0, 1))


def test_a_negative_matrix_power_is_refused():
    m = IntMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="negative"):
        m ** -1


@pytest.mark.parametrize("make", [genus3_assignment, genus3_with_h_assignment,
                                  curve_reverser_assignment])
def test_matrix_powers_by_squaring_match_repeated_products(make):
    asg = make()
    for name, m in asg.matrices.items():
        for k in range(10):
            expected = mat_eye(m.dim)
            for _ in range(k):
                expected = mat_mul(expected, m.rows)
            assert (m ** k).rows == tuple(map(tuple, expected)), (name, k)


def test_products_are_square_and_outside_rows_are_checked():
    rng = random.Random(5)
    a, b = random_int_matrix(rng, 4), random_int_matrix(rng, 4)
    for made in (a * b, a ** 3, -a, a.transpose(), IntMatrix.identity(4)):
        assert made == IntMatrix.from_rows(made.rows)  # the checked constructor agrees
    with pytest.raises(ValueError, match="square"):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError, match="square"):
        IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        IntMatrix.identity(2) * IntMatrix.identity(3)


# --- transvections -----------------------------------------------------------


def test_transvection_of_zero_class_is_identity():
    space = SymplecticSpace(3)
    assert transvection(space, (0,) * 6).is_identity()


def test_transvection_is_unipotent_with_det_one():
    space = SymplecticSpace(1)
    m = transvection(space, space.basis_vector(0))
    assert m.det() == 1
    assert m.rows in (((1, -1), (0, 1)), ((1, 1), (0, 1)))
    rng = random.Random(555)
    for genus in (1, 2, 3):
        sp = SymplecticSpace(genus)
        for _ in range(40):
            v = tuple(rng.randrange(-3, 4) for _ in range(sp.dim))
            for sign in (1, -1):
                t = transvection(sp, v, sign)
                assert det_oracle(t.rows) == 1
                # fixes its own class vector
                image = tuple(sum(t.rows[i][j] * v[j] for j in range(sp.dim))
                              for i in range(sp.dim))
                assert image == v


def test_transvection_rejects_wrong_dimension_and_sign():
    space = SymplecticSpace(2)
    with pytest.raises(ValueError):
        transvection(space, (1, 0))
    with pytest.raises(ValueError):
        transvection(space, (1, 0, 0, 0), sign=2)


def test_star_shadow_in_rank_two():
    # frozen by hand: A = T_a, B = T_b restricted to span(x1, y1)
    A = [[1, -1], [0, 1]]
    B = [[1, 0], [1, 1]]
    M = mat_mul(B, mat_mul(A, mat_mul(A, A)))
    assert M == [[1, -3], [1, -2]]
    assert M[0][0] + M[1][1] == -1
    assert det_oracle(M) == 1
    assert mat_mul(M, mat_mul(M, M)) == mat_eye(2)
    # the module's transvections restrict to the same block
    space = SymplecticSpace(1)
    ta = transvection(space, (1, 0))
    tb = transvection(space, (0, 1))
    prod = tb * ta * ta * ta
    assert [list(r) for r in prod.rows] == M


# --- the genus-3 assignment --------------------------------------------------


def test_genus3_matches_the_hand_written_oracle():
    asg = genus3_assignment()
    for name, rows in ORACLE_MATRICES.items():
        assert [list(r) for r in asg.matrices[name].rows] == rows


def test_genus3_boundary_twists_act_trivially():
    asg = genus3_assignment()
    for name in ("c1", "c2", "c3"):
        assert asg.matrices[name].is_identity()


def test_genus3_reflection_conjugates_twists_to_inverses():
    asg = genus3_assignment()
    r = asg.matrices["r"]
    ta = asg.matrices["a1"]
    assert r * ta * asg.matrix("r", -1) == asg.matrix("a1", -1)
    # r a2 r^-1 = (a3 twist)^-1; equal classes make the matrices coincide
    assert r * asg.matrices["a2"] * asg.matrix("r", -1) == asg.matrix("a3", -1)


def test_genus3_reflection_negates_the_form():
    asg = genus3_assignment()
    r = asg.matrices["r"]
    form = asg.space.form
    assert r * r == IntMatrix.identity(6)
    assert r.transpose() * form * r == -form


def test_evaluate_rep_examples():
    asg = genus3_assignment()
    assert evaluate_rep(Word(), asg).is_identity()
    assert evaluate_rep(word("b a1 b a1^-1 b^-1 a1^-1"), asg).is_identity()
    assert evaluate_rep(word("( b a1 a2 a3 )^3 ( c1 c2 c3 )^-1"), asg).is_identity()


def test_evaluate_rep_matches_oracle_on_random_words():
    rng = random.Random(2718)
    asg = genus3_assignment()
    for _ in range(150):
        w = random_word(rng, rng.randrange(0, 25))
        assert [list(r) for r in evaluate_rep(w, asg).rows] == oracle_rep(w)


def test_evaluate_rep_is_a_monoid_homomorphism():
    rng = random.Random(31415)
    asg = genus3_assignment()
    for _ in range(80):
        u = random_word(rng, rng.randrange(0, 12))
        v = random_word(rng, rng.randrange(0, 12))
        assert evaluate_rep(concat(u, v), asg) == evaluate_rep(u, asg) * evaluate_rep(v, asg)


def test_evaluate_rep_missing_generator():
    with pytest.raises(MissingGenerator):
        evaluate_rep(word("h"), genus3_assignment())


def test_extended_assignment_h_commutes_with_torus_letters():
    asg = genus3_with_h_assignment()
    h = asg.matrices["h"]
    assert h * h == IntMatrix.identity(6)
    for name in ("b", "a1", "a2", "a3", "c1", "c2", "c3"):
        assert h * asg.matrices[name] == asg.matrices[name] * h


def test_curve_reverser_assignment():
    asg = curve_reverser_assignment()
    c, s = asg.matrices["c"], asg.matrices["s"]
    assert s * c * asg.matrix("s", -1) == asg.matrix("c", -1)
    assert evaluate_rep(word("s c s^-1 c"), asg).is_identity()


def test_assignment_validation_rejects_bad_matrices():
    space = SymplecticSpace(1)
    # a non-unimodular and a singular matrix fail the form check
    with pytest.raises(ValueError, match="form"):
        HomologyAssignment("bad", space, {"b": IntMatrix.from_rows([[2, 0], [0, 1]])}, {"b": 1})
    with pytest.raises(ValueError, match="form"):
        HomologyAssignment("bad", space, {"r": IntMatrix.from_rows([[1, 1], [1, 1]])}, {"r": -1})
    with pytest.raises(ValueError, match="form"):
        # claims to preserve the form but negates it
        HomologyAssignment("bad", space, {"r": IntMatrix.from_rows([[1, 0], [0, -1]])}, {"r": 1})


@pytest.mark.parametrize("make", [genus3_assignment, genus3_with_h_assignment,
                                  curve_reverser_assignment])
def test_every_generator_inverse_is_a_two_sided_inverse(make):
    asg = make()
    for name, m in asg.matrices.items():
        assert (m * asg.matrix(name, -1)).is_identity(), name
        assert (asg.matrix(name, -1) * m).is_identity(), name


# --- relation shadows for a range of exponents --------------------------------


P = word("b a2 a3 b a1 a2 c2^-1")
Q = word("c3^-1 b a2 a3 b a1 a2")


@pytest.mark.parametrize("n", range(-4, 5))
def test_factorisation_and_commutator_shadows(n):
    asg = genus3_assignment()
    c1_n = evaluate_rep(power(word("c1"), n), asg)
    assert c1_n.is_identity()
    rhs = concat(power(P, n), power(Q, n))
    assert evaluate_rep(rhs, asg) == c1_n
    comm = commutator(power(P, n), word("a1^-1 r"))
    assert evaluate_rep(comm, asg) == c1_n


# --- the nonorientable picture -----------------------------------------------


def test_fig2_basis_labels():
    assert fig2_basis_labels(0) == ("a1", "b", "c2", "d", "h")
    assert fig2_basis_labels(2) == ("a1", "b", "c2", "d", "h", "e1", "e2", "f1", "f2")
    with pytest.raises(ValueError):
        fig2_basis_labels(-1)


def test_reflection_matrix_listed_action():
    m = reflection_matrix_fig2(1)
    labels = fig2_basis_labels(1)
    idx = {lab: i for i, lab in enumerate(labels)}

    def image(lab):
        col = idx[lab]
        return {labels[i]: m.rows[i][col] for i in range(len(labels)) if m.rows[i][col]}

    assert image("a1") == {"a1": 1}
    assert image("b") == {"b": -1}
    assert image("c2") == {"c2": 1}
    assert image("d") == {"d": -1}
    assert image("h") == {"h": 1, "d": -1}
    assert image("e1") == {"e1": -1}
    assert image("f1") == {"f1": 1}


@pytest.mark.parametrize("k", range(0, 9))
def test_reflection_matrix_det_and_square(k):
    m = reflection_matrix_fig2(k)
    assert m.dim == 2 * k + 5
    assert m.det() == (-1) ** k
    assert det_oracle(m.rows) == (-1) ** k
    assert (m * m).is_identity()


@pytest.mark.parametrize("k", range(0, 41))
def test_reflection_det_is_the_determinant_of_the_matrix(k):
    assert fig2_reflection_det(k) == reflection_matrix_fig2(k).det() == (-1) ** k


def test_reflection_det_needs_a_nonnegative_k():
    with pytest.raises(ValueError, match="nonnegative"):
        fig2_reflection_det(-1)


def test_det_hom_at_a_large_genus_builds_no_matrix():
    start = time.perf_counter()
    assert det_hom(word("a1^-1 r"), SurfaceSpec(False, 2006), k=1000) == 1
    assert det_hom(word("r b r"), SurfaceSpec(False, 2008), k=1001) == 1
    assert det_hom(word("r"), SurfaceSpec(False, 2008), k=1001) == -1
    assert time.perf_counter() - start < 1.0


def test_det_hom_examples():
    n6 = SurfaceSpec(False, 6)
    assert det_hom(word("b a1 c2^-1 a3"), n6) == 1           # twists only
    assert det_hom(word("r h"), SurfaceSpec(False, 8), k=1) == 1   # (-1) * (-1)
    assert det_hom(word("a1^-1 r"), n6, k=0) == 1
    assert det_hom(word("a1^-1 r"), SurfaceSpec(False, 8), k=1) == -1


def test_det_hom_errors():
    with pytest.raises(ValueError):
        det_hom(word("b"), SurfaceSpec(True, 3))
    with pytest.raises(UndefinedDet):
        det_hom(word("r"), SurfaceSpec(False, 7))  # no embedding determinant
    with pytest.raises(UndefinedDet):
        det_hom(word("s"), SurfaceSpec(False, 7))  # decided by construction
