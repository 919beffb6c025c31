"""Exact integer homology representations.

Dehn twists act on first homology by transvections x -> x + sign.<x,v>.v;
the sign convention here is "right twist = +", pinned by requiring the
homology shadow of the star relation, (T_b T_a^3)^3 = 1, to hold.  All
arithmetic is arbitrary-precision integer; nothing in this module touches
floating point.

Three assignments ship:

* ``genus3_assignment``        -- the capped-torus embedding in a closed
  orientable genus-3 surface: every boundary curve bounds a one-holed
  torus, so c1, c2, c3 act trivially and a1, a2, a3 share one class.
* ``genus3_with_h_assignment`` -- the same, extended by a matrix for the
  complement homeomorphism h (it acts away from the torus, here by
  swapping the two complementary handles).
* ``curve_reverser_assignment`` -- a rank-2 model for the pair (c, s)
  with s c s^-1 = c^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .words import DEFAULT_ALPHABET, GeneratorKind, Word


class MissingGenerator(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class NonInvertibleAssignment(ValueError):
    def __init__(self, name: str):
        super().__init__(f"matrix assigned to {name!r} is not invertible over the integers")
        self.name = name


class UndefinedDet(ValueError):
    def __init__(self, name: str, reason: str = ""):
        msg = f"no determinant value for generator {name!r}"
        super().__init__(msg + (f": {reason}" if reason else ""))
        self.name = name


@dataclass(frozen=True)
class IntMatrix:
    """A square matrix with exact integer entries."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = len(self.rows)
        if any(len(row) != d for row in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, dim: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        cols = list(zip(*other.rows))
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows))

    def __pow__(self, n: int) -> "IntMatrix":
        base = self.inverse() if n < 0 else self
        result = IntMatrix.identity(self.dim)
        for _ in range(abs(n)):
            result = result * base
        return result

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-x for x in row) for row in self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.dim)

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.dim))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        d = self.dim
        if d == 0:
            return 1
        m = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(d - 1):
            if m[k][k] == 0:
                for i in range(k + 1, d):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, d):
                for j in range(k + 1, d):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[d - 1][d - 1]

    def inverse(self) -> "IntMatrix":
        """Exact inverse; defined only for matrices invertible over Z."""
        d = self.dim
        aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
               for i, row in enumerate(self.rows)]
        for col in range(d):
            pivot = next((i for i in range(col, d) if aug[i][col] != 0), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for i in range(d):
                if i != col and aug[i][col]:
                    factor = aug[i][col]
                    aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
        entries = [row[d:] for row in aug]
        if any(x.denominator != 1 for row in entries for x in row):
            raise ValueError("matrix is not invertible over the integers")
        return IntMatrix.from_rows([[int(x) for x in row] for row in entries])

    def __str__(self) -> str:
        width = max((len(str(x)) for row in self.rows for x in row), default=1)
        return "\n".join("[" + " ".join(str(x).rjust(width) for x in row) + "]"
                         for row in self.rows)


@dataclass(frozen=True)
class SymplecticSpace:
    """Z^(2g) with the standard symplectic form, basis x1 y1 x2 y2 ...
    and <xi, yi> = +1."""

    genus: int

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise ValueError("genus must be at least 1")

    @property
    def dim(self) -> int:
        return 2 * self.genus

    @property
    def form(self) -> IntMatrix:
        d = self.dim
        rows = [[0] * d for _ in range(d)]
        for i in range(self.genus):
            rows[2 * i][2 * i + 1] = 1
            rows[2 * i + 1][2 * i] = -1
        return IntMatrix.from_rows(rows)

    def basis_vector(self, index: int) -> tuple[int, ...]:
        return tuple(1 if i == index else 0 for i in range(self.dim))

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        total = 0
        for i in range(self.genus):
            total += u[2 * i] * v[2 * i + 1] - u[2 * i + 1] * v[2 * i]
        return total


def transvection(space: SymplecticSpace, v: Sequence[int], sign: int = 1) -> IntMatrix:
    """The twist action x -> x + sign.<x,v>.v; unipotent, det 1, fixes v."""
    if len(v) != space.dim:
        raise ValueError(f"class vector has length {len(v)}, space dimension is {space.dim}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    d = space.dim
    pair_with_v = [space.pairing(space.basis_vector(j), v) for j in range(d)]
    return IntMatrix.from_rows(
        [[(1 if i == j else 0) + sign * pair_with_v[j] * v[i] for j in range(d)]
         for i in range(d)])


class HomologyAssignment:
    """A generator -> matrix map with the declared form behaviour checked
    at construction: twists preserve the form, the reflection negates it."""

    def __init__(self, assignment_id: str, space: SymplecticSpace,
                 matrices: Mapping[str, IntMatrix], form_signs: Mapping[str, int]):
        self.assignment_id = assignment_id
        self.space = space
        self.matrices = dict(matrices)
        self.form_signs = dict(form_signs)
        self._inverses: dict[str, IntMatrix] = {}
        form = space.form
        for name, mat in self.matrices.items():
            if mat.dim != space.dim:
                raise ValueError(f"matrix for {name!r} has dimension {mat.dim}, "
                                 f"space has {space.dim}")
            if mat.det() not in (1, -1):
                raise NonInvertibleAssignment(name)
            self._inverses[name] = mat.inverse()
            declared = self.form_signs.get(name, 1)
            got = mat.transpose() * form * mat
            expected = form if declared == 1 else -form
            if got != expected:
                raise ValueError(f"matrix for {name!r} does not "
                                 f"{'preserve' if declared == 1 else 'negate'} the form")

    def covers(self, w: Word) -> bool:
        return all(lt.name in self.matrices for lt in w)

    def matrix(self, name: str, sign: int = 1) -> IntMatrix:
        try:
            return self.matrices[name] if sign > 0 else self._inverses[name]
        except KeyError:
            raise MissingGenerator(name) from None


def evaluate_rep(w: Word, assignment: HomologyAssignment) -> IntMatrix:
    """Product of the assigned matrices in word order; exact inverses for
    inverse letters.  The empty word gives the identity."""
    result = IntMatrix.identity(assignment.space.dim)
    for lt in w:
        result = result * assignment.matrix(lt.name, lt.sign)
    return result


@lru_cache(maxsize=None)
def genus3_assignment() -> HomologyAssignment:
    """Capped-torus embedding in the closed orientable genus-3 surface.

    Every boundary curve bounds a one-holed torus, so [c1]=[c2]=[c3]=0 and
    [a1]=[a2]=[a3]=x1, [b]=y1 with <x1,y1>=1.  The reflection fixes every
    xi and negates every yi, so it squares to the identity and negates the
    form.
    """
    space = SymplecticSpace(genus=3)
    t_a = transvection(space, space.basis_vector(0))
    t_b = transvection(space, space.basis_vector(1))
    ident = IntMatrix.identity(space.dim)
    refl = IntMatrix.from_rows(
        [[(1 if i == j else 0) * (-1 if i % 2 else 1) for j in range(space.dim)]
         for i in range(space.dim)])
    matrices = {"b": t_b, "a1": t_a, "a2": t_a, "a3": t_a,
                "c1": ident, "c2": ident, "c3": ident, "r": refl}
    signs = {name: 1 for name in matrices}
    signs["r"] = -1
    return HomologyAssignment("genus3", space, matrices, signs)


@lru_cache(maxsize=None)
def genus3_with_h_assignment() -> HomologyAssignment:
    """genus3_assignment extended by h, which acts away from the torus:
    here it swaps the two complementary handles (x2,y2) <-> (x3,y3)."""
    base = genus3_assignment()
    d = base.space.dim
    perm = {2: 4, 3: 5, 4: 2, 5: 3}
    swap = IntMatrix.from_rows(
        [[1 if perm.get(j, j) == i else 0 for j in range(d)] for i in range(d)])
    matrices = dict(base.matrices, h=swap)
    signs = dict(base.form_signs, h=1)
    return HomologyAssignment("genus3-h", base.space, matrices, signs)


@lru_cache(maxsize=None)
def curve_reverser_assignment() -> HomologyAssignment:
    """Rank-2 model for the pair (c, s): c acts as a transvection and the
    orientation-reversing s conjugates it to its inverse."""
    space = SymplecticSpace(genus=1)
    t_c = transvection(space, space.basis_vector(0))
    s_mat = IntMatrix.from_rows([[1, 0], [0, -1]])
    return HomologyAssignment("curve-reverser", space,
                              {"c": t_c, "s": s_mat}, {"c": 1, "s": -1})


ASSIGNMENTS = {
    "genus3": genus3_assignment,
    "genus3-h": genus3_with_h_assignment,
    "curve-reverser": curve_reverser_assignment,
}


# --- the nonorientable picture: only determinant facts are consumed ---------


def fig2_basis_labels(k: int) -> tuple[str, ...]:
    """Ordered homology basis of the genus-2(k+3) nonorientable surface cut
    open along the orientable-complement curve: a1, b, c2, d, h, e1..ek,
    f1..fk (dimension 2k+5).  The label h names a curve, not the
    complement homeomorphism."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return (("a1", "b", "c2", "d", "h")
            + tuple(f"e{i}" for i in range(1, k + 1))
            + tuple(f"f{i}" for i in range(1, k + 1)))


def reflection_matrix_fig2(k: int) -> IntMatrix:
    """The reflection's action in the fig2 basis: fixes a1, c2 and every
    fi; negates b, d and every ei; sends h to h - d.  Its determinant is
    (-1)^k and it squares to the identity."""
    labels = fig2_basis_labels(k)
    index = {label: i for i, label in enumerate(labels)}
    d = len(labels)
    rows = [[0] * d for _ in range(d)]

    def set_image(label: str, image: dict[str, int]) -> None:
        col = index[label]
        for target, coeff in image.items():
            rows[index[target]][col] = coeff

    set_image("a1", {"a1": 1})
    set_image("b", {"b": -1})
    set_image("c2", {"c2": 1})
    set_image("d", {"d": -1})
    set_image("h", {"h": 1, "d": -1})
    for i in range(1, k + 1):
        set_image(f"e{i}", {f"e{i}": -1})
        set_image(f"f{i}", {f"f{i}": 1})
    return IntMatrix.from_rows(rows)


def fig2_class_vector(k: int, curve_label: str) -> tuple[int, ...]:
    """Homology class of a labelled fig2 curve; c1 is null-homologous."""
    labels = fig2_basis_labels(k)
    if curve_label == "c1":
        return (0,) * len(labels)
    if curve_label not in labels:
        raise ValueError(f"unknown fig2 curve label {curve_label!r} for k={k}")
    i = labels.index(curve_label)
    return tuple(1 if j == i else 0 for j in range(len(labels)))


def twist_det_is_one_fig2(k: int, curve_label: str, sign: int = 1,
                          functionals: Iterable[Sequence[int]] | None = None) -> bool:
    """Any transvection-like map x -> x + sign.phi(x).v in the fig2 basis
    has determinant exactly 1, for every functional phi vanishing on the
    class v and either twist sign.  Checked against a spread of
    functionals; the determinant is computed exactly."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    v = fig2_class_vector(k, curve_label)
    d = len(v)
    if functionals is None:
        functionals = _default_functionals(v)
    for phi in functionals:
        if len(phi) != d:
            raise ValueError("functional has wrong length")
        if sum(p * x for p, x in zip(phi, v)) != 0:
            raise ValueError("functional must vanish on the curve class")
        mat = IntMatrix.from_rows(
            [[(1 if i == j else 0) + sign * phi[j] * v[i] for j in range(d)]
             for i in range(d)])
        if mat.det() != 1:
            return False
    return True


def _default_functionals(v: tuple[int, ...]) -> list[tuple[int, ...]]:
    d = len(v)
    out: list[tuple[int, ...]] = []
    for i in range(d):
        if v[i] == 0:
            out.append(tuple(1 if j == i else 0 for j in range(d)))
    # a denser functional exercising many entries at once
    dense = [(i + 1) if v[i] == 0 else 0 for i in range(d)]
    if any(dense):
        out.append(tuple(dense))
    return out


_DET_BY_KIND = {
    GeneratorKind.TWIST: 1,
    GeneratorKind.COMPLEMENT_HOMEO: -1,  # crosscap slide
}


def det_hom(w: Word, surface, k: int | None = None, r_det: int | None = None) -> int:
    """The determinant homomorphism on a closed nonorientable surface.

    Twists map to +1, crosscap slides to -1, the reflection to the
    determinant of its homology action for the chosen embedding: (-1)^k
    for the fig2 embedding, or an explicitly recorded value ``r_det``.
    The value +1 decides membership in the twist subgroup.
    """
    if surface.orientable:
        raise ValueError("the determinant homomorphism is defined for nonorientable surfaces")
    if r_det is not None and r_det not in (1, -1):
        raise ValueError("r_det must be +1 or -1")
    result = 1
    for lt in w:
        if lt.name not in DEFAULT_ALPHABET:
            raise UndefinedDet(lt.name, "unknown generator")
        kind = DEFAULT_ALPHABET[lt.name].kind
        if kind is GeneratorKind.REFLECTION:
            if r_det is not None:
                value = r_det
            elif k is not None:
                value = reflection_matrix_fig2(k).det()
            else:
                raise UndefinedDet(lt.name, "no embedding determinant recorded")
        elif kind in _DET_BY_KIND:
            value = _DET_BY_KIND[kind]
        else:
            raise UndefinedDet(lt.name, "membership is decided by construction, not by determinant")
        result *= value  # sign of the exponent never changes a value in {-1, 1}
    return result
