"""Exact integer homology representations.

Dehn twists act on first homology by transvections x -> x + sign.<x,v>.v;
the sign convention here is "right twist = +", pinned by requiring the
homology shadow of the star relation, (T_b T_a^3)^3 = 1, to hold.  Every
generator preserves or negates the intersection form J, so its inverse is
the integer matrix -sigma.J.M^T.J that the form check yields.  All
arithmetic is arbitrary-precision integer: no fractions, no floating point.

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
from functools import lru_cache
from operator import mul
from typing import Iterable, Mapping, Sequence

from .words import GENERATORS, Word


class MissingGenerator(ValueError):
    def __init__(self, name: str, assignment_id: str):
        super().__init__(f"generator {name!r} has no matrix in the {assignment_id} assignment")
        self.name = name


class UndefinedDet(ValueError):
    def __init__(self, name: str, reason: str = ""):
        msg = f"no determinant value for generator {name!r}"
        super().__init__(msg + (f": {reason}" if reason else ""))
        self.name = name


@dataclass(frozen=True)
class IntMatrix:
    """A square matrix with exact integer entries; its arithmetic (products,
    nonnegative powers, transpose, determinant) stays in the integers."""

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
        return cls(tuple(tuple(1 if i == j else 0 for j in range(dim))
                         for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        cols = list(zip(*other.rows))
        return IntMatrix(tuple(
            tuple(sum(map(mul, row, col)) for col in cols)
            for row in self.rows))

    def __pow__(self, n: int) -> "IntMatrix":
        """The n-th power, n >= 0, as n products; a generator's inverse
        comes from its assignment, not from here."""
        if n < 0:
            raise ValueError(f"matrix power {n} is negative")
        result = IntMatrix.identity(self.dim)
        for _ in range(n):
            result = result * self
        return result

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-x for x in row) for row in self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.dim)

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
    at construction: twists preserve the form J, the reflection negates it.
    A matrix M with M^T J M = sigma.J has the integer inverse
    -sigma.J.M^T.J, so the check also yields every inverse; a singular or
    non-unimodular matrix fails it."""

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
            preserves = self.form_signs.get(name, 1) == 1
            transpose_form = mat.transpose() * form
            if transpose_form * mat != (form if preserves else -form):
                raise ValueError(f"matrix for {name!r} does not "
                                 f"{'preserve' if preserves else 'negate'} the form")
            inverse = form * transpose_form
            self._inverses[name] = -inverse if preserves else inverse

    def covers(self, w: Word) -> bool:
        return all(lt.name in self.matrices for lt in w)

    def matrix(self, name: str, sign: int = 1) -> IntMatrix:
        try:
            return self.matrices[name] if sign > 0 else self._inverses[name]
        except KeyError:
            raise MissingGenerator(name, self.assignment_id) from None


def evaluate_rep(w: Word, assignment: HomologyAssignment) -> IntMatrix:
    """Product of the assigned matrices in word order; the form-given
    inverses for inverse letters.  The empty word gives the identity."""
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


def fig2_reflection_det(k: int) -> int:
    """The determinant of :func:`reflection_matrix_fig2`, (-1)^k, without
    building the matrix: it is upper triangular, and k + 2 of its diagonal
    entries are -1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return -1 if k % 2 else 1


_DET_BY_KIND = {"twist": 1, "crosscap-slide": -1}
_NO_DET_BY_KIND = {  # the UndefinedDet reason of each kind without a value
    None: "unknown generator",
    "reflection": "no embedding determinant recorded",
    "curve-reverser": "membership is decided by construction, not by determinant",
}


def det_hom(w: Word, surface, k: int | None = None) -> int:
    """The determinant homomorphism on a closed nonorientable surface.

    Twists map to +1, crosscap slides to -1, the reflection to the
    determinant (-1)^k of its homology action in the fig2 embedding with
    parameter ``k``.  The value +1 decides membership in the twist
    subgroup.
    """
    if surface.orientable:
        raise ValueError("the determinant homomorphism is defined for nonorientable surfaces")
    result = 1
    for lt in w:
        kind = GENERATORS.get(lt.name)
        if kind in _DET_BY_KIND:
            value = _DET_BY_KIND[kind]
        elif kind == "reflection" and k is not None:
            value = fig2_reflection_det(k)
        else:
            raise UndefinedDet(lt.name, _NO_DET_BY_KIND[kind])
        result *= value  # sign of the exponent never changes a value in {-1, 1}
    return result
