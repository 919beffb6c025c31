"""Surface types, two-sided curve classes, and per-case admissibility.

Surfaces are closed; the genus of a nonorientable surface counts the
projective planes in a connected sum decomposition.  Curve classes are
recorded up to homeomorphism of the pair (surface, curve): a separating
class stores the topological types of its two sides, a nonseparating
class whether its complement is orientable.

Case selection gates the certificate builders.  It takes a case family
(``FLAVORS``), a surface and a curve, and nothing else:

* ``extended-group``  -- orientable genus >= 3 or nonorientable genus >= 7,
  every two-sided class;
* ``twist-subgroup``  -- nonorientable only: separating with genus >= 7,
  nonorientable complement with genus >= 8, or orientable complement with
  genus >= 6 and genus = 2 mod 4.  Only the orientable-complement case
  computes the reflection's determinant, from the fig2 embedding; the
  separating and nonorientable-complement cases always take y = a1^-1 r h
  and mark the choice as forced.  The two excluded families
  (nonseparating nonorientable complement at genus 7; orientable
  complement at genus 0 mod 4) are reported as out of scope and flagged
  conjectural;
* ``even-power``      -- every surface and two-sided class; the case
  records whether a nonorientable complement piece of genus >= 2
  supplies the curve-reversing map inside the twist subgroup.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction

from .homology import fig2_reflection_det


class Unrealizable(ValueError):
    """The (surface, curve) data cannot exist."""


class OutOfScope(ValueError):
    """No certificate family covers the requested case.

    ``conjectural`` marks the two excluded twist-subgroup families where a
    single-commutator expression is conjectured but not certified.
    """

    def __init__(self, reason: str, conjectural: bool = False):
        super().__init__(reason)
        self.conjectural = conjectural


@dataclass(frozen=True)
class SurfaceSpec:
    orientable: bool
    genus: int

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise Unrealizable("genus must be at least 1")

    def __str__(self) -> str:
        return f"{'o' if self.orientable else 'n'}:{self.genus}"

    @classmethod
    def parse(cls, text: str) -> "SurfaceSpec":
        m = re.fullmatch(r"([on]):(\d+)", text.strip())
        if not m:
            raise Unrealizable(f"cannot parse surface spec {text!r}; expected o:<g> or n:<g>")
        return cls(m.group(1) == "o", int(m.group(2)))


@dataclass(frozen=True)
class SideType:
    """Topological type of one side of a separating curve (one boundary)."""

    orientable: bool
    genus: int

    def __str__(self) -> str:
        return f"{'o' if self.orientable else 'n'}{self.genus}"

    @classmethod
    def parse(cls, text: str) -> "SideType":
        m = re.fullmatch(r"([on])(\d+)", text.strip())
        if not m:
            raise Unrealizable(f"cannot parse side type {text!r}; expected o<g> or n<g>")
        return cls(m.group(1) == "o", int(m.group(2)))

    def genus_contribution(self) -> int:
        # an orientable handle counts as two projective planes in a
        # nonorientable connected sum
        return 2 * self.genus if self.orientable else self.genus


@dataclass(frozen=True)
class CurveClass:
    """A two-sided simple closed curve class, up to homeomorphism."""

    separating: bool
    sides: tuple[SideType, SideType] | None = None
    complement_orientable: bool | None = None

    def __str__(self) -> str:
        if self.separating:
            assert self.sides is not None
            return f"sep:{self.sides[0]}+{self.sides[1]}"
        if self.complement_orientable is None:
            return "nonsep"
        return "nonsep:oc" if self.complement_orientable else "nonsep:nc"

    @classmethod
    def parse(cls, text: str) -> "CurveClass":
        text = text.strip()
        if text == "nonsep":
            return cls(separating=False)
        if text == "nonsep:oc":
            return cls(separating=False, complement_orientable=True)
        if text == "nonsep:nc":
            return cls(separating=False, complement_orientable=False)
        if text.startswith("sep:"):
            parts = text[len("sep:"):].split("+")
            if len(parts) != 2:
                raise Unrealizable(f"separating class needs two sides, got {text!r}")
            return cls(separating=True,
                       sides=(SideType.parse(parts[0]), SideType.parse(parts[1])))
        raise Unrealizable(f"cannot parse curve class {text!r}")


def _validate_side(side: SideType) -> None:
    if side.orientable and side.genus < 1:
        raise Unrealizable("a disc side is excluded: the curve would bound a disc")
    if not side.orientable and side.genus < 2:
        raise Unrealizable("a Moebius-band side is excluded: the curve would bound one")


def classify(surface: SurfaceSpec, curve: CurveClass) -> CurveClass:
    """Normalise a curve class and reject impossible combinations."""
    if curve.separating:
        if curve.sides is None:
            raise Unrealizable("separating class must record both side types")
        for side in curve.sides:
            _validate_side(side)
        total = sum(side.genus_contribution() for side in curve.sides)
        if surface.orientable:
            if not all(side.orientable for side in curve.sides):
                raise Unrealizable("an orientable surface has no nonorientable subsurface")
            if sum(side.genus for side in curve.sides) != surface.genus:
                raise Unrealizable(f"side genera do not sum to {surface.genus}")
        else:
            if all(side.orientable for side in curve.sides):
                raise Unrealizable("two orientable sides glue to an orientable surface")
            if total != surface.genus:
                raise Unrealizable(
                    f"side types contribute genus {total}, surface has {surface.genus}")
        sides = tuple(sorted(curve.sides, key=lambda s: (not s.orientable, s.genus)))
        return replace(curve, sides=sides)

    # nonseparating
    if curve.sides is not None:
        raise Unrealizable("a nonseparating class has no sides")
    if surface.orientable:
        if curve.complement_orientable is False:
            raise Unrealizable("complements in an orientable surface are orientable")
        return replace(curve, complement_orientable=True)
    if curve.complement_orientable is True:
        if surface.genus % 2 != 0:
            raise Unrealizable("an orientable complement forces even genus")
        return curve
    if curve.complement_orientable is False:
        if surface.genus < 3:
            raise Unrealizable("a nonorientable complement needs genus at least 3")
        return curve
    # unspecified complement: forced for odd genus, ambiguous for even
    if surface.genus % 2 == 1:
        if surface.genus < 3:
            raise Unrealizable("genus too small for a two-sided nonseparating curve")
        return replace(curve, complement_orientable=False)
    raise Unrealizable("ambiguous nonseparating class on even nonorientable genus: "
                       "say nonsep:oc or nonsep:nc")


@dataclass(frozen=True)
class TheoremCase:
    """An admissible certificate case, with the data the builders need."""

    theorem: str        # "T1-extended" | "T2-twist" | "R4-even-power"
    case_id: str
    genus_bound_used: int
    y_choice: str       # "r" | "rh" | "s"
    surface: SurfaceSpec
    curve: CurveClass
    k: int | None = None            # fig2 embedding parameter, when defined
    r_det: int | None = None        # det of the reflection's action, when computed
    forced_rh: bool = False         # reflection determinant not computed; rh used
    twist_admissible: bool | None = None  # even-power cases only


FLAVORS = ("extended-group", "twist-subgroup", "even-power")


def select_case(surface: SurfaceSpec, curve: CurveClass, flavor: str) -> TheoremCase:
    """Pick the applicable case of the ``flavor`` family for a classified
    curve, checking the exact genus hypotheses eagerly."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    curve = classify(surface, curve)

    if flavor == "extended-group":
        if surface.orientable:
            if surface.genus < 3:
                raise OutOfScope("extended-group certificates need orientable genus >= 3")
            return TheoremCase("T1-extended", "T1-orientable", 3, "r", surface, curve)
        if surface.genus < 7:
            raise OutOfScope("extended-group certificates need nonorientable genus >= 7")
        return TheoremCase("T1-extended", "T1-nonorientable", 7, "r", surface, curve)

    if flavor == "twist-subgroup":
        if surface.orientable:
            raise OutOfScope("twist-subgroup certificates live on nonorientable surfaces")
        if curve.separating:
            if surface.genus < 7:
                raise OutOfScope("twist-subgroup certificates for a separating curve "
                                 "need genus >= 7")
            # every side pair classify accepts puts the torus on one side and a
            # nonorientable genus >= 2 piece on the other
            return TheoremCase("T2-twist", "T2-separating", 7, "rh", surface, curve,
                               forced_rh=True)
        if curve.complement_orientable:
            k = surface.genus // 2 - 3  # classify made the genus even
            if surface.genus % 4 == 0 and surface.genus >= 8:
                raise OutOfScope(
                    "orientable complement with genus 0 mod 4: the reflection has "
                    "determinant -1 and the complement supports no crosscap slide",
                    conjectural=True)
            if surface.genus < 6:
                raise OutOfScope("orientable-complement certificates need genus >= 6")
            det = fig2_reflection_det(k)
            return TheoremCase("T2-twist", "T2-orientable-complement", 6,
                               "r" if det == 1 else "rh", surface, curve,
                               k=k, r_det=det)
        # nonorientable complement
        if surface.genus == 7:
            raise OutOfScope(
                "nonseparating with nonorientable complement at genus 7: the "
                "complement of the embedded torus is too small for a crosscap slide",
                conjectural=True)
        if surface.genus < 8:
            raise OutOfScope("nonorientable-complement certificates need genus >= 8")
        return TheoremCase("T2-twist", "T2-nonorientable-complement", 8, "rh", surface, curve,
                           forced_rh=True)

    # even-power
    return TheoremCase("R4-even-power", "R4-even-power", 1, "s", surface, curve,
                       twist_admissible=_even_power_twist_admissible(surface, curve))


def _even_power_twist_admissible(surface: SurfaceSpec, curve: CurveClass) -> bool:
    if curve.separating:
        assert curve.sides is not None
        return any(not side.orientable and side.genus >= 2 for side in curve.sides)
    if surface.orientable or curve.complement_orientable:
        return False
    return surface.genus - 2 >= 2  # complement genus of a nonseparating curve


@dataclass(frozen=True)
class SclBound:
    value: Fraction
    justification: str
    case: TheoremCase


def scl_upper_bound(case: TheoremCase) -> SclBound:
    """Stable commutator length upper bound for the case's twist.

    Every admissible case carries a commutator certificate family, so the
    commutator length of each (even, for the even-power case) power is at
    most one and the stable limit is zero.
    """
    if case.theorem == "R4-even-power":
        group = "twist subgroup" if case.twist_admissible else "extended mapping class group"
        return SclBound(Fraction(0),
                        f"cl(t^(2m)) <= 1 in the {group} for every m, so "
                        "scl(t) = lim cl(t^(2m))/(2m) = 0", case)
    group = "twist subgroup" if case.theorem == "T2-twist" else "extended mapping class group"
    return SclBound(Fraction(0),
                    f"cl(t^n) <= 1 in the {group} for every n, so "
                    "scl(t) = lim cl(t^n)/n = 0", case)
