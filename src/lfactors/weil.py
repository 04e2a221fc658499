"""Archimedean Weil-group factors: 1, sgn, and the two-dimensional D_l.

gamma(s, D_l, psi) = i^{l+1} GammaC(l/2 + 1 - s) / GammaC(s + l/2), with
L(s, D_l) = GammaC(s + l/2); D_l = D_{-l} and D_l tensor sgn = D_l, so
summands are stored with l > 0.  One-dimensional summands defer to the
Tate layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .characters import AddCharacter, MultCharacter
from .exactconst import ExactConst
from .fields import LocalField
from .mero import LinForm, MeroExpr, mero_mul
from .scalars import add, mul, sub
from .tate import abs_power, tate_gamma, tate_L


@dataclass(frozen=True)
class WeilSummand:
    kind: str  # "trivial" | "sign" | "discrete"
    l: int = 0
    twist: Fraction | complex = Fraction(0)

    def __post_init__(self):
        if self.kind == "discrete":
            if self.l == 0:
                raise ValueError("D_0 is reducible; use trivial + sign")
            object.__setattr__(self, "l", abs(self.l))
        elif self.kind not in ("trivial", "sign"):
            raise ValueError(f"unknown summand kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return 2 if self.kind == "discrete" else 1


@dataclass(frozen=True)
class WeilRep:
    field: LocalField
    summands: tuple[WeilSummand, ...]

    def __post_init__(self):
        if not self.field.is_real:
            raise ValueError("Weil-group parameters are archimedean here")

    @property
    def dim(self) -> int:
        return sum(w.dim for w in self.summands)


def _char_of(field: LocalField, kind: str, twist) -> MultCharacter:
    base = MultCharacter.sign(field) if kind == "sign" else MultCharacter.trivial(field)
    if twist == 0:
        return base
    from .characters import unramified_twist
    return unramified_twist(base, twist)


def _discrete_gamma(l: int, twist, psi: AddCharacter) -> MeroExpr:
    """gamma(s, D_l |.|^twist, psi_a)."""
    num = MeroExpr.gamma_c(LinForm(Fraction(-1), add(Fraction(l, 2) + 1, twist)))
    den = MeroExpr.gamma_c(LinForm(Fraction(1), add(Fraction(l, 2), twist)))
    return mero_mul(MeroExpr.const(ExactConst.i() ** (l + 1)), num, den.inv(),
                    _discrete_psi_scale(l, twist, psi))


def _discrete_psi_scale(l: int, twist, psi: AddCharacter) -> MeroExpr:
    """det-character and dimension scaling under psi -> psi_a: the
    determinant of D_l is sgn^{l+1}, the dimension is 2."""
    a = psi.a
    if a == 1:
        return MeroExpr.one()
    det_sign = -1 if (a < 0 and (l + 1) % 2) else 1
    # |a|^{2(s + twist) - 1}
    return mero_mul(MeroExpr.const(ExactConst.of(det_sign)),
                    abs_power(psi.field, a, LinForm(Fraction(2), sub(mul(2, twist), 1))))


def _discrete_L(l: int, twist) -> MeroExpr:
    return MeroExpr.gamma_c(LinForm(Fraction(1), add(Fraction(l, 2), twist)))


def weil_gamma(rep: WeilRep, psi: AddCharacter) -> MeroExpr:
    return mero_mul(*(_discrete_gamma(w.l, w.twist, psi) if w.kind == "discrete"
                      else tate_gamma(_char_of(rep.field, w.kind, w.twist), psi)
                      for w in rep.summands))


def weil_L(rep: WeilRep) -> MeroExpr:
    return mero_mul(*(_discrete_L(w.l, w.twist) if w.kind == "discrete"
                      else tate_L(_char_of(rep.field, w.kind, w.twist))
                      for w in rep.summands))
