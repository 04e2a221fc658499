"""Godement-Jacquet-type gamma factor for characters mu o N of GL_m(D),
in the normalization the doubling measure forces.

The closed form is obtained by eliminating the correction factor between
the two expressions for the degenerate-Whittaker normalizing constant in
the linear case:

    gj(u, mu, psi) = mu(2)^{4m} |2|^{4mu + 4m^2 - 2m}
                     prod_{i=0}^{2m-1} gamma(u + m - 1/2 - i, mu, psi).

Over odd-residue nonarchimedean fields the prefactors are 1 and gj is the
split-case product of Tate gammas; over R it differs from the classical
factor by exactly those powers of |2| and mu(2) (a measure normalization,
kept deliberately).  The derivation is reproduced mechanically from the
normalizing-constant identity in the doubling module's tests.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import AddCharacter, MultCharacter, char_eval
from .memo import per_call
from .mero import LinForm, MeroExpr, mero_mul
from .tate import abs_power, tate_L, tate_gamma


def _prefactor(m: int, mu: MultCharacter) -> MeroExpr:
    return mero_mul(MeroExpr.const(char_eval(mu, Fraction(2)) ** (4 * m)),
                    abs_power(mu.field, Fraction(2),
                              LinForm(Fraction(4 * m), Fraction(4 * m * m - 2 * m))))


def _shifts(m: int):
    return [Fraction(2 * m - 1, 2) - i for i in range(2 * m)]  # m - 1/2 - i


def _shifted(m: int, tate: MeroExpr) -> list[MeroExpr]:
    return [tate.subst(1, shift) for shift in _shifts(m)]


@per_call
def gj_gamma_norm(m: int, mu: MultCharacter, psi: AddCharacter) -> MeroExpr:
    if m < 1:
        raise ValueError("GL block size must be >= 1")
    return mero_mul(_prefactor(m, mu), *_shifted(m, tate_gamma(mu, psi)))


@per_call
def gj_L(m: int, mu: MultCharacter) -> MeroExpr:
    return mero_mul(*_shifted(m, tate_L(mu)))
