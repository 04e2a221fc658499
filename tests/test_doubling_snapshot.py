"""Every doubling output on a grid of data reproduces its recorded text.

The grid holds one datum per representation class and form type over Q_5
and over R, each against a range of omega (unramified twists with exact
and complex z and t, ramified and quadratic characters, sign twists over R)
and several psi scales.  For every record the nine doubling outputs
(gamma, L, epsilon, R, c, T, Gamma, the zeta functional-equation factor
and the root number) are rendered to canonical text; an output that
raises is recorded by its exception name.

The expected text lives in tests/data/doubling_snapshot.json.  Regenerate
it, only when a change to the outputs is intended, with

    PYTHONPATH=src python tests/test_doubling_snapshot.py
"""

import json
from fractions import Fraction
from pathlib import Path

from lfactors.characters import AddCharacter, MultCharacter
from lfactors.doubling import (GLChar, Induced, RegularNilpotentData,
                               SkewHermCharR, SpHighestWeight, TrivialRep,
                               correction_R, epsilon_factor, gamma_capital,
                               gamma_factor, l_factor, normalization_c,
                               root_number, t_factor, zeta_fe_factor)
from lfactors.exactconst import ExactConst
from lfactors.fields import LocalField, SquareClass
from lfactors.hermitian import HermitianSpace
from lfactors.mero import MeroExpr, format_expr
from lfactors.quaternion import QuaternionAlgebra

DATA = Path(__file__).resolve().parent / "data" / "doubling_snapshot.json"

Q5 = LocalField.padic(5)
R = LocalField.real()


def _char(field, quad="1", z=1, t=0):
    return MultCharacter(field, SquareClass(field, quad), z, t)


def _padic_data():
    D = QuaternionAlgebra(Q5, Fraction(2), Fraction(5))
    ramified = _char(Q5, "p")
    return {
        "herm-n2": TrivialRep(HermitianSpace.diagonal(D, "hermitian", [1, 1])),
        "herm-n0": TrivialRep(HermitianSpace(D, "hermitian", 0)),
        "skew-n1": TrivialRep(HermitianSpace.diagonal(D, "skew", [D.element(0, 1)])),
        "skew-n0": TrivialRep(HermitianSpace(D, "skew", 0)),
        "gl-m1-unram": GLChar(1, _char(Q5, z=-1, t=Fraction(1, 3))),
        "gl-m2-ramified": GLChar(2, ramified),
        "induced-ramified": Induced((GLChar(1, ramified), GLChar(1, _char(Q5, t=Fraction(7, 10)))),
                                    TrivialRep(HermitianSpace.diagonal(D, "skew", [D.element(0, 1)]))),
    }


def _real_data():
    H = QuaternionAlgebra(R, Fraction(-1), Fraction(-1))
    return {
        "herm-n1": TrivialRep(HermitianSpace.diagonal(H, "hermitian", [1])),
        "herm-n0": TrivialRep(HermitianSpace(H, "hermitian", 0)),
        "skew-n1": TrivialRep(HermitianSpace.diagonal(H, "skew", [H.element(0, 1)])),
        "skew-n0": TrivialRep(HermitianSpace(H, "skew", 0)),
        "skewchar-l0": SkewHermCharR(0),
        "skewchar-lm3": SkewHermCharR(-3),
        "sp-21": SpHighestWeight(2, (2, 1)),
        "gl-m1-sign": GLChar(1, _char(R, "-1", t=Fraction(1, 2))),
        "induced": Induced((GLChar(1, _char(R, t=Fraction(1, 3))),), SkewHermCharR(2)),
    }


def _grid():
    """(record id, datum, omega, psi) for every record of the snapshot."""
    omegas = {
        Q5: {"triv": _char(Q5), "z3-t1/2": _char(Q5, z=3, t=Fraction(1, 2)),
             "z2i": _char(Q5, z=2j), "t1.3": _char(Q5, t=1.3),
             "ram": _char(Q5, "p"), "u": _char(Q5, "u")},
        R: {"triv": _char(R), "sgn": _char(R, "-1"), "t1/2": _char(R, t=Fraction(1, 2)),
            "t1.3": _char(R, t=1.3), "sgn-t2i": _char(R, "-1", t=2j)},
    }
    scales = {Q5: (1, 2, 5), R: (1, -1, 2)}
    for field, data in ((Q5, _padic_data()), (R, _real_data())):
        for name, rep in data.items():
            for oname, omega in omegas[field].items():
                for a in scales[field]:
                    yield f"{field}/{name}/{oname}/psi{a}", rep, omega, AddCharacter(field, a)


def _text(value) -> str:
    if isinstance(value, MeroExpr):
        text = format_expr(value)
        # the complex prefactor's repr keeps the sign of a zero part
        return text if value.is_exact else f"{text} @ {value.prefactor!r}"
    return str(value) if isinstance(value, ExactConst) else repr(value)


def _outputs(rep, omega, psi) -> dict[str, str]:
    space = rep.space
    A = RegularNilpotentData(Fraction(3) if space.n else Fraction(1))
    a = psi.a if psi.a != 1 else Fraction(3)
    calls = {
        "gamma": lambda: gamma_factor(rep, omega, psi),
        "L": lambda: l_factor(rep, omega),
        "epsilon": lambda: epsilon_factor(rep, omega, psi),
        "R": lambda: correction_R(space, omega, A, psi),
        "c": lambda: normalization_c(space, omega, A, psi),
        "T": lambda: t_factor(space, omega, a),
        "Gamma": lambda: gamma_capital(rep, omega, A, psi),
        "zeta_fe": lambda: zeta_fe_factor(rep, omega, psi),
        "root_number": lambda: root_number(space, rep.central_sign, omega, psi),
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = _text(call())
        except (ValueError, ArithmeticError) as exc:
            out[name] = "raises " + type(exc).__name__
    return out


def generate() -> dict[str, dict[str, str]]:
    return {rid: _outputs(rep, omega, psi) for rid, rep, omega, psi in _grid()}


_EXPECTED = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else {}


def test_snapshot_covers_the_grid():
    assert sorted(_EXPECTED) == sorted(rid for rid, *_ in _grid())


def test_doubling_outputs_match_snapshot():
    got = generate()
    diffs = [f"{rid} {name}: {got[rid][name]!r} != {want!r}"
             for rid, outputs in _EXPECTED.items() for name, want in outputs.items()
             if got.get(rid, {}).get(name) != want]
    assert not diffs, f"{len(diffs)} outputs differ, first: " + "\n".join(diffs[:10])


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(generate(), indent=0, sort_keys=True) + "\n", encoding="utf-8")
