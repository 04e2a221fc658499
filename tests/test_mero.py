import cmath
import json
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mpmath
import numpy as np

import lfactors
from lfactors.characters import AddCharacter, MultCharacter
from lfactors.doubling import (GLChar, Induced, RegularNilpotentData, SkewHermCharR,
                               normalization_c)
from lfactors.exactconst import ExactConst
from lfactors.fields import LocalField
from lfactors import mero, scalars
from lfactors.mero import (ExpAtom, GammaCAtom, GammaRAtom, LAtom, LinForm, MeroExpr,
                           PoleProximityError, UnsupportedExpressionError, format_expr,
                           from_json, mero_mul, parse_expr, to_json)
from lfactors.numeric import (_log_gamma, _pole_free_samples, equals_numeric, eval_batch,
                              eval_log_batch, max_rel_error)
from lfactors.ratfunc import as_rational_in_X


def GR(alpha, beta=0):
    return MeroExpr.gamma_r(LinForm(Fraction(alpha), beta))


def GC(alpha, beta=0):
    return MeroExpr.gamma_c(LinForm(Fraction(alpha), beta))


def test_eval_examples():
    assert abs(GR(1).eval(1) - 1) < 1e-12            # pi^{-1/2} Gamma(1/2) = 1
    assert abs(GC(1).eval(1) - 1 / math.pi) < 1e-12  # 2 (2 pi)^{-1}
    dup = mero_mul(GR(1), GR(1, 1), GC(1).inv())
    rng = random.Random(1)
    for _ in range(10):
        s = complex(rng.uniform(-2, 2), rng.uniform(0.5, 3))
        assert abs(dup.eval(s) - 1) < 1e-10


def test_pole_proximity():
    with pytest.raises(PoleProximityError):
        GR(1).eval(0)
    with pytest.raises(PoleProximityError):
        GC(1).eval(-3 + 1e-12j)
    with pytest.raises(PoleProximityError):
        MeroExpr.l_atom(5, 1, LinForm(Fraction(1), 0)).eval(0)


def test_mul_inv_pow():
    x = mero_mul(GR(1), GC(-1, Fraction(3, 2)))
    assert (x * x.inv()) == MeroExpr.one()
    assert x ** 3 == mero_mul(x, x, x)
    sq = GR(1) * GR(1)
    assert dict(sq.atoms)[next(iter(dict(sq.atoms)))] == 2  # multiplicity 2


def test_exponent_merging():
    xs = mero_mul(*[MeroExpr.exp(5, LinForm(Fraction(-1), 0))] * 3)
    assert format_expr(xs) == "5^(-3s)"
    drop = mero_mul(MeroExpr.exp(5, LinForm(Fraction(1), 1)),
                    MeroExpr.exp(5, LinForm(Fraction(-1), 0)))
    assert format_expr(drop) == "5"  # constant 5^1 folded into the prefactor


def test_subst_examples():
    g = GR(1)
    assert format_expr(g.subst(-1, 1)) == "GammaR(-s+1)"
    e = MeroExpr.exp(5, LinForm(Fraction(-1), 0))
    assert format_expr(e.subst(1, 2)) == "1/25 * 5^(-s)"  # q^{-2} q^{-s}
    assert g.subst(1, 1).subst(1, -1) == g


def test_equals_numeric_examples():
    x = GR(1) * GR(1, 1)
    assert equals_numeric(x, x)
    assert equals_numeric(x, GC(1))          # duplication
    assert not equals_numeric(GR(1), GR(1, 2))


def test_roundtrip_spec_shape():
    x = mero_mul(MeroExpr.const(ExactConst.i()), GC(-1, Fraction(3, 2)),
                 GC(1, Fraction(3, 2)).inv())
    text = format_expr(x)
    assert text == "i * GammaC(-s+3/2) / GammaC(s+3/2)"
    assert parse_expr(text) == x
    assert from_json(json.loads(json.dumps(to_json(x)))) == x


def test_roundtrip_misc():
    exprs = [
        MeroExpr.const(ExactConst(Fraction(-3, 2), 1, frozenset([2, 5]))),
        mero_mul(MeroExpr.l_atom(7, -1, LinForm(Fraction(2), Fraction(-1, 2))),
                 GR(1, Fraction(5, 2)).inv()),
        MeroExpr.exp(3, LinForm(Fraction(-2), complex(0.7, 0))),
        MeroExpr.const(complex(1.25, -2.5)) * GC(1, complex(0.3, 0.1)),
    ]
    for x in exprs:
        assert parse_expr(format_expr(x)) == x
        assert from_json(to_json(x)) == x


def _ratfunc_at(rf, x: complex) -> complex:
    """The rational function rf at X = x, from its integer coefficient parts."""
    r = rf.p ** 0.5

    def at(f):
        return sum(complex(a + b * r, c + d * r) / f.n * x ** k
                   for k, (a, b, c, d) in enumerate(zip(*f.parts)))
    return at(rf.num) / at(rf.den)


def test_as_rational_examples():
    la = MeroExpr.l_atom(5, 1, LinForm(Fraction(1), 0))
    assert str(as_rational_in_X(la, 5)) == "(1) / (1 + -1*X)"
    assert str(as_rational_in_X(MeroExpr.exp(5, LinForm(Fraction(-2), 0)), 5)) == "X^2"
    tate = mero_mul(MeroExpr.l_atom(5, 1, LinForm(Fraction(-1), 1)), la.inv())
    rf = as_rational_in_X(tate, 5)
    rng = random.Random(2)
    for _ in range(5):
        s = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        assert abs(tate.eval(s) - _ratfunc_at(rf, cmath.exp(-s * cmath.log(5)))) < 1e-9
    with pytest.raises(UnsupportedExpressionError):
        as_rational_in_X(GR(1), 5)


def test_l_atom_keeps_a_rational_exact_z():
    """A rational ExactConst z stays a Fraction; it once became a float on
    the 2^-40 grid (0.025599999999940337 for 16/625)."""
    la = MeroExpr.l_atom(5, ExactConst(Fraction(16, 625)), LinForm(4, 0))
    (atom, _), = la.atoms
    assert type(atom.z) is Fraction and atom.z == Fraction(16, 625)
    rf = as_rational_in_X(la, 5)
    assert rf.is_exact and str(rf) == "(1) / (1 + -16/625*X^4)"
    assert la == MeroExpr.l_atom(5, Fraction(16, 625), LinForm(4, 0))


def test_simplify_idempotent_and_eval_stable():
    x = mero_mul(GR(1), GR(1).inv(), GC(2, Fraction(1, 2)),
                 MeroExpr.exp(2, LinForm(Fraction(0), Fraction(3, 2))))
    y = MeroExpr(x.prefactor, x.atoms)
    assert x == y
    assert abs(x.eval(0.7 + 1.1j) - y.eval(0.7 + 1.1j)) < 1e-12


def test_mul_commutative_associative_canonical():
    a = GR(1, Fraction(1, 2))
    b = MeroExpr.l_atom(5, -1, LinForm(Fraction(2), Fraction(-1)))
    c = MeroExpr.exp(3, LinForm(Fraction(-1), 0)).inv()
    assert mero_mul(a, b) == mero_mul(b, a)
    assert mero_mul(mero_mul(a, b), c) == mero_mul(a, mero_mul(b, c))


def test_equal_expressions_hash_alike():
    """Prefactors compare equal within 1e-12, and an exact one equal to a complex one."""
    pairs = [(1 + 0j, 1.0000000000001 + 0j), (ExactConst(Fraction(1, 2)), 0.5 + 0j)]
    for x, y in pairs:
        for atom in (MeroExpr.one(), GR(1, Fraction(1, 2))):
            a, b = atom * MeroExpr.const(x), atom * MeroExpr.const(y)
            assert a == b and hash(a) == hash(b)
            assert len({a, b}) == 1


def test_eval_accuracy_on_strip_against_mpmath():
    """>= 1e-12 relative accuracy for |Re s|, |Im s| <= 20."""
    mpmath.mp.dps = 40
    pts = [complex(19, 19), complex(-19.5, 3.2), complex(0.25, 17.5),
           complex(-7.3, -11.1), complex(12.8, -19.0)]
    for s in pts:
        got = GR(1).eval(s)
        ms = mpmath.mpc(s.real, s.imag)
        want = mpmath.power(mpmath.pi, -ms / 2) * mpmath.gamma(ms / 2)
        rel = abs(got - complex(want)) / abs(complex(want))
        assert rel < 1e-12
        got_c = GC(1).eval(s)
        want_c = 2 * mpmath.power(2 * mpmath.pi, -ms) * mpmath.gamma(ms)
        assert abs(got_c - complex(want_c)) / abs(complex(want_c)) < 1e-12


# -- the vectorised kernel against references ----------------------------------

def _scalar_log(x: MeroExpr, s: complex) -> complex:
    """Reference: the per-atom scalar rule, raising where the kernel gives NaN."""
    pref = x.prefactor.to_complex() if x.is_exact else x.prefactor
    if pref == 0:
        raise ZeroDivisionError("zero prefactor")
    total = cmath.log(pref)
    for atom, k in x.atoms:
        z = complex(atom.form.alpha) * s + complex(atom.form.beta)
        if isinstance(atom, ExpAtom):
            total += k * z * cmath.log(float(atom.base))
            continue
        if isinstance(atom, (GammaRAtom, GammaCAtom)):
            g = z / 2 if isinstance(atom, GammaRAtom) else z
            n = round(g.real)
            if n <= 0 and abs(g - n) < 1e-8:
                raise PoleProximityError(f"Gamma argument {g} at a pole")
            if isinstance(atom, GammaRAtom):
                total += k * (-g * cmath.log(cmath.pi) + complex(mpmath.loggamma(g)))
            else:
                total += k * (cmath.log(2) - z * cmath.log(2 * cmath.pi) + complex(mpmath.loggamma(z)))
            continue
        w = 1 - complex(atom.z) * cmath.exp(-z * cmath.log(atom.q))
        if abs(w) < 1e-8:
            raise PoleProximityError(f"L-atom vanishing at {s}")
        total -= k * cmath.log(w)
    return total


def _scalar_raises(x: MeroExpr, s: complex) -> bool:
    try:
        _scalar_log(x, s)
    except (PoleProximityError, ZeroDivisionError):
        return True
    return False


def _mp(v):
    if isinstance(v, complex):
        return mpmath.mpc(v.real, v.imag)
    v = Fraction(v)
    return mpmath.mpf(v.numerator) / v.denominator


def _mp_atom(atom, s: complex):
    """mpmath value of one atom at s, power not applied."""
    z = _mp(atom.form.alpha) * mpmath.mpc(s.real, s.imag) + _mp(atom.form.beta)
    if isinstance(atom, ExpAtom):
        return mpmath.power(_mp(atom.base), z)
    if isinstance(atom, GammaRAtom):
        return mpmath.power(mpmath.pi, -z / 2) * mpmath.gamma(z / 2)
    if isinstance(atom, GammaCAtom):
        return 2 * mpmath.power(2 * mpmath.pi, -z) * mpmath.gamma(z)
    return 1 / (1 - _mp(atom.z) * mpmath.power(atom.q, -z))


def _mp_value(x: MeroExpr, s: complex):
    """mpmath value of the expression from its atoms."""
    out = mpmath.mpc(x.prefactor.to_complex() if x.is_exact else x.prefactor)
    for atom, k in x.atoms:
        out *= _mp_atom(atom, s) ** k
    return complex(out)


def _random_kernel_expr(rng: random.Random) -> MeroExpr:
    """Products of 1-4 random atoms like verify's expression-roundtrip check,
    half of them with inexact (complex) constants."""
    inexact = rng.random() < 0.5
    pref = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)) if inexact else \
        ExactConst(Fraction(rng.randint(1, 5), rng.randint(1, 5)), rng.randint(0, 3),
                   frozenset(rng.sample([2, 3, 5], rng.randint(0, 2))))
    parts = [MeroExpr.const(pref)]
    for _ in range(rng.randint(1, 4)):
        beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) if inexact else \
            Fraction(rng.randint(-4, 4), 2)
        form = LinForm(Fraction(rng.choice([-2, -1, 1, 2])), beta)
        kind = rng.randrange(4)
        if kind == 0:
            parts.append(MeroExpr.gamma_r(form))
        elif kind == 1:
            parts.append(MeroExpr.gamma_c(form))
        elif kind == 2:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if inexact else rng.choice([1, -1])
            parts.append(MeroExpr.l_atom(rng.choice([3, 5, 7, 9, 25]), z, form))
        else:
            parts.append(MeroExpr.exp(Fraction(rng.randint(2, 5)), form))
        if rng.random() < 0.4:
            parts[-1] = parts[-1].inv()
    return mero_mul(*parts)


def test_eval_many_against_mpmath_on_wide_box():
    """Relative 1e-12 for |Re s|, |Im s| <= 20 on random exact and inexact
    expressions; NaN only where the scalar rule raises."""
    mpmath.mp.dps = 30
    rng = random.Random(7)
    checked = 0
    for _ in range(40):
        x = _random_kernel_expr(rng)
        pts = [complex(rng.uniform(-20, 20), rng.uniform(-20, 20)) for _ in range(8)]
        got = eval_batch([x], pts)[0]
        assert got.shape == (8,)
        for s, v in zip(pts, got):
            if np.isnan(v):
                assert _scalar_raises(x, s)
                continue
            want = _mp_value(x, s)
            assert abs(v - want) <= 1e-12 * abs(want), (format_expr(x), s)
            checked += 1
    assert checked > 250


def _poles_and_zeros(atom) -> list[complex]:
    """Points exactly on poles of a Gamma atom or zeros of an L-atom."""
    a, b = float(atom.form.alpha), complex(atom.form.beta)
    if isinstance(atom, GammaRAtom):
        return [(-2 * n - b) / a for n in range(3)]
    if isinstance(atom, GammaCAtom):
        return [(-n - b) / a for n in range(3)]
    lq = math.log(atom.q)
    return [((cmath.log(complex(atom.z)) + 2j * math.pi * n) / lq - b) / a for n in range(-1, 2)]


def test_eval_many_nan_exactly_where_scalar_rule_raises():
    rng = random.Random(11)
    exprs = [mero_mul(GR(1), GC(-1, Fraction(3, 2)).inv()),
             mero_mul(MeroExpr.l_atom(5, 1, LinForm(Fraction(1), 0)),
                      MeroExpr.l_atom(3, -1, LinForm(Fraction(-2), Fraction(1, 2))).inv(), GR(2, 1)),
             mero_mul(GC(1, complex(0.25, 0.5)), MeroExpr.l_atom(7, complex(0.3, 0.4),
                                                                  LinForm(Fraction(1), 0)))]
    exprs += [_random_kernel_expr(rng) for _ in range(20)]
    seen_nan = 0
    for x in exprs:
        pts = []
        for atom, _ in x.atoms:
            if not isinstance(atom, ExpAtom):
                for p in _poles_and_zeros(atom):
                    pts += [p, p + 1e-9, p + 3e-9j, p + 1e-7, p - 1e-6j]
        generic = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(5)]
        got = eval_batch([x], pts + generic)[0]
        want = [_scalar_raises(x, s) for s in pts + generic]
        assert np.isnan(got).tolist() == want, format_expr(x)
        seen_nan += sum(want)
        for s, v in zip(pts + generic, got):
            if _scalar_raises(x, s):
                with pytest.raises(PoleProximityError):
                    x.eval(s)
            else:
                assert abs(x.eval(s) - v) <= 1e-14 * abs(v)
        for s in generic:
            if not _scalar_raises(x, s):
                assert abs(cmath.exp(x.eval_log(s) - _scalar_log(x, s)) - 1) < 1e-12
    assert seen_nan > 50


def test_log_gamma_kernel_against_mpmath():
    """The kernel's log Gamma against mpmath at 40 digits, modulo 2 pi i:
    |exp(delta) - 1| < 1e-13 on the |Re|, |Im| <= 30 grid and 1e-3 to 1e-5
    from the poles 0, -1 and -7.  For 1e3 <= |z| <= 1e6, log Gamma(z) is 1e3
    to 1e7 in size, so a double holds it only to 1e-13 of that size; there
    the bound is |delta| < 1e-13 |log Gamma(z)|, and so at |z| = 1e100, where
    the shift's product of ten factors must not overflow."""
    mpmath.mp.dps = 40
    axis = np.linspace(-30, 30, 41)  # the integers -30, -27, ..., 30 among them
    grid = [complex(x, y) for x in axis for y in (axis[:-1] + axis[1:]) / 2]
    near = [p + r * d for p in (0, -1, -7) for r in (1e-3, 1e-4, 1e-5)
            for d in (1, -1, 1j, -1j, cmath.exp(2.5j))]
    large = [1e3, -1e3 + 0.5j, 1e3j, 3e4 - 4e4j, 1e6, 1e6j, -1e6 + 0.5j, -7e5 + 7e5j,
             0.25 + 1e100j]
    zs = grid + near + large
    with np.errstate(all="raise", under="ignore"):
        got = _log_gamma(np.array(zs))
    for z, g in zip(zs, got):
        want = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
        d = complex(mpmath.mpc(g.real, g.imag) - want)
        d = complex(d.real, math.remainder(d.imag, 2 * math.pi))
        if abs(z) < 1e3:
            assert abs(cmath.exp(d) - 1) < 1e-13, z
        else:
            assert abs(d) < 1e-13 * abs(want), z


def _vectorised_log_batch(exprs, points):
    """Reference: eval_log_batch on Gamma-free expressions as it was when the
    kernel took its L-atom logs vectorised, one exp and one log over the
    distinct (a, b, z) x points; logs and values, NaN where null."""
    s = np.asarray(points, dtype=complex)
    affine, largs, lnf = [], {}, []
    for i, x in enumerate(exprs):
        pref = x.prefactor
        c, m = (cmath.nan if pref == 0 else pref.log() if x.is_exact else cmath.log(pref)), 0j
        for atom, k in x.atoms:
            a, b = atom.form.af, atom.form.bf
            if isinstance(atom, ExpAtom):
                lnb = math.log(atom.base)
                m, c = m + k * a * lnb, c + k * b * lnb
            else:
                lq = math.log(atom.q)
                lnf.append((i, k, largs.setdefault((-a * lq, -b * lq, atom.zf), len(largs))))
        affine.append((c, m))
    with np.errstate(all="ignore"):
        cm = np.array(affine, dtype=complex)
        out = cm[:, :1] + cm[:, 1:] * s
        if lnf:
            f = np.array(list(largs), dtype=complex)
            w = 1 - f[:, 2:] * np.exp(f[:, :1] * s + f[:, 1:2])
            lw = np.log(w)
            lw[np.abs(w) < 1e-8] = np.nan
            i, k, row = np.array(lnf).T
            np.add.at(out, i, -k[:, None] * lw[row])
        out[~np.isfinite(out)] = np.nan
        values = np.exp(out)
    values[~np.isfinite(values)] = np.nan
    return out, values


def _random_gamma_free_expr(rng: random.Random) -> MeroExpr:
    """1-4 L-atoms and exponential atoms at powers +-1..3: z exact (+-1, a
    fraction, 3^12) or complex, beta exact or complex, the prefactor exact,
    complex or, now and then, zero."""
    r = rng.random()
    pref = 0 if r < 0.05 else complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)) if r < 0.5 else \
        ExactConst(Fraction(rng.randint(1, 9), rng.randint(1, 9)), rng.randint(0, 3),
                   frozenset(rng.sample([2, 3, 5], rng.randint(0, 2))))
    parts = [MeroExpr.const(pref)]
    for _ in range(rng.randint(1, 4)):
        beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) if rng.random() < 0.5 else \
            Fraction(rng.randint(-4, 4), 2)
        form = LinForm(rng.choice([-2, -1, 1, 2]), beta)
        if rng.random() < 0.25:
            part = MeroExpr.exp(rng.randint(2, 5), form)
        else:
            z = rng.choice([1, -1, Fraction(16, 625), 3 ** 12,
                            complex(rng.uniform(-2, 2), rng.uniform(-2, 2))])
            part = MeroExpr.l_atom(rng.choice([3, 5, 7, 9, 25]), z, form)
        parts.append(part ** rng.choice([-3, -2, -1, 1, 2, 3]))
    return mero_mul(*parts)


def _probe_points(x: MeroExpr, rng: random.Random) -> tuple[list, list]:
    """Points that test the rule's nulls -- on every L-atom zero, 1e-9 and
    1e-7 off it, where z q^{-(a s + b)} nears and passes the float range, and
    where an exponential atom's value passes it -- and generic points, where
    the value is also held to mpmath."""
    special = []
    for atom, _ in x.atoms:
        a, b = complex(atom.form.af), complex(atom.form.bf)
        if isinstance(atom, LAtom):
            for p in _poles_and_zeros(atom):
                special += [p, p + 1e-9, p - 1e-9j, p + 1e-7, p - 1e-7j]
            special += [(-t / math.log(atom.q) - b) / a for t in (690, 700, 720)]
        else:
            special += [t / (a * math.log(atom.base)) for t in (700, 720)]
    return special, [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6)]


def _condition(x: MeroExpr, s: complex) -> float:
    """max(1, |k| |y| / |1 - y|) over the L-atoms (1 - y)^-k of x, y = z q^{-(a s + b)}:
    how much a relative error of an ulp in y grows in the value.  numpy's exp
    and cmath's may differ by an ulp, and 1e-7 off a zero of 1 - y this is 1e7."""
    out = 1.0
    for atom, k in x.atoms:
        if isinstance(atom, LAtom):
            arg = complex(atom.form.alpha) * s + complex(atom.form.beta)
            y = complex(atom.z) * cmath.exp(-arg * math.log(atom.q))
            out = max(out, abs(k * y / (1 - y)))
    return out


def test_gamma_free_rule_matches_the_vectorised_kernel():
    """A Gamma-free expression is evaluated by mero's cmath rule: its nulls
    fall where the vectorised reference has NaN, and its logs and values
    agree with the reference to a relative 1e-13 (times _condition, and the
    size of the log for the log), and with mpmath to 1e-12 at generic points."""
    rng = random.Random(31)
    nulls = values = 0
    with mpmath.workdps(30):
        for _ in range(80):
            x = _random_gamma_free_expr(rng)
            special, generic = _probe_points(x, rng)
            pts = special + generic
            ref_logs, ref_values = (row[0] for row in _vectorised_log_batch([x], pts))
            for s, ref_log, ref, got in zip(pts, ref_logs, ref_values, mero.values_json([x], pts)[0]):
                log = mero._log_rule(x, s)
                assert cmath.isnan(log) == np.isnan(ref_log), (format_expr(x), s)
                assert (got is None) == np.isnan(ref), (format_expr(x), s)
                if cmath.isnan(log):
                    with pytest.raises(ArithmeticError):
                        x.eval_log(s)
                    nulls += 1
                    continue
                tol = 1e-13 * _condition(x, s)
                d = log - ref_log
                d = complex(d.real, math.remainder(d.imag, 2 * math.pi))
                assert abs(d) <= tol + 1e-13 * abs(ref_log), (format_expr(x), s)
                if got is None:
                    nulls += 1
                    continue
                got = complex(*got)
                assert abs(got - ref) <= tol * abs(ref), (format_expr(x), s)
                if s in generic:
                    want = _mp_value(x, s)
                    assert abs(got - want) <= 1e-12 * abs(want), (format_expr(x), s)
                values += 1
    assert nulls > 1000 and values > 1000, (nulls, values)


def _python(code: str, *args: str, block_numpy: bool = False) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter on this source tree; with block_numpy,
    every import of numpy raises ImportError."""
    src = str(Path(lfactors.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    if block_numpy:
        code = "import sys; sys.modules['numpy'] = None\n" + code
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


def test_cli_import_leaves_scipy_unloaded():
    """The numeric kernel is numpy alone, imported on first use: importing
    the CLI loads neither scipy nor numpy, and succeeds with numpy blocked."""
    code = "import sys, lfactors.cli; sys.exit('scipy' in sys.modules or 'numpy' in sys.modules)"
    assert _python(code).returncode == 0
    assert _python("import lfactors, lfactors.cli", block_numpy=True).returncode == 0


def test_padic_queries_run_without_numpy(tmp_path):
    """Every p-adic payload is Gamma-free, so with numpy blocked every
    document of the padic-exact corpus runs with its values at four points,
    and `lc gamma --eval` on one of them exits 0."""
    corpus = Path(lfactors.__file__).resolve().parents[2] / "perfbench" / "corpus" / "padic-exact.json"
    docs = [entry["doc"] for entry in json.loads(corpus.read_text(encoding="utf-8"))]
    (tmp_path / "docs.json").write_text(json.dumps(docs))
    (tmp_path / "doc.json").write_text(json.dumps(docs[0]))
    code = """
import json, sys
from lfactors.query import run_query
def rows(payload):
    if isinstance(payload, dict):
        return [payload["values"]] if "values" in payload else [r for v in payload.values() for r in rows(v)]
    return []
for doc in json.load(open(sys.argv[1])):
    found = rows(run_query(dict(doc, eval_points=[[0.5, 1.0], [1.0, 0.0], [-2.5, 3.0], [0.0, 2.0]])))
    assert found and all(len(row) == 4 for row in found), doc
    assert any(v is not None for row in found for v in row), doc
"""
    run = _python(code, str(tmp_path / "docs.json"), block_numpy=True)
    assert run.returncode == 0, run.stderr
    cli = "import sys; from lfactors.cli import main; sys.exit(main())"
    run = _python(cli, "gamma", "-f", str(tmp_path / "doc.json"), "--eval", "0.5+1i", block_numpy=True)
    assert run.returncode == 0, run.stderr
    assert '"values"' in run.stdout


def test_eval_zero_prefactor_and_overflow():
    zero = MeroExpr.const(0) * GR(1)
    assert np.isnan(eval_batch([zero], [1, 2 + 1j])).all()
    with pytest.raises(ZeroDivisionError):
        zero.eval(1)
    big = GC(1)
    assert np.isnan(eval_batch([big], [400.0])).all()   # Gamma(400) overflows a double
    with pytest.raises(OverflowError):
        big.eval(400.0)
    assert np.isfinite(eval_log_batch([big], [400.0])).all()
    for x, s in ((MeroExpr.l_atom(5, 1, LinForm(Fraction(1), 0)), -1000.0),  # 5^1000
                 (big, 1e306), (big.inv(), 1e306)):                          # log Gamma
        assert np.isnan(eval_log_batch([x], [s])).all() and np.isnan(eval_batch([x], [s])).all()
        with pytest.raises(ArithmeticError):
            x.eval(s)


def test_eval_log_of_a_constant_past_the_float_range():
    """c of one GL_32 block over the l = 0 skew character over R has a
    4193-bit constant; its log, and so eval_log, stays finite, and the real
    part agrees with mpmath's log|c| from the same atoms."""
    R = LocalField.real()
    rep = Induced((GLChar(32, MultCharacter.trivial(R)),), SkewHermCharR(0))
    c = normalization_c(rep.space, MultCharacter.trivial(R), RegularNilpotentData(1),
                        AddCharacter.standard(R))
    assert c.prefactor.rat.numerator.bit_length() > 4000
    s = complex(0.3, 0.1)
    got = c.eval_log(s)
    assert cmath.isfinite(got)
    with mpmath.workdps(50):
        pref = c.prefactor
        want = mpmath.log(abs(_mp(pref.rat))) + sum(mpmath.log(p) for p in pref.roots) / 2
        for atom, k in c.atoms:
            want += k * mpmath.log(abs(_mp_atom(atom, s)))
        assert abs(got.real - want) <= 1e-9 * abs(want)


def test_exact_const_log_is_the_principal_log():
    """ExactConst.log agrees with cmath.log of the complex value wherever that
    value is a float, sign and power of i included."""
    for num, den in ((1, 1), (1, 2), (7, 3), (10 ** 6, 9), (1, 10 ** 5), (10 ** 30 + 1, 10 ** 30)):
        for sign in (1, -1):
            for ipow in range(4):
                for roots in ((), (2,), (3, 5), (2, 3, 7)):
                    x = ExactConst(Fraction(sign * num, den), ipow, frozenset(roots))
                    want = cmath.log(x.to_complex())
                    assert abs(x.log() - want) <= 1e-15 * max(1.0, abs(want)), x


def _old_sampler_points(x, y, samples, seed):
    """Reference: the point-by-point sampling loop the shared sampler replaced."""
    rng = random.Random(seed)
    accepted, attempts = [], 0
    while len(accepted) < samples:
        attempts += 1
        if attempts > 100 + samples:
            raise ArithmeticError("could not find pole-free sample points")
        s = complex(rng.uniform(-3, 3), rng.uniform(1, 4))
        if not (_scalar_raises(x, s) or _scalar_raises(y, s)):
            accepted.append(s)
    return accepted


def test_sampler_skips_poles_on_the_seeded_path():
    seed = 20240801
    rng = random.Random(seed)
    path = [complex(rng.uniform(-3, 3), rng.uniform(1, 4)) for _ in range(6)]
    # a GammaC pole on the first candidate, an L-atom zero on the fourth
    x = mero_mul(GC(1, -path[0]), MeroExpr.l_atom(5, cmath.exp(path[3] * math.log(5)),
                                                  LinForm(Fraction(1), 0)))
    y = mero_mul(GC(1, -path[0]), GR(1))
    assert _scalar_raises(x, path[0]) and _scalar_raises(x, path[3])
    for samples in (1, 3, 24):
        want = _old_sampler_points(x, y, samples, seed)
        got = _pole_free_samples(x, y, samples, seed)[0].tolist()
        assert got == want
        assert path[0] not in got and path[3] not in got
    zero = MeroExpr.const(0)
    with pytest.raises(ArithmeticError):
        _old_sampler_points(zero, x, 24, seed)
    with pytest.raises(ArithmeticError):
        equals_numeric(zero, x)
    with pytest.raises(ArithmeticError):
        max_rel_error(x, zero)


def test_sampling_checks_detect_a_small_perturbation():
    x = mero_mul(GR(1), GR(1, 1))
    y = mero_mul(GC(1), MeroExpr.const(ExactConst(Fraction(1000001, 1000000))))
    assert equals_numeric(x, GC(1))
    assert not equals_numeric(x, y)
    assert abs(max_rel_error(x, y) - 1e-6) < 1e-9
    assert max_rel_error(x, GC(1)) < 1e-12


def _random_factor(rng: random.Random) -> MeroExpr:
    """A random kernel expression, or an exponential atom moved by subst (its
    constant part, exact or complex, folds into the prefactor), or a GammaC
    atom whose half-integer argument is exact or an equal complex number."""
    kind = rng.randrange(3)
    if kind == 0:
        return _random_kernel_expr(rng)
    if kind == 1:
        shift = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) if rng.random() < 0.5 else \
            Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
        return MeroExpr.exp(Fraction(rng.randint(2, 7), rng.randint(1, 3)),
                            LinForm(Fraction(rng.choice([-2, -1, 1, 2])), 0)).subst(1, shift)
    beta = Fraction(1, 2) if rng.random() < 0.5 else 0.5 + 0j
    return GC(1, beta) ** rng.choice([-1, 1])


def test_product_equals_left_fold():
    """mero_mul over many factors equals the pairwise left fold: the same atoms
    (including which of two equal atoms 1/2 and 0.5+0j is kept) and the same
    text, and the value is the product of the factors' values."""
    rng = random.Random(4)
    inexact = 0
    for _ in range(60):
        xs = [_random_factor(rng) for _ in range(rng.randint(2, 7))]
        fold = MeroExpr.one()
        for x in xs:
            fold = fold * x
        prod = mero_mul(*xs)
        assert prod.atoms == fold.atoms
        assert format_expr(prod) == format_expr(fold)
        assert to_json(prod) == to_json(fold)
        inexact += not prod.is_exact
        s = complex(rng.uniform(-0.4, 0.4), rng.uniform(1.2, 1.8))
        want = math.prod(x.eval(s) for x in xs)
        assert cmath.isclose(prod.eval(s), want, rel_tol=1e-9)
    assert inexact >= 20


def test_equal_atoms_of_different_types_cancel():
    exact, inexact = GammaCAtom(LinForm(1, Fraction(1, 2))), GammaCAtom(LinForm(1, 0.5 + 0j))
    assert isinstance(inexact.form.beta, complex)
    assert exact == inexact and hash(exact) == hash(inexact)
    assert hash(exact.form) == hash(inexact.form)
    assert MeroExpr(ExactConst.one(), [(exact, 1), (inexact, -1)]).atoms == ()
    assert mero_mul(GC(1, Fraction(1, 2)), GC(1, 0.5 + 0j).inv()) == MeroExpr.one()


# -- the integer LinForm against the Fraction reference ---------------------------

_QUANT = float(2 ** 40)


def _ref_norm(b):
    """One rule for every inexact beta, given or computed: round to the grid,
    then a value on an integer is exact."""
    if isinstance(b, (int, Fraction)):
        return Fraction(b)
    b = complex(round(complex(b).real * _QUANT) / _QUANT, round(complex(b).imag * _QUANT) / _QUANT)
    return Fraction(int(b.real)) if b.imag == 0 and b.real.is_integer() else b


def _ref_add(x, y):
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x + y
    return _ref_norm(complex(x) + complex(y))


def _ref_scale(a, b):
    if isinstance(b, (int, Fraction)):
        return a * b
    return _ref_norm(complex(a) * complex(b))


def _ref_beta_key(b):
    if isinstance(b, Fraction):
        return ("Q", b.numerator, b.denominator)
    return ("C", b.real, b.imag)


def _ref_beta_str(b):
    if isinstance(b, Fraction):
        return str(b)
    return f"[{b.real!r}{'+' if b.imag >= 0 else '-'}{abs(b.imag)!r}i]"


class _RefLinForm:
    """Reference: the Fraction-based form the integer LinForm replaced, with its
    two-step rounding of complex betas (scale, then add); every result goes
    through the constructor, which normalises its beta once more.  An int or a
    Fraction b scales exactly."""

    def __init__(self, alpha, beta):
        self.alpha, self.beta = Fraction(alpha), _ref_norm(beta)

    def __eq__(self, other):
        return (self.alpha, self.beta) == (other.alpha, other.beta)

    def __hash__(self):
        return hash((self.alpha, self.beta))

    def key(self):
        return (self.alpha.numerator, self.alpha.denominator, _ref_beta_key(self.beta))

    def compose(self, a, b):
        return _RefLinForm(self.alpha * Fraction(a), _ref_add(self.beta, _ref_scale(self.alpha, b)))

    def shift(self, b):
        return _RefLinForm(self.alpha, _ref_add(self.beta, _ref_scale(self.alpha, b)))

    def plus(self, other):
        return _RefLinForm(self.alpha + other.alpha, _ref_add(self.beta, other.beta))

    def times(self, k):
        return _RefLinForm(self.alpha * k, _ref_scale(Fraction(k), self.beta))

    def __str__(self):
        a = self.alpha
        if a == 0:
            return _ref_beta_str(self.beta)
        head = "s" if a == 1 else "-s" if a == -1 else f"{a}s"
        if self.beta == 0:
            return head
        bs = _ref_beta_str(self.beta)
        if isinstance(self.beta, Fraction) and self.beta < 0:
            return f"{head}{bs}"
        return f"{head}+{bs}"

    def json(self):
        beta = str(self.beta) if isinstance(self.beta, Fraction) else [self.beta.real, self.beta.imag]
        return {"alpha": str(self.alpha), "beta": beta}


def _random_beta(rng: random.Random):
    """Exact betas with assorted denominators, the same values as floats and
    complex numbers (1/2 and 0.5+0j), generic complex numbers, and numbers
    that the rounding grid moves onto an integer or off one."""
    kind = rng.randrange(7)
    exact = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 7, 12]))
    if kind == 0:
        return exact
    if kind == 1:
        return rng.randint(-5, 5)
    if kind == 2:
        return complex(float(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4, 8]))), 0)
    if kind == 3:
        return float(exact)
    if kind == 4:
        return complex(rng.uniform(-3, 3), rng.choice([0.0, rng.uniform(-3, 3)]))
    if kind == 5:
        return rng.uniform(-1e-12, 1e-12)  # at the scale of the rounding grid
    return complex(rng.randint(-3, 3) + rng.choice([1e-13, -1e-13, 2e-12]), rng.choice([0.0, 1e-13]))


def _random_pair(rng: random.Random):
    alpha = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4]))
    beta = _random_beta(rng)
    return LinForm(alpha, beta), _RefLinForm(alpha, beta)


def _assert_agrees(f: LinForm, ref: _RefLinForm):
    assert str(f) == str(ref)
    assert f.key == ref.key()
    assert f.alpha == ref.alpha and type(f.alpha) is Fraction
    assert type(f.beta) is type(ref.beta) and f.beta == ref.beta
    assert to_json(MeroExpr.gamma_r(f))["numerator"][0]["arg"] == ref.json()


def test_linform_ops_agree_with_fraction_reference():
    """compose, shift, plus and times on exact and complex forms give the
    reference's text, sort key, value types and JSON; equality and the hash
    agree with the reference's equality."""
    rng = random.Random(31)
    pairs = []
    for _ in range(600):
        f, ref = _random_pair(rng)
        _assert_agrees(f, ref)
        op = rng.randrange(4)
        if op == 0:
            a = rng.choice([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2), 0])
            b = _random_beta(rng)
            f, ref = f.compose(a, b), ref.compose(a, b)
        elif op == 1:
            b = _random_beta(rng)
            f, ref = f.shift(b), ref.shift(b)
        elif op == 2:
            g, gref = _random_pair(rng)
            f, ref = f.plus(g), ref.plus(gref)
        else:
            k = rng.randint(-4, 4)
            f, ref = f.times(k), ref.times(k)
        _assert_agrees(f, ref)
        pairs.append((f, ref))
        if ref.beta.imag == 0 and Fraction(ref.beta.real).denominator in (2, 4, 8):
            # the same value with the other type: 1/2 for 0.5+0j and back
            twin = complex(ref.beta.real) if type(ref.beta) is Fraction else Fraction(ref.beta.real)
            pairs.append((LinForm(ref.alpha, twin), _RefLinForm(ref.alpha, twin)))
    by_ref, by_form = {}, {}
    for f, ref in pairs:
        by_ref.setdefault(ref, []).append(f)
        by_form.setdefault(f, set()).add(ref)
    assert len(by_form) == len(by_ref)
    mixed = 0
    for fs in by_ref.values():
        assert all(g == fs[0] and hash(g) == hash(fs[0]) for g in fs)
        mixed += len({type(g.beta) for g in fs}) == 2
    assert mixed >= 5


def test_complex_betas_round_in_two_steps():
    """alpha*b is rounded to the grid, then beta + alpha*b: an integral
    alpha*b keeps an exact beta exact, and a term below the grid is dropped
    before the sum is rounded."""
    third = LinForm(1, Fraction(1, 3))
    assert third.shift(2.0).beta == Fraction(7, 3)
    assert third.compose(1, 2.0).beta == Fraction(7, 3)
    tiny = third.shift(4e-13)
    ref = _RefLinForm(1, Fraction(1, 3)).shift(4e-13)
    assert tiny.key == ref.key() and tiny.beta == ref.beta
    one_step = _ref_norm(complex(Fraction(1, 3)) + 4e-13)
    assert tiny.beta != one_step
    assert LinForm(Fraction(1, 2), Fraction(1, 3)).compose(1, 3).beta == Fraction(11, 6)  # an int b is exact
    assert str(MeroExpr.gamma_r(LinForm(Fraction(1, 2), Fraction(1, 3))).subst(1, 3)) == "GammaR(1/2s+11/6)"
    # a beta that the grid rounds onto an integer is exact, whether it is a
    # result or given to the constructor: both spell it alike
    assert LinForm(Fraction(2, 3), Fraction(-5, 3)).compose(Fraction(1, 2), 0.9999999999999).beta == -1
    assert type(LinForm(Fraction(2, 3), Fraction(-5, 3)).compose(1, 0.9999999999999).beta) is Fraction
    assert type(LinForm(1, Fraction(1, 2)).shift(0.5 + 1e-13).beta) is Fraction
    assert type(LinForm(1, 1 + 1e-13j).plus(LinForm(1, -1e-13j)).beta) is Fraction
    assert str(LinForm(1, 0.9999999999999)) == str(LinForm(1, Fraction(1, 2)).shift(0.5 + 1e-13)) == "s+1"
    assert LinForm(1, 0.9999999999999).key == LinForm(1, 1).key
    assert type(LinForm(1, 1.5 + 1e-13).beta) is complex  # off an integer the grid value stays complex
    rng = random.Random(5)
    for _ in range(300):
        f, ref = _random_pair(rng)
        if f.alpha == 0:
            continue
        b = float((rng.randint(-3, 3) - Fraction(ref.beta.real)) / f.alpha) + rng.choice([1e-13, -1e-13])
        g, gref = f.shift(b), ref.shift(b)
        assert g.key == gref.key() and str(g) == str(gref)


def test_half_and_its_float_are_one_atom():
    """1/2 and 0.5+0j: equal forms and atoms with one hash, which cancel in
    mero_mul whichever way round, in a beta and in an L-atom's z."""
    exact, inexact = LinForm(1, Fraction(1, 2)), LinForm(1, 0.5 + 0j)
    assert type(inexact.beta) is complex
    assert exact == inexact and hash(exact) == hash(inexact) and exact.key != inexact.key
    assert LinForm(1, Fraction(1, 3)) != LinForm(1, complex(float(Fraction(1, 3)), 0))
    for z, w in ((Fraction(1, 2), 0.5 + 0j), (-1, -1.0 + 0j), (Fraction(3, 4), 0.75)):
        x = MeroExpr.l_atom(5, z, exact)
        y = MeroExpr.l_atom(5, w, inexact)
        assert dict(x.atoms) == dict(y.atoms)
        assert mero_mul(x, y.inv()) == MeroExpr.one() == mero_mul(y.inv(), x)
        assert mero_mul(x, y.inv(), x).atoms == x.atoms


def _ref_atom_key(atom, power):
    """The sort key of an atom as the reference forms give it."""
    ref = _RefLinForm(atom.form.alpha, atom.form.beta)
    if isinstance(atom, ExpAtom):
        head = (0, atom.base.numerator, atom.base.denominator)
    elif isinstance(atom, (GammaRAtom, GammaCAtom)):
        head = (1 if isinstance(atom, GammaRAtom) else 2,)
    else:
        head = (3, atom.q, _ref_beta_key(atom.z))
    return head + ref.key() + (power,)


def test_subst_agrees_with_reference_and_sorts_by_its_keys():
    """subst composes every argument as the reference does, and the result is
    ordered by the reference sort keys, also for a negative a, which reverses
    the order of the s-coefficients."""
    rng = random.Random(8)
    reordered = 0
    for _ in range(120):
        x = _random_kernel_expr(rng)
        a = rng.choice([-1, -2, Fraction(-1, 2), 1, 2, Fraction(1, 2)])
        b = _random_beta(rng)
        y = x.subst(a, b)
        keys = [_ref_atom_key(atom, k) for atom, k in y.atoms]
        assert keys == sorted(keys)
        want = {}
        for atom, k in x.atoms:
            ref = _RefLinForm(atom.form.alpha, atom.form.beta).compose(a, b)
            if not isinstance(atom, ExpAtom):
                want[(type(atom), str(atom.with_form(LinForm(ref.alpha, ref.beta))))] = k
        got = {(type(atom), str(atom)): k for atom, k in y.atoms if not isinstance(atom, ExpAtom)}
        assert got == want
        assert cmath.isclose(y.eval(0.3 + 1.7j), x.eval(a * (0.3 + 1.7j) + complex(b)), rel_tol=1e-9)
        old = [k for atom, k in x.atoms if not isinstance(atom, ExpAtom)]
        new = [k for atom, k in y.atoms if not isinstance(atom, ExpAtom)]
        reordered += a < 0 and old != new
    assert reordered >= 5


# -- the canonical-order fast paths of inv and subst against the constructor -----

_STEP = 2.0 ** -40  # the rounding grid of inexact betas


def _crowded_beta(rng: random.Random, centre):
    """A beta at or next to centre: exact ones closer than a grid step or a
    grid step apart, complex ones a grid step apart, and values past 2^12,
    where a float sum of two grid values can fall between grid points."""
    j = rng.randint(-1, 1)
    if type(centre) is Fraction:
        return centre + j * rng.choice([Fraction(1, 10 ** 15), Fraction(1, 2 ** 40)])
    return complex(centre.real + j * _STEP, centre.imag)


def _crowded_expr(rng: random.Random) -> MeroExpr:
    """A canonical expression built by the general constructor whose atoms
    share a class and an s-coefficient and have betas that crowd one centre,
    plus exponential atoms of several bases with constant parts."""
    alpha = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
    # the last centre lands on an integer under s -> a s + b for an int b in
    # [-3, 3], which scales exactly when alpha is fractional too
    centre = rng.choice([Fraction(rng.randint(-9, 9), rng.choice([1, 3, 7])),
                         complex(rng.randint(-3, 3) + 0.25, rng.choice([0.0, 0.5])),
                         complex(rng.choice([4095.5, 6000.25, 8191.75, -8191.5]),
                                 rng.choice([0.0, 1.0])),
                         Fraction(2 ** 13 - 1) + Fraction(1, 3),
                         rng.randint(-9, 9) - alpha * rng.randint(-3, 3)])
    atoms, main = [], rng.randrange(5)
    for _ in range(rng.randint(1, 6)):
        other = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
        form = LinForm(alpha if rng.random() < 0.7 else other, _crowded_beta(rng, centre))
        kind = main if rng.random() < 0.6 else rng.randrange(5)
        if kind == 0:
            atom = GammaRAtom(form)
        elif kind == 1:
            atom = GammaCAtom(form)
        elif kind == 2:
            atom = LAtom(5, rng.choice([Fraction(1), Fraction(-1, 2), 0.3 - 0.4j]), form)
        else:
            constant = rng.choice([Fraction(rng.randint(-3, 3), 2), 0.5j, 1.25])
            atom = ExpAtom(Fraction(rng.choice([2, 3, 5, 25]), rng.choice([1, 4])),
                           LinForm(alpha, constant))
        atoms.append((atom, rng.choice([-2, -1, 1, 1, 2])))
    pref = rng.choice([ExactConst(Fraction(rng.randint(1, 9), rng.randint(1, 9))), 1.5 - 0.5j])
    return MeroExpr(pref, atoms)


def _assert_same_expr(got: MeroExpr, want: MeroExpr):
    def table(x):
        return [(type(a), a.key, k) for a, k in x.atoms]

    assert table(got) == table(want)
    assert type(got.prefactor) is type(want.prefactor) and got.prefactor == want.prefactor
    assert format_expr(got) == format_expr(want)


def test_inv_and_subst_match_the_general_constructor():
    """inv and subst(a, b) give the atoms (class, key, power, order) and the
    prefactor (type and value) that canonicalising their atoms anew gives,
    for a = 0 or negative, int, Fraction and complex b, complex betas a grid
    step apart and past 2^12, exponential atoms of several bases, and exact
    betas that an int b moves next to an integer on a fractional alpha, which
    stay exact and apart."""
    third = Fraction(1, 3)
    x = MeroExpr(1, [(GammaRAtom(LinForm(third, 2 * third)), 1),
                     (GammaRAtom(LinForm(third, 2 * third + Fraction(1, 10 ** 15))), 1)])
    _assert_same_expr(x.subst(1, 1), MeroExpr(1, [(GammaRAtom(LinForm(third, 1)), 1),
                                                   (GammaRAtom(LinForm(third, 1 + Fraction(1, 10 ** 15))), 1)]))
    rng = random.Random(21)
    merged = int_exact = reordered = exp_moved = 0
    for _ in range(2000):
        x = _crowded_expr(rng)
        _assert_same_expr(x.inv(),
                          MeroExpr(scalars.inv(x.prefactor), [(a, -k) for a, k in x.atoms]))
        a = Fraction(rng.choice([0, -1, -2, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
        b = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-9, 9), rng.choice([2, 3, 7])),
                        complex(rng.uniform(-2, 2), rng.choice([0.0, 0.5]))])
        if not any(type(t) is ExpAtom for t, _ in x.atoms) and rng.random() < 0.2:
            # large b only without exponential atoms, whose prefactor would overflow
            b = rng.choice([1, -1]) * rng.randint(2 ** 11, 2 ** 14)
        got = x.subst(a, b)
        want = MeroExpr(x.prefactor, [(atom.with_form(atom.form.compose(a, b)), k)
                                      for atom, k in x.atoms])
        _assert_same_expr(got, want)
        if a != 0 and type(b) in (int, Fraction):
            merged += len(want.atoms) < len(x.atoms)
            for t, _ in x.atoms:  # an int b on a fractional alpha keeps an exact beta exact
                if type(b) is int and t.form.ad != 1 and t.form.bn is not None:
                    assert t.form.compose(a, b).bn is not None
                    int_exact += 1
            reordered += [type(t) for t, _ in want.atoms] != [type(t) for t, _ in x.atoms] or a < 0
            exp_moved += any(type(t) is ExpAtom and t.form.alpha * b for t, _ in x.atoms)
    assert merged >= 5 and int_exact >= 100 and reordered >= 100 and exp_moved >= 100


def test_text_and_json_roundtrip_of_random_expressions():
    rng = random.Random(12)
    for _ in range(60):
        x = _random_kernel_expr(rng).subst(rng.choice([-1, 1, 2]), _random_beta(rng))
        assert parse_expr(format_expr(x)) == x
        back = from_json(json.loads(json.dumps(to_json(x))))
        assert back == x and format_expr(back) == format_expr(x)
        assert [a.key for a, _ in back.atoms] == [a.key for a, _ in x.atoms]
        for atom, _ in x.atoms:
            copied = pickle.loads(pickle.dumps(atom))
            assert copied == atom and copied.key == atom.key and copied.form == atom.form


def _recorded_payloads(node):
    """The {text, tree} payloads in a golden file, depth first."""
    if isinstance(node, dict):
        if isinstance(node.get("text"), str) and isinstance(node.get("tree"), dict):
            yield node["text"], node["tree"]
        for v in node.values():
            yield from _recorded_payloads(v)
    elif isinstance(node, list):
        for v in node:
            yield from _recorded_payloads(v)


def test_readers_reprint_every_recorded_expression_byte_for_byte():
    """Every golden text and tree and every doubling-snapshot text reads back
    to itself, byte for byte; one snapshot text starts [-0.0-0.016...i], a
    lone complex prefactor whose zero sign a product with 1 would drop."""
    root = Path(__file__).resolve().parents[1]
    payloads = [pair for path in sorted((root / "perfbench" / "golden").rglob("*.json"))
                for pair in _recorded_payloads(json.loads(path.read_text(encoding="utf-8")))]
    snapshot = json.loads((root / "tests" / "data" / "doubling_snapshot.json").read_text(encoding="utf-8"))
    texts = [text.split(" @ ")[0] for record in snapshot.values() for text in record.values()
             if not text.startswith("raises ")]
    assert len(payloads) >= 96 and len(texts) >= 2025
    for text in [text for text, _ in payloads] + texts:
        assert format_expr(parse_expr(text)) == text
    for text, tree in payloads:
        back = from_json(tree)
        assert json.dumps(to_json(back), sort_keys=True) == json.dumps(tree, sort_keys=True)
        assert back == parse_expr(text)
