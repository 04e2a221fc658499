"""Symbolic meromorphic functions of one complex variable s.

A MeroExpr is an exact constant prefactor times a signed multiset of atoms:

    Exp(b; a s + c)      b^{a s + c} for a positive rational base b
    GammaR(a s + c)      pi^{-z/2} Gamma(z/2) at z = a s + c
    GammaC(a s + c)      2 (2 pi)^{-z} Gamma(z) at z = a s + c
    Lnf(q; z; a s + c)   (1 - z q^{-(a s + c)})^{-1}

Negative multiplicities are denominator atoms.  Expressions multiply,
invert, substitute s -> a's + b', evaluate numerically through one
vectorised kernel (eval_log_batch: numpy over a grid of distinct atoms x
points, with its own log-Gamma), which also serves the seeded sampling
comparisons, and round-trip exactly through text and JSON.  The log-Gamma is
Stirling's series after reflection and a shift to Re >= 10 (Hare, J.
Algorithms 25 (1997), without the branch bookkeeping: the kernel needs log
Gamma only up to a multiple of 2 pi i).
The core is on Python ints: a LinForm holds alpha = an/ad and an exact beta
= bn/bd in lowest terms (normal forms over Z, Geddes-Czapor-Labahn ch. 2),
or an inexact beta rounded to a 2^-40 grid, and both as floats for the
kernel.  Slotted atoms with with_form make subst one affine composition
per atom; mero_mul canonicalises once, whatever the number of factors.
"""

from __future__ import annotations

import cmath
import math
import random
from math import gcd
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .exactconst import ExactConst
from .scalars import inv, is_exact, mul, power, rat_power

_LN_2 = math.log(2)
_LN_PI = math.log(math.pi)
_LN_2PI = math.log(2 * math.pi)
_POLE_TOL = 1e-8
_SHIFT_TO = 10  # Stirling's series runs at Re >= _SHIFT_TO
# B_2k / (2k (2k - 1)), k = 1..8: the Stirling terms in powers of 1/y^2
_STIRLING = tuple(float(Fraction(b) / (2 * k * (2 * k - 1))) for k, b in enumerate(
    ("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6", "-3617/510"), 1))


class PoleProximityError(ArithmeticError):
    """Evaluation point too close to a pole or zero of an atom; resample."""


class UnsupportedExpressionError(ValueError):
    """Expression outside the requested normal form (e.g. archimedean atoms
    in a rational-function extraction)."""


BetaLike = Fraction | complex


_QUANT = float(2 ** 40)


def _beta_norm(b) -> BetaLike:
    if isinstance(b, Fraction):
        return b
    if isinstance(b, int):
        return Fraction(b)
    if isinstance(b, ExactConst) and b.is_rational:
        return b.rat
    b = complex(b)
    if b.imag == 0 and b.real.is_integer():
        return Fraction(int(b.real))
    # quantize inexact parameters so that float-sum associativity cannot
    # split canonically equal atoms (grid ~ 9e-13)
    return complex(round(b.real * _QUANT) / _QUANT, round(b.imag * _QUANT) / _QUANT)


def _beta_key(b: BetaLike):
    if isinstance(b, Fraction):
        return ("Q", b.numerator, b.denominator)
    return ("C", b.real, b.imag)


def _beta_str(b: BetaLike) -> str:
    if isinstance(b, Fraction):
        return str(b)
    return f"[{b.real!r}{'+' if b.imag >= 0 else '-'}{abs(b.imag)!r}i]"


def _beta_eq(b: BetaLike) -> tuple:
    """The sort key of b, except that a complex b with zero imaginary part is
    keyed as the fraction it equals: 1/2 and 0.5+0j compare equal and hash
    alike, as Fraction == complex has them."""
    if type(b) is complex and b.imag == 0:
        return ("Q",) + b.real.as_integer_ratio()
    return _beta_key(b)


def _qstr(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def _reduce(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    return n // g, d // g


class LinForm:
    """alpha * s + beta on Python ints: alpha = an/ad and beta = bn/bd in lowest
    terms with positive denominators, or, when bn is None, the complex bf on
    the _QUANT grid.  af and bf hold alpha and beta as numbers (bf a float when
    exact) for the numeric kernel.  A value: do not assign to its fields."""

    __slots__ = ("an", "ad", "bn", "bd", "af", "bf", "key", "_eq", "_hash")

    def __new__(cls, alpha, beta=0):
        alpha = alpha if type(alpha) is Fraction else Fraction(alpha)
        return _form(alpha.numerator, alpha.denominator, _beta_norm(beta))

    def __reduce__(self):
        return LinForm, (self.alpha, self.beta)

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.an, self.ad)

    @property
    def beta(self) -> BetaLike:
        return self.bf if self.bn is None else Fraction(self.bn, self.bd)

    def __eq__(self, other):
        return type(other) is LinForm and self._eq == other._eq

    def __hash__(self):
        return self._hash

    def compose(self, a: Fraction | int, b) -> "LinForm":
        """This form evaluated at a*s + b."""
        alpha = _reduce(self.an * a.numerator, self.ad * a.denominator)
        return _form(*alpha, self._plus_beta(self._scaled(b)))

    def shift(self, b) -> "LinForm":
        return self.compose(1, b)

    def plus(self, other: "LinForm") -> "LinForm":
        alpha = _reduce(self.an * other.ad + other.an * self.ad, self.ad * other.ad)
        beta = other.bf if other.bn is None else (other.bn, other.bd)
        return _form(*alpha, self._plus_beta(beta))

    def times(self, k: int) -> "LinForm":
        beta = (_reduce(self.bn * k, self.bd) if self.bn is not None
                else _beta_norm(_beta_norm(complex(k) * self.bf)))
        return _form(*_reduce(self.an * k, self.ad), beta)

    def _scaled(self, b):
        """alpha * b, as (n, d) in lowest terms or a complex on the grid.  Only
        a Fraction b is exact: any other b is scaled in floats and rounded,
        which for an int b and an integral alpha gives the exact product (as
        long as it is at most 2^53, so that every factor is a float exactly)."""
        if type(b) is Fraction:
            return _reduce(self.an * b.numerator, self.ad * b.denominator)
        if type(b) is int and self.ad == 1 and abs(p := self.an * b) <= 2 ** 53:
            return p, 1
        v = _beta_norm(complex(self.af) * complex(b))
        return (v.numerator, 1) if type(v) is Fraction else v

    def _plus_beta(self, y):
        """beta + y for y as _scaled returns it: exact when both are, else the
        complex sum rounded to the grid (the second of two roundings).  Like
        every arithmetic result it is then exact if it lies on an integer."""
        if self.bn is not None and type(y) is tuple:
            return _reduce(self.bn * y[1] + y[0] * self.bd, self.bd * y[1])
        y = complex(y[0] / y[1] if type(y) is tuple else y)
        return _beta_norm(_beta_norm(complex(self.bf) + y))

    def __str__(self):
        beta = _beta_str(self.bf) if self.bn is None else _qstr(self.bn, self.bd)
        if self.an == 0:
            return beta
        a = _qstr(self.an, self.ad)
        head = "s" if a == "1" else "-s" if a == "-1" else f"{a}s"
        if self.bn == 0 or self.bn is None and self.bf == 0:
            return head
        return head + beta if beta[0] == "-" else f"{head}+{beta}"

    __repr__ = __str__


def _form(an: int, ad: int, beta) -> LinForm:
    """The form with alpha = an/ad in lowest terms and beta given as (n, d) in
    lowest terms, a Fraction, or a complex on the grid."""
    if type(beta) is Fraction:
        beta = beta.numerator, beta.denominator
    f = object.__new__(LinForm)
    f.an, f.ad, f.af = an, ad, an / ad
    if type(beta) is tuple:
        bn, bd = f.bn, f.bd = beta
        f.bf = bn / bd
        f._eq = f.key = (an, ad, ("Q", bn, bd))
    else:
        f.bn = f.bd = None
        f.bf = beta
        f.key, f._eq = (an, ad, _beta_key(beta)), (an, ad, _beta_eq(beta))
    f._hash = hash(f._eq)
    return f


class _Atom:
    """An atom of a MeroExpr.  Atoms of one class with equal fields are equal
    and hash alike, an exact field equal to a complex one included (1/2 and
    0.5+0j); key orders atoms in the canonical text.  A value: do not assign
    to its fields."""

    __slots__ = ("form", "key", "_eq", "_hash")

    def _set_form(self, head_eq: tuple, head_key: tuple, form: LinForm) -> None:
        self.form = form
        self._eq = head_eq + form._eq
        self._hash = hash(self._eq)
        self.key = head_key + form.key

    def __eq__(self, other):
        return type(other) is type(self) and self._eq == other._eq

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class ExpAtom(_Atom):
    """base^form for a positive rational base."""

    __slots__ = ("base",)

    def __init__(self, base: Fraction, form: LinForm):
        self.base = base
        head = (0, base.numerator, base.denominator)
        self._set_form(head, head, form)

    def with_form(self, form: LinForm) -> "ExpAtom":
        return ExpAtom(self.base, form)

    def __str__(self):
        return f"{self.base}^({self.form})"

    def to_json(self) -> dict:
        return {"type": "exp", "base": str(self.base), "arg": _form_json(self.form)}


class _GammaAtom(_Atom):
    """A Gamma factor; subclasses set its sort-key head, name and JSON type."""

    __slots__ = ()

    def __init__(self, form: LinForm):
        self._set_form(self._head, self._head, form)

    def with_form(self, form: LinForm) -> "_GammaAtom":
        return type(self)(form)

    def __str__(self):
        return f"{self._name}({self.form})"

    def to_json(self) -> dict:
        return {"type": self._json_type, "arg": _form_json(self.form)}


class GammaRAtom(_GammaAtom):
    __slots__ = ()
    _head, _name, _json_type = (1,), "GammaR", "gammaR"


class GammaCAtom(_GammaAtom):
    __slots__ = ()
    _head, _name, _json_type = (2,), "GammaC", "gammaC"


class LAtom(_Atom):
    """(1 - z q^{-form})^{-1}; z is the value at a uniformizer, zf the same
    as a number."""

    __slots__ = ("q", "z", "zf")

    def __init__(self, q: int, z: BetaLike, form: LinForm):
        self.q, self.z = q, z
        self.zf = z if type(z) is complex else z.numerator / z.denominator
        self._set_form((3, q, _beta_eq(z)), (3, q, _beta_key(z)), form)

    def with_form(self, form: LinForm) -> "LAtom":
        return LAtom(self.q, self.z, form)

    def __str__(self):
        return f"Lnf({self.q}; {_beta_str(self.z)}; {self.form})"

    def to_json(self) -> dict:
        return {"type": "lnf", "q": self.q, "z": _beta_json(self.z), "arg": _form_json(self.form)}


Atom = ExpAtom | GammaRAtom | GammaCAtom | LAtom


def _atom_sort_key(item):
    atom, power = item
    return atom.key + (power,)


class MeroExpr:
    """Canonicalized product prefactor * prod atom^power.  Products go through
    mero_mul, which canonicalises once however many factors there are."""

    __slots__ = ("prefactor", "atoms")

    def __init__(self, prefactor=ExactConst.one(), atoms: Iterable[tuple[Atom, int]] = (),
                 *more_atoms: Iterable[tuple[Atom, int]]):
        pref, table = _canonicalize(prefactor, (atoms,) + more_atoms)
        object.__setattr__(self, "prefactor", pref)
        object.__setattr__(self, "atoms", table)

    def __setattr__(self, *a):  # immutable value
        raise AttributeError("MeroExpr is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c) -> "MeroExpr":
        return MeroExpr(c)

    @staticmethod
    def one() -> "MeroExpr":
        return _ONE

    @staticmethod
    def exp(base, form: LinForm) -> "MeroExpr":
        return MeroExpr(ExactConst.one(), [(ExpAtom(Fraction(base), form), 1)])

    @staticmethod
    def gamma_r(form: LinForm) -> "MeroExpr":
        return MeroExpr(ExactConst.one(), [(GammaRAtom(form), 1)])

    @staticmethod
    def gamma_c(form: LinForm) -> "MeroExpr":
        return MeroExpr(ExactConst.one(), [(GammaCAtom(form), 1)])

    @staticmethod
    def l_atom(q: int, z, form: LinForm) -> "MeroExpr":
        return MeroExpr(ExactConst.one(), [(LAtom(q, _beta_norm(z), form), 1)])

    # -- algebra -------------------------------------------------------
    def __mul__(self, other: "MeroExpr") -> "MeroExpr":
        return mero_mul(self, other)

    def inv(self) -> "MeroExpr":
        return MeroExpr(inv(self.prefactor), [(a, -k) for a, k in self.atoms])

    def __pow__(self, k: int) -> "MeroExpr":
        return mero_mul(*[self if k > 0 else self.inv()] * abs(k))

    def subst(self, a, b=0) -> "MeroExpr":
        """s |-> a*s + b in every atom argument."""
        a = Fraction(a)
        return MeroExpr(self.prefactor, [(atom.with_form(atom.form.compose(a, b)), k)
                                         for atom, k in self.atoms])

    @property
    def is_constant(self) -> bool:
        return not self.atoms

    @property
    def is_exact(self) -> bool:
        return is_exact(self.prefactor)

    def constant_value(self):
        if not self.is_constant:
            raise UnsupportedExpressionError("expression is not constant")
        return self.prefactor

    # -- numerics ------------------------------------------------------
    def eval_log(self, s: complex) -> complex:
        """log of the value (any branch) at one point; raises near atom poles/zeros."""
        out = complex(eval_log_batch([self], [s])[0, 0])
        if cmath.isnan(out):
            if self.prefactor == 0:
                raise ZeroDivisionError("zero prefactor")
            raise PoleProximityError(f"{s} is at a pole or zero of an atom")
        return out

    def eval(self, s: complex) -> complex:
        return cmath.exp(self.eval_log(s))

    # -- presentation ---------------------------------------------------
    def __str__(self):
        return format_expr(self)

    def __repr__(self):
        return f"MeroExpr({format_expr(self)})"

    def __eq__(self, other):
        if not isinstance(other, MeroExpr):
            return NotImplemented
        return self.atoms == other.atoms and _pref_eq(self.prefactor, other.prefactor)

    def __hash__(self):
        return hash((self.atoms, str(self.prefactor)))


def _pref_eq(x, y) -> bool:
    if is_exact(x) and is_exact(y):
        return x == y
    xv, yv = complex(x), complex(y)
    return abs(xv - yv) <= 1e-12 * max(1.0, abs(xv))


def _canonicalize(prefactor, groups):
    """Merges the atom groups into one sorted table.  Atoms that cancel are
    dropped at the end of each group, so equal atoms of different types
    (1/2 and 0.5+0j) keep the representative a group-by-group product would."""
    # a rational prefactor becomes an ExactConst, a float a complex
    pref = prefactor if isinstance(prefactor, (ExactConst, complex)) else mul(ExactConst.one(), prefactor)
    exp_forms: dict[Fraction, LinForm] = {}
    table: dict[Atom, int] = {}
    for atoms in groups:
        for atom, k in atoms:
            if k == 0:
                continue
            if type(atom) is ExpAtom:
                if atom.base == 1:
                    continue
                cur = exp_forms.get(atom.base)
                add = atom.form.times(k)
                exp_forms[atom.base] = add if cur is None else cur.plus(add)
            else:
                table[atom] = table.get(atom, 0) + k
        for atom in [a for a, k in table.items() if k == 0]:
            del table[atom]
    for base, form in exp_forms.items():
        # canonical form: pure alpha*s exponent, constant part in the prefactor
        if form.bf != 0:
            pref = mul(pref, rat_power(base, form.beta))
        if form.an != 0:  # the only exponential atom of this base
            table[ExpAtom(base, _form(form.an, form.ad, (0, 1)))] = 1
    return pref, tuple(sorted(table.items(), key=_atom_sort_key))


# -- algebra helpers ----------------------------------------------------

_ONE = MeroExpr()  # immutable, so one instance serves every caller


def mero_mul(*xs: MeroExpr) -> MeroExpr:
    """The product of the factors, canonicalised once over all their atoms.
    Prefactors multiply left to right, so the result (atoms, text, JSON)
    is that of the pairwise product (x1 * x2) * x3 ..."""
    if len(xs) == 1:  # already canonical
        return xs[0]
    pref = xs[0].prefactor if xs else ExactConst.one()
    for x in xs[1:]:
        pref = mul(pref, x.prefactor)
    return MeroExpr(pref, *(x.atoms for x in xs))


def twist_nonarch(x: MeroExpr, q: int, z, t) -> MeroExpr:
    """Unramified twist of a nonarchimedean expression.

    Substitutes s -> s + c where q^{-c} = z q^{-t}: L-atom uniformizer
    values pick up z^alpha, exponential q-powers pick up the matching
    constants, arguments shift by alpha * t.  Exact for exact z.
    """
    z = _beta_norm(z)
    if z == 1:
        return x.subst(1, t)
    pref = x.prefactor
    out: list[tuple[Atom, int]] = []
    for atom, k in x.atoms:
        if type(atom) is LAtom:
            if atom.q != q:
                raise UnsupportedExpressionError("mixed residue fields under twist")
            if atom.form.ad != 1:
                raise UnsupportedExpressionError("non-integer s-coefficient under z-twist")
            znew = _beta_norm(atom.z * z ** atom.form.an)
            out.append((LAtom(atom.q, znew, atom.form.shift(t)), k))
        elif type(atom) is ExpAtom:
            e = _log_base(atom.base, q) * atom.form.alpha
            if e.denominator != 1:
                raise UnsupportedExpressionError("twist needs integral q-power exponents")
            pref = mul(pref, power(z, -(int(e) * k)))
            out.append((atom.with_form(atom.form.shift(t)), k))
        else:
            raise UnsupportedExpressionError("archimedean atom under nonarchimedean twist")
    return MeroExpr(pref, out)


def _log_base(b: Fraction, q: int) -> Fraction:
    """r with b = q^r, as a rational integer; errors if b is not a q-power."""
    for r in range(0, 64):
        if Fraction(q) ** r == b:
            return Fraction(r)
        if Fraction(q) ** -r == b:
            return Fraction(-r)
    raise UnsupportedExpressionError(f"base {b} is not an integral power of {q}")


# -- numeric evaluation ----------------------------------------------------

def _log(z: np.ndarray) -> np.ndarray:
    """The principal log from real parts: numpy's complex log is a scalar loop."""
    return np.log(np.abs(z)) + 1j * np.arctan2(z.imag, z.real)


def _log_gamma(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) up to a multiple of 2 pi i, elementwise: the reflection
    Gamma(z) Gamma(1 - z) = pi / sin(pi z) for Re z < 1/2, with sin taken at
    z - round(Re z) so that the log stays accurate near the poles; a shift of
    each element to Re >= _SHIFT_TO, Gamma(y) = Gamma(y + n) / (y ... (y+n-1)),
    the product taken over y + n so that it cannot overflow; then Stirling's
    series with the _STIRLING terms."""
    refl = z.real < 0.5
    y = np.where(refl, 1 - z, z)
    n = np.maximum(np.ceil(_SHIFT_TO - y.real), 0)
    y_inv = 1 / (y + n)
    prod = np.ones_like(y)  # prod_{k < n} (y + k) / (y + n)
    for k in range(_SHIFT_TO):
        prod *= np.where(k < n, (y + k) * y_inv, 1)
    y = y + n
    r, series = y_inv * y_inv, np.zeros_like(y)
    for c in reversed(_STIRLING):
        series = series * r + c
    out = (y - n - 0.5) * _log(y) - y + _LN_2PI / 2 + series * y_inv - _log(prod)
    x = z[refl]
    m = np.rint(x.real)
    u, v = np.pi * (x.real - m), np.pi * x.imag  # sin(pi x) = (-1)^m sin(u + i v)
    vc = np.clip(v, -60, 60)  # past |v| = 60, sinh v = sign(v) cosh v = e^|v| / 2 to 1e-52
    log_sin = (np.log(np.sin(u) ** 2 + np.sinh(vc) ** 2) / 2 + np.abs(v) - np.abs(vc)
               + 1j * (np.arctan2(np.cos(u) * np.sinh(vc), np.sin(u) * np.cosh(vc)) + np.pi * m))
    out[refl] = _LN_PI - log_sin - out[refl]
    return out


def eval_log_batch(exprs: Sequence[MeroExpr], points) -> np.ndarray:
    """log (any branch) of each expression at each of a 1-D sequence of points,
    shape (len(exprs), len(points)); NaN at a zero prefactor, within _POLE_TOL
    of a Gamma pole or a zero of 1 - z q^{-(a s + c)}, and where a term
    overflows.  A fixed number of numpy calls: exponential atoms and the
    elementary parts of the Gamma atoms fold into one affine c + m s per
    expression; each distinct Gamma argument a s + b is evaluated once, by one
    _log_gamma call over all of them, and each distinct L-atom (a, b, q, z)
    once, by one exp and one log; np.add.at scatters both, times their
    multiplicities, into the rows of the expressions that hold them."""
    s = np.asarray(points, dtype=complex)
    affine = []  # (c, m) per expression
    gargs: dict = {}  # (a, b) -> row of Gamma(a s + b)
    largs: dict = {}  # (a, b, z) -> row of log(1 - z exp(a s + b))
    gamma = []   # (expression, k, row): Gamma(a s + b)^k
    lnf = []     # (expression, k, row): (1 - z exp(a s + b))^-k
    for i, x in enumerate(exprs):
        pref = x.prefactor
        c, m = (cmath.nan if pref == 0 else pref.log() if x.is_exact else cmath.log(pref)), 0j
        for atom, k in x.atoms:
            a, b, kind = atom.form.af, atom.form.bf, type(atom)
            if kind is ExpAtom:
                lnb = math.log(atom.base)
                m, c = m + k * a * lnb, c + k * b * lnb
            elif kind is GammaRAtom:  # pi^{-z/2} Gamma(z/2)
                m, c = m - k * a / 2 * _LN_PI, c - k * b / 2 * _LN_PI
                gamma.append((i, k, gargs.setdefault((a / 2, b / 2), len(gargs))))
            elif kind is GammaCAtom:  # 2 (2 pi)^{-z} Gamma(z)
                m, c = m - k * a * _LN_2PI, c + k * (_LN_2 - b * _LN_2PI)
                gamma.append((i, k, gargs.setdefault((a, b), len(gargs))))
            else:
                lq = math.log(atom.q)
                lnf.append((i, k, largs.setdefault((-a * lq, -b * lq, atom.zf), len(largs))))
        affine.append((c, m))
    with np.errstate(all="ignore"):
        cm = np.array(affine, dtype=complex)
        out = cm[:, :1] + cm[:, 1:] * s
        if gamma:
            g = np.array(list(gargs), dtype=complex)
            z = g[:, :1] * s + g[:, 1:]
            lg = _log_gamma(z)
            lg[np.abs(z - np.rint(np.minimum(z.real, 0))) < _POLE_TOL] = np.nan
            i, k, row = np.array(gamma).T
            np.add.at(out, i, k[:, None] * lg[row])
        if lnf:
            f = np.array(list(largs), dtype=complex)
            w = 1 - f[:, 2:] * np.exp(f[:, :1] * s + f[:, 1:2])
            lw = np.log(w)
            lw[np.abs(w) < _POLE_TOL] = np.nan
            i, k, row = np.array(lnf).T
            np.add.at(out, i, -k[:, None] * lw[row])
    out[~np.isfinite(out)] = np.nan
    return out


def eval_batch(exprs: Sequence[MeroExpr], points) -> np.ndarray:
    """Values of each expression at each point; NaN where eval_log_batch is
    NaN or the value overflows."""
    with np.errstate(over="ignore"):
        out = np.exp(eval_log_batch(exprs, points))
    out[~np.isfinite(out)] = np.nan
    return out


# -- numeric comparison --------------------------------------------------

def _pole_free_samples(x: MeroExpr, y: MeroExpr, samples: int, seed: int):
    """The first `samples` seeded candidates s in -3 <= Re s <= 3, 1 <= Im s <= 4
    at which x and y are both pole-free, and |x/y - 1| there.  Raises
    ArithmeticError once 100 + samples candidates have not sufficed."""
    rng = random.Random(seed)
    pts = logs = np.empty(0, dtype=complex)
    drawn = 0
    while len(pts) < samples:
        n = min(samples - len(pts), 100 + samples - drawn)
        if n == 0:
            raise ArithmeticError("could not find pole-free sample points")
        s = np.array([complex(rng.uniform(-3, 3), rng.uniform(1, 4)) for _ in range(n)])
        drawn += n
        d = np.subtract(*eval_log_batch([x, y], s))
        ok = ~np.isnan(d)
        pts, logs = np.concatenate((pts, s[ok])), np.concatenate((logs, d[ok]))
    with np.errstate(over="ignore"):
        return pts, np.abs(np.exp(logs) - 1)


def equals_numeric(x: MeroExpr, y: MeroExpr, samples: int = 24, tol: float = 1e-9,
                   seed: int = 20240801) -> bool:
    return bool(np.all(_pole_free_samples(x, y, samples, seed)[1] < tol))


def max_rel_error(x: MeroExpr, y: MeroExpr, samples: int = 24, seed: int = 20240801) -> float:
    return float(np.max(_pole_free_samples(x, y, samples, seed)[1], initial=0.0))


# -- canonical text form --------------------------------------------------

def format_expr(x: MeroExpr) -> str:
    num = [(a, k) for a, k in x.atoms if k > 0]
    den = [(a, -k) for a, k in x.atoms if k < 0]
    parts = []
    if not (x.is_exact and x.prefactor.is_one) or not num:
        parts.append(str(x.prefactor) if x.is_exact else _beta_str(x.prefactor))
    parts += [str(a) + (f"^{k}" if k != 1 else "") for a, k in num]
    text = " * ".join(parts) if parts else "1"
    if den:
        dparts = [str(a) + (f"^{k}" if k != 1 else "") for a, k in den]
        dtext = " * ".join(dparts)
        if len(dparts) > 1:
            dtext = f"({dtext})"
        text = f"{text} / {dtext}"
    return text


# -- JSON form -------------------------------------------------------------

SCHEMA_VERSION = 1


def _beta_json(b: BetaLike):
    if isinstance(b, Fraction):
        return str(b)
    return [b.real, b.imag]


def _beta_from_json(v) -> BetaLike:
    if isinstance(v, str):
        return Fraction(v)
    return _beta_norm(complex(v[0], v[1]))


def _form_json(f: LinForm):
    return {"alpha": _qstr(f.an, f.ad), "beta": _beta_json(f.beta)}


def _form_from_json(d) -> LinForm:
    return LinForm(Fraction(d["alpha"]), _beta_from_json(d["beta"]))


def _atom_from_json(d) -> Atom:
    t = d["type"]
    form = _form_from_json(d["arg"])
    if t == "exp":
        return ExpAtom(Fraction(d["base"]), form)
    for cls in (GammaRAtom, GammaCAtom):
        if t == cls._json_type:
            return cls(form)
    if t == "lnf":
        return LAtom(int(d["q"]), _beta_from_json(d["z"]), form)
    raise ValueError(f"unknown atom type {t!r}")


def to_json(x: MeroExpr) -> dict:
    if is_exact(x.prefactor):
        pref = {"kind": "exact", "rat": str(x.prefactor.rat), "ipow": x.prefactor.ipow,
                "roots": sorted(x.prefactor.roots)}
    else:
        pref = {"kind": "complex", "re": x.prefactor.real, "im": x.prefactor.imag}
    return {
        "schema": SCHEMA_VERSION,
        "prefactor": pref,
        "numerator": [dict(a.to_json(), power=k) for a, k in x.atoms if k > 0],
        "denominator": [dict(a.to_json(), power=-k) for a, k in x.atoms if k < 0],
    }


def from_json(d: dict) -> MeroExpr:
    p = d["prefactor"]
    if p["kind"] == "exact":
        pref = ExactConst(Fraction(p["rat"]), int(p["ipow"]), frozenset(int(r) for r in p["roots"]))
    else:
        pref = complex(p["re"], p["im"])
    atoms = [(_atom_from_json(e), int(e["power"])) for e in d.get("numerator", [])]
    atoms += [(_atom_from_json(e), -int(e["power"])) for e in d.get("denominator", [])]
    return MeroExpr(pref, atoms)


# -- canonical text parser --------------------------------------------------

class _Tok:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self, k: int = 1) -> str:
        return self.text[self.pos:self.pos + k]

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def expect(self, lit: str):
        self.skip_ws()
        if not self.text.startswith(lit, self.pos):
            raise ValueError(f"expected {lit!r} at ...{self.text[self.pos:self.pos+20]!r}")
        self.pos += len(lit)

    def try_lit(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def number(self) -> Fraction:
        """A rational: optional sign, digits, optional /digits or .digits."""
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        while self.peek().isdigit():
            self.pos += 1
        if self.peek() == "." and self.text[self.pos + 1:self.pos + 2].isdigit():
            self.pos += 1
            while self.peek().isdigit():
                self.pos += 1
            return Fraction(self.text[start:self.pos])
        if self.peek() == "/" and self.text[self.pos + 1:self.pos + 2].isdigit():
            self.pos += 1
            while self.peek().isdigit():
                self.pos += 1
        if self.pos == start or self.text[start:self.pos] in ("+", "-"):
            raise ValueError(f"expected number at ...{self.text[start:start+20]!r}")
        return Fraction(self.text[start:self.pos])

    def float_number(self) -> float:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        while self.peek().isdigit() or self.peek() in ".eE":
            if self.peek() in "eE" and self.text[self.pos + 1:self.pos + 2] in "+-":
                self.pos += 2
            else:
                self.pos += 1
        return float(self.text[start:self.pos])

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_bracket_complex(tk: _Tok) -> complex:
    tk.expect("[")
    re = tk.float_number()
    sign = -1.0 if tk.try_lit("-") else 1.0
    tk.try_lit("+")
    im = sign * tk.float_number()
    tk.expect("i")
    tk.expect("]")
    return complex(re, im)


def _parse_linform(tk: _Tok) -> LinForm:
    """alpha s + beta, as printed by LinForm.__str__."""
    tk.skip_ws()
    alpha = Fraction(0)
    beta: BetaLike = Fraction(0)
    saw_s = False
    if tk.peek() == "[":
        return LinForm(Fraction(0), _parse_bracket_complex(tk))
    # leading term
    if tk.try_lit("-s"):
        alpha, saw_s = Fraction(-1), True
    elif tk.try_lit("s"):
        alpha, saw_s = Fraction(1), True
    else:
        n = tk.number()
        if tk.try_lit("s"):
            alpha, saw_s = n, True
        else:
            beta = n
    # trailing beta
    tk.skip_ws()
    if saw_s and tk.peek() in "+-":
        if tk.peek(2) == "+[":
            tk.expect("+")
            beta = _parse_bracket_complex(tk)
        else:
            beta = tk.number()
    return LinForm(alpha, beta)


def _parse_atom_or_const(tk: _Tok):
    """Returns ('atom', Atom) or ('const', ExactConst|complex)."""
    tk.skip_ws()
    for cls in (GammaRAtom, GammaCAtom):
        if tk.try_lit(cls._name + "("):
            form = _parse_linform(tk)
            tk.expect(")")
            return "atom", cls(form)
    if tk.try_lit("Lnf("):
        q = int(tk.number())
        tk.expect(";")
        tk.skip_ws()
        z = _parse_bracket_complex(tk) if tk.peek() == "[" else tk.number()
        tk.expect(";")
        form = _parse_linform(tk)
        tk.expect(")")
        return "atom", LAtom(q, _beta_norm(z), form)
    for rat, lit in ((1, "sqrt("), (-1, "-sqrt(")):
        if tk.try_lit(lit):
            p = int(tk.number())
            tk.expect(")")
            return "const", ExactConst(Fraction(rat), 0, frozenset([p]))
    if tk.peek() == "[":
        return "const", _parse_bracket_complex(tk)
    if tk.try_lit("-i"):
        return "const", ExactConst(Fraction(1), 3)
    if tk.try_lit("i"):
        return "const", ExactConst.i()
    n = tk.number()
    if tk.try_lit("^("):
        form = _parse_linform(tk)
        tk.expect(")")
        if n <= 0:
            raise ValueError("exponential base must be positive")
        return "atom", ExpAtom(n, form)
    return "const", ExactConst.of(n)


def _parse_product(tk: _Tok, sign: int):
    pref = ExactConst.one()
    atoms: list[tuple[Atom, int]] = []
    while True:
        kind, val = _parse_atom_or_const(tk)
        if kind == "const":
            pref = mul(pref, val)
        else:
            k = int(tk.number()) if tk.try_lit("^") else 1
            atoms.append((val, sign * k))
        if not tk.try_lit("*"):
            break
    return pref, atoms


def parse_expr(text: str) -> MeroExpr:
    """Inverse of format_expr on its own output."""
    tk = _Tok(text)
    pref, atoms = _parse_product(tk, +1)
    if tk.try_lit("/"):
        paren = tk.try_lit("(")
        dpref, datoms = _parse_product(tk, -1)
        if paren:
            tk.expect(")")
        pref = mul(pref, inv(dpref))
        atoms += datoms
    if not tk.done():
        raise ValueError(f"trailing input at ...{tk.text[tk.pos:tk.pos+20]!r}")
    return MeroExpr(pref, atoms)
