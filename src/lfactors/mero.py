"""Symbolic meromorphic functions of one complex variable s.

A MeroExpr is an exact constant prefactor times a signed multiset of atoms:

    Exp(b; a s + c)      b^{a s + c} for a positive rational base b
    GammaR(a s + c)      pi^{-z/2} Gamma(z/2) at z = a s + c
    GammaC(a s + c)      2 (2 pi)^{-z} Gamma(z) at z = a s + c
    Lnf(q; z; a s + c)   (1 - z q^{-(a s + c)})^{-1}

Negative multiplicities are denominator atoms.  Expressions multiply,
invert, substitute s -> a's + b', evaluate numerically and round-trip
exactly through text and JSON.  A Gamma-free expression (every p-adic one)
is evaluated here, in cmath; one with a Gamma atom goes to the numpy kernel
of numeric.py, which is imported only then.
The core is on Python ints: a LinForm holds alpha = an/ad and an exact beta
= bn/bd in lowest terms (normal forms over Z, Geddes-Czapor-Labahn ch. 2),
or an inexact beta rounded to a 2^-40 grid, and both as floats for the
kernel.  Slotted atoms with with_form make subst one affine composition
per atom; mero_mul canonicalises once, whatever the number of factors.
Results that are canonical by construction skip canonicalisation: inv
negates powers, which keeps every atom's key, and subst(a, b) with a != 0
and an int or Fraction b maps distinct atoms to distinct atoms, so it only
moves exponential constants into the prefactor and re-sorts.  subst takes
the general path for a = 0, for any other b, and when a beta computed in
floats (a complex beta, or an int b times a fractional alpha) lets two
atoms merge.
"""

from __future__ import annotations

import cmath
import math
import re
from math import gcd
from fractions import Fraction
from typing import Iterable, Sequence

from .exactconst import ExactConst, factorization
from .scalars import exact_or_complex, inv, is_exact, mul, power, rat_power

_POLE_TOL = 1e-8
_NAN = complex("nan")


class PoleProximityError(ArithmeticError):
    """Evaluation point too close to a pole or zero of an atom; resample."""


class UnsupportedExpressionError(ValueError):
    """Expression outside the requested normal form (e.g. archimedean atoms
    in a rational-function extraction)."""


BetaLike = Fraction | complex


_QUANT = float(2 ** 40)


def _beta_norm(b) -> BetaLike:
    if type(b) is ExactConst and b.is_rational:
        return b.rat
    b = exact_or_complex(b)
    if type(b) is Fraction:
        return b
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
        """alpha * b, as (n, d) in lowest terms or a complex on the grid.  An
        int or a Fraction b is exact; any other b is scaled in floats and
        rounded."""
        if type(b) is int or type(b) is Fraction:
            return _reduce(self.an * b.numerator, self.ad * b.denominator)
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
    return item[0].key  # unique within a table


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
        # negated powers and exponents keep every atom's key: no re-canonicalisation
        return _canonical(inv(self.prefactor), tuple(
            (ExpAtom(a.base, _form(-a.form.an, a.form.ad, (0, 1))), 1) if type(a) is ExpAtom
            else (a, -k) for a, k in self.atoms))

    def __pow__(self, k: int) -> "MeroExpr":
        return mero_mul(*[self if k > 0 else self.inv()] * abs(k))

    def subst(self, a, b=0) -> "MeroExpr":
        """s |-> a*s + b in every atom argument."""
        a = Fraction(a)
        if a != 0 and type(b) in (int, Fraction) and (out := self._subst_exact(a, b)) is not None:
            return out
        return MeroExpr(self.prefactor, [(atom.with_form(atom.form.compose(a, b)), k)
                                         for atom, k in self.atoms])

    def _subst_exact(self, a: Fraction, b) -> "MeroExpr | None":
        """subst for a != 0 and an exact b, which sends distinct atoms to
        distinct atoms: exponential constants move to the prefactor, as in
        _canonicalize, and the table is re-sorted.  None when a complex beta,
        computed in floats and so rounded to the grid or onto an integer, has
        merged two atoms."""
        pref, out, inexact = self.prefactor, [], False
        for atom, k in self.atoms:
            form = atom.form.compose(a, b)
            if type(atom) is ExpAtom:
                if form.bf != 0:
                    pref = mul(pref, rat_power(atom.base, form.beta))
                form = _form(form.an, form.ad, (0, 1))
            elif atom.form.bn is None:
                inexact = True
            out.append((atom.with_form(form), k))
        if inexact and len({atom for atom, _ in out}) < len(out):
            return None
        out.sort(key=_atom_sort_key)
        return _canonical(pref, tuple(out))

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
        if not _has_gamma((self,)):
            out = _log_rule(self, s)
        else:
            from .numeric import eval_log_batch
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

    def __hash__(self):  # equal prefactors may differ in kind or in the last digits
        return hash(self.atoms)


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


def _canonical(prefactor, atoms: tuple) -> MeroExpr:
    """The MeroExpr of a prefactor and atom table already in canonical form."""
    x = object.__new__(MeroExpr)
    object.__setattr__(x, "prefactor", prefactor)
    object.__setattr__(x, "atoms", atoms)
    return x


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
# A Gamma-free expression (every p-adic one) is evaluated here, in cmath, by
# log v(s) = c + m s - sum k log(1 - z q^{-(a s + b)}); one with a Gamma atom
# by the numpy kernel of numeric.py, imported on first use.

def _has_gamma(exprs: Sequence[MeroExpr]) -> bool:
    return any(isinstance(atom, _GammaAtom) for x in exprs for atom, _ in x.atoms)


def _affine(x: MeroExpr) -> tuple[complex, complex]:
    """(c, m) with e^{c + m s} = the prefactor times the exponential atoms."""
    pref = x.prefactor
    c, m = (cmath.nan if pref == 0 else pref.log() if x.is_exact else cmath.log(pref)), 0j
    for atom, k in x.atoms:
        if type(atom) is ExpAtom:
            lnb = math.log(atom.base)
            m, c = m + k * atom.form.af * lnb, c + k * atom.form.bf * lnb
    return c, m


def _lnf_log(atom: LAtom, s: complex) -> complex:
    """log(1 - z q^{-(a s + b)}), NaN within _POLE_TOL of a zero and past the float range."""
    lq = math.log(atom.q)
    try:
        w = 1 - atom.zf * cmath.exp(-atom.form.af * lq * s - atom.form.bf * lq)
    except OverflowError:
        return _NAN
    return cmath.log(w) if abs(w) >= _POLE_TOL else _NAN


def _log_rule(x: MeroExpr, s: complex) -> complex:
    """log v(s) of a Gamma-free x; NaN where numeric.eval_log_batch is."""
    c, m = _affine(x)
    out = c + m * s - sum(k * _lnf_log(atom, s) for atom, k in x.atoms if type(atom) is LAtom)
    return out if cmath.isfinite(out) else _NAN


def _value_json(x: MeroExpr, s: complex) -> list | None:
    try:
        v = cmath.exp(_log_rule(x, s))
    except OverflowError:
        return None
    return None if cmath.isnan(v) else [v.real, v.imag]


def values_json(exprs: Sequence[MeroExpr], points) -> list[list]:
    """numeric.eval_batch's values as JSON rows: [re, im] at each point, None
    at NaN; by _log_rule, without numpy, when no expression has a Gamma atom."""
    if not _has_gamma(exprs):
        return [[_value_json(x, s) for s in points] for x in exprs]
    from .numeric import eval_batch
    values = eval_batch(exprs, points)
    rows = values.view(float).reshape(*values.shape, 2).tolist()
    for i, j in zip(*(values != values).nonzero()):  # the NaNs
        rows[i][j] = None
    return rows


def __getattr__(name: str):  # the samplers of numeric.py, which the benchmark's tracer reads here
    if name not in ("equals_numeric", "max_rel_error"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import numeric
    return getattr(numeric, name)


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
    return str(b) if type(b) is Fraction else [b.real, b.imag]


def _form_json(f: LinForm):
    return {"alpha": _qstr(f.an, f.ad), "beta": _beta_json(f.beta)}


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


# -- reading text and JSON ---------------------------------------------------
# from_json builds every constant and atom through the constructors below,
# which refuse with ValueError what to_json never prints; parse_expr spells
# its text out as such a tree.  A rational is the string "n" or "n/d", a
# complex number the pair of its float parts.

_RAT = r"-?\d+(?:/0*[1-9]\d*)?"


def _rat(v) -> Fraction:
    if type(v) is not str or not re.fullmatch(_RAT, v):
        raise ValueError(f"{v!r} is not a rational n or n/d with d > 0")
    return Fraction(v)


def _complex(re_, im) -> complex:
    if not all(type(v) is float and math.isfinite(v) for v in (re_, im)):
        raise ValueError(f"[{re_!r}, {im!r}] is not a finite complex number")
    return complex(re_, im)


def _beta(v) -> BetaLike:
    """A rational, or a complex pair rounded to the grid of inexact betas."""
    return _rat(v) if type(v) is str else _beta_norm(_complex(*v))


def _power(k) -> int:
    if type(k) is not int or k < 1:
        raise ValueError(f"power {k!r} is not a positive integer")
    return k


def _exact(rat: Fraction, ipow, roots) -> ExactConst:
    """rat i^ipow prod sqrt(p) over distinct primes p below 10^12, a bound
    under which trial division decides primality at once."""
    if type(ipow) is not int or len(set(roots)) < len(roots) or not all(
            type(p) is int and 1 < p < 10 ** 12 and factorization(p) == ((p, 1),) for p in roots):
        raise ValueError(f"i^{ipow!r} * sqrt{roots!r} is not over distinct primes below 10^12")
    return ExactConst(rat, ipow, frozenset(roots))


def _atom(kind, arg: LinForm, base=None, q=None, z=None) -> Atom:
    """The atom of JSON type `kind`: an exponential's base is positive and its
    argument a multiple of s (a constant term would be a power of a base that
    may be too large to factor); an L-atom's q is an integer >= 2."""
    if kind == "exp":
        if (base := _rat(base)) <= 0 or arg.bf != 0:
            raise ValueError(f"{base}^({arg}) needs a base > 0 and an argument a multiple of s")
        return ExpAtom(base, arg)
    if kind == "lnf":
        if type(q) is not int or q < 2:
            raise ValueError(f"Lnf: q = {q!r} is not an integer >= 2")
        return LAtom(q, _beta(z), arg)
    if kind in ("gammaR", "gammaC"):
        return (GammaRAtom if kind == "gammaR" else GammaCAtom)(arg)
    raise ValueError(f"unknown atom type {kind!r}")


def from_json(d: dict) -> MeroExpr:
    """Inverse of to_json; any other tree raises ValueError."""
    try:
        p = d["prefactor"]
        if p["kind"] == "exact":
            pref = _exact(_rat(p["rat"]), p["ipow"], p["roots"])
        elif p["kind"] == "complex":
            pref = _complex(p["re"], p["im"])
        else:
            raise ValueError(f"unknown prefactor kind {p['kind']!r}")
        atoms = [(_atom(e["type"], LinForm(_rat(e["arg"]["alpha"]), _beta(e["arg"]["beta"])),
                        e.get("base"), e.get("q"), e.get("z")), sign * _power(e["power"]))
                 for sign, side in ((1, "numerator"), (-1, "denominator")) for e in d[side]]
        return MeroExpr(pref, atoms)
    except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: past the float range
        raise ValueError(f"malformed expression: {exc!r}") from exc


# The text grammar is what format_expr prints: factors joined by " * ", then
# at most one " / " and the denominator's atoms, in parentheses when there are
# several.  No factor holds either separator, so each is matched whole by one
# pattern of _FACTORS.

_NUM = r"\d+(?:\.\d+)?(?:e[+-]\d+)?"  # the repr of a finite float, unsigned
_CPLX = rf"\[(-?{_NUM})([+-]{_NUM})i\]"  # as _beta_str prints it; groups re, im
_FORM_RE = re.compile(  # as LinForm.__str__ prints it
    rf"(?P<alpha>-|{_RAT})?s(?P<beta>[+-]\d+(?:/\d+)?|\+{_CPLX})?|(?P<const>{_RAT}|{_CPLX})")
_POWER = r"(?:\^(?P<power>[1-9]\d*))?"
_FACTORS = tuple((kind, re.compile(pattern)) for kind, pattern in (
    ("gammaR", r"GammaR\((?P<arg>[^()]*)\)" + _POWER),
    ("gammaC", r"GammaC\((?P<arg>[^()]*)\)" + _POWER),
    ("lnf", r"Lnf\((?P<q>\d+); (?P<z>[^;()]*); (?P<arg>[^()]*)\)" + _POWER),
    ("exp", r"(?P<base>\d+(?:/\d+)?)\^\((?P<arg>[^()]*)\)" + _POWER),
    ("rat", _RAT),
    ("i", r"(?P<neg>-?)i"),
    ("sqrt", r"(?P<neg>-?)sqrt\((?P<p>\d+)\)"),
    ("complex", _CPLX),
))


def _text_value(t: str):
    """A rational's spelling as it is, a bracketed complex as (re, im)."""
    m = re.fullmatch(_CPLX, t)
    return (float(m[1]), float(m[2])) if m else t


def _text_form(t: str) -> dict:
    if (m := _FORM_RE.fullmatch(t)) is None:
        raise ValueError(f"{t!r} is not a linear form a s + b")
    alpha = "0" if m["const"] else {None: "1", "-": "-1"}.get(m["alpha"], m["alpha"])
    return {"alpha": alpha, "beta": _text_value((m["const"] or m["beta"] or "0").removeprefix("+"))}


def _text_prefactor(consts: list) -> dict:
    """A lone complex factor as read, or the exact constant ExactConst.__str__ spells."""
    kinds = [kind for kind, _ in consts]
    if "complex" in kinds:
        if len(kinds) > 1:
            raise ValueError("a complex prefactor stands alone")
        m = consts[0][1]
        return {"kind": "complex", "re": float(m[1]), "im": float(m[2])}
    rats = [m[0] if kind == "rat" else "-1" for kind, m in consts if kind == "rat" or m["neg"]]
    if len(rats) > 1:
        raise ValueError(f"rational part given twice: {rats}")
    return {"kind": "exact", "rat": rats[0] if rats else "1", "ipow": kinds.count("i"),
            "roots": [int(m["p"]) for kind, m in consts if kind == "sqrt"]}


def parse_expr(text: str) -> MeroExpr:
    """Inverse of format_expr on its own output; any other text raises
    ValueError.  The text is spelled out as the tree to_json prints, and
    from_json reads that."""
    num, slash, den = text.partition(" / ")
    dens = den[1:-1].split(" * ") if den[:1] == "(" and den[-1:] == ")" else [den] if slash else []
    tree, consts = {"numerator": [], "denominator": []}, []
    for side, factors in (("numerator", num.split(" * ")), ("denominator", dens)):
        for f in factors:
            kind, m = next(((k, m) for k, p in _FACTORS if (m := p.fullmatch(f))), (None, None))
            if kind is None:
                raise ValueError(f"{f!r} is not a factor format_expr prints")
            g = m.groupdict()
            if "arg" in g:
                tree[side].append({"type": kind, "arg": _text_form(g["arg"]), "base": g.get("base"),
                                   "q": int(g.get("q", 0)), "z": _text_value(g.get("z", "0")),
                                   "power": int(g["power"] or 1)})
            elif side == "denominator":
                raise ValueError(f"constant {f!r} in a denominator")
            else:
                consts.append((kind, m))
    return from_json(dict(tree, prefactor=_text_prefactor(consts)))
