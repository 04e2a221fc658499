"""Symbolic meromorphic functions of one complex variable s.

A MeroExpr is an exact constant prefactor times a signed multiset of atoms:

    Exp(b; a s + c)      b^{a s + c} for a positive rational base b
    GammaR(a s + c)      pi^{-z/2} Gamma(z/2) at z = a s + c
    GammaC(a s + c)      2 (2 pi)^{-z} Gamma(z) at z = a s + c
    Lnf(q; z; a s + c)   (1 - z q^{-(a s + c)})^{-1}

Negative multiplicities are denominator atoms.  Expressions multiply,
invert, substitute s -> a's + b', evaluate numerically through one
vectorised kernel (eval_log_batch: numpy over an atoms x points grid, one
scipy loggamma call for all Gamma atoms), which also serves the seeded
sampling comparisons, and round-trip exactly through text and JSON.
Atoms and linear forms compute their hash and sort key once, at
construction; a product of any number of expressions (mero_mul) gathers
all their atoms and canonicalises once.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from scipy.special import loggamma

from .exactconst import ExactConst

_LN_2 = math.log(2)
_LN_PI = math.log(math.pi)
_LN_2PI = math.log(2 * math.pi)
_POLE_TOL = 1e-8


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
    if isinstance(b, float) and float(b).is_integer():
        return Fraction(int(b))
    b = complex(b)
    if b.imag == 0 and b.real.is_integer():
        return Fraction(int(b.real))
    # quantize inexact parameters so that float-sum associativity cannot
    # split canonically equal atoms (grid ~ 9e-13)
    return complex(round(b.real * _QUANT) / _QUANT, round(b.imag * _QUANT) / _QUANT)


def _beta_add(x: BetaLike, y: BetaLike) -> BetaLike:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x + y
    return _beta_norm(complex(x) + complex(y))


def _beta_key(b: BetaLike):
    if isinstance(b, Fraction):
        return ("Q", b.numerator, b.denominator)
    return ("C", b.real, b.imag)


def _beta_str(b: BetaLike) -> str:
    if isinstance(b, Fraction):
        return str(b)
    return f"[{b.real!r}{'+' if b.imag >= 0 else '-'}{abs(b.imag)!r}i]"


def _seal(obj, fields: tuple, key: tuple) -> None:
    """Stores, once, the hash of the field values that the dataclass __eq__
    compares (so 1/2 and 0.5+0j hash alike, as they compare equal) and the
    sort key."""
    object.__setattr__(obj, "_hash", hash(fields))
    object.__setattr__(obj, "_key", key)


def _sealed_hash(self) -> int:
    return self._hash


def _sealed_key(self) -> tuple:
    return self._key


@dataclass(frozen=True)
class LinForm:
    """alpha * s + beta with rational alpha."""

    alpha: Fraction
    beta: BetaLike

    def __post_init__(self):
        alpha = self.alpha if type(self.alpha) is Fraction else Fraction(self.alpha)
        beta = _beta_norm(self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        _seal(self, (alpha, beta), (alpha.numerator, alpha.denominator, _beta_key(beta)))

    __hash__, key = _sealed_hash, _sealed_key

    @staticmethod
    def of(alpha, beta=0) -> "LinForm":
        return LinForm(Fraction(alpha), beta)

    def compose(self, a: Fraction, b: BetaLike) -> "LinForm":
        """This form evaluated at a*s + b."""
        return LinForm(self.alpha * Fraction(a), _beta_add(self.beta, _scale_beta(self.alpha, b)))

    def shift(self, b: BetaLike) -> "LinForm":
        return LinForm(self.alpha, _beta_add(self.beta, _scale_beta(self.alpha, b)))

    def plus(self, other: "LinForm") -> "LinForm":
        return LinForm(self.alpha + other.alpha, _beta_add(self.beta, other.beta))

    def times(self, k: int) -> "LinForm":
        return LinForm(self.alpha * k, _scale_beta(Fraction(k), self.beta))

    @property
    def is_zero(self) -> bool:
        return self.alpha == 0 and self.beta == 0

    def __str__(self):
        a = self.alpha
        if a == 0:
            return _beta_str(self.beta)
        if a == 1:
            head = "s"
        elif a == -1:
            head = "-s"
        else:
            head = f"{a}s"
        if self.beta == 0:
            return head
        bs = _beta_str(self.beta)
        if isinstance(self.beta, Fraction) and self.beta < 0:
            return f"{head}{bs}"
        return f"{head}+{bs}"


def _scale_beta(a: Fraction, b: BetaLike) -> BetaLike:
    if isinstance(b, Fraction):
        return a * b
    return _beta_norm(complex(a) * complex(b))


@dataclass(frozen=True)
class ExpAtom:
    base: Fraction  # positive
    form: LinForm

    def __post_init__(self):
        _seal(self, (self.base, self.form),
              (0, self.base.numerator, self.base.denominator) + self.form._key)

    __hash__, key = _sealed_hash, _sealed_key


@dataclass(frozen=True)
class GammaRAtom:
    form: LinForm

    def __post_init__(self):
        _seal(self, (self.form,), (1,) + self.form._key)

    __hash__, key = _sealed_hash, _sealed_key


@dataclass(frozen=True)
class GammaCAtom:
    form: LinForm

    def __post_init__(self):
        _seal(self, (self.form,), (2,) + self.form._key)

    __hash__, key = _sealed_hash, _sealed_key


@dataclass(frozen=True)
class LAtom:
    q: int
    z: BetaLike  # value at a uniformizer
    form: LinForm

    def __post_init__(self):
        _seal(self, (self.q, self.z, self.form), (3, self.q, _beta_key(self.z)) + self.form._key)

    __hash__, key = _sealed_hash, _sealed_key


Atom = ExpAtom | GammaRAtom | GammaCAtom | LAtom


def _atom_sort_key(item):
    atom, power = item
    return atom.key() + (power,)


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
        return MeroExpr(c if isinstance(c, (ExactConst, complex)) else ExactConst.of(c), ())

    @staticmethod
    def one() -> "MeroExpr":
        return MeroExpr()

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
        return MeroExpr(_pref_inv(self.prefactor), [(a, -k) for a, k in self.atoms])

    def __pow__(self, k: int) -> "MeroExpr":
        return mero_mul(*[self if k > 0 else self.inv()] * abs(k))

    def subst(self, a, b=0) -> "MeroExpr":
        """s |-> a*s + b in every atom argument."""
        a = Fraction(a)
        return MeroExpr(self.prefactor,
                        [(_atom_subst(atom, a, b), k) for atom, k in self.atoms])

    @property
    def is_constant(self) -> bool:
        return not self.atoms

    @property
    def is_exact(self) -> bool:
        return isinstance(self.prefactor, ExactConst)

    def constant_value(self):
        if not self.is_constant:
            raise UnsupportedExpressionError("expression is not constant")
        return self.prefactor

    # -- numerics ------------------------------------------------------
    def eval_log_many(self, points) -> np.ndarray:
        """log of the value at each point; see eval_log_batch."""
        return eval_log_batch([self], points)[0]

    def eval_many(self, points) -> np.ndarray:
        """Values at each point; see eval_batch."""
        return eval_batch([self], points)[0]

    def eval_log(self, s: complex) -> complex:
        """log of the value (any branch) at one point; raises near atom poles/zeros."""
        out = complex(self.eval_log_many([s])[0])
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


def _pref_mul(x, y):
    if isinstance(x, ExactConst) and isinstance(y, ExactConst):
        return x * y
    xv = x.to_complex() if isinstance(x, ExactConst) else x
    yv = y.to_complex() if isinstance(y, ExactConst) else y
    return xv * yv


def _pref_inv(x):
    if isinstance(x, ExactConst):
        return x.inverse()
    return 1 / x


def _pref_eq(x, y) -> bool:
    if isinstance(x, ExactConst) and isinstance(y, ExactConst):
        return x == y
    xv = x.to_complex() if isinstance(x, ExactConst) else complex(x)
    yv = y.to_complex() if isinstance(y, ExactConst) else complex(y)
    return abs(xv - yv) <= 1e-12 * max(1.0, abs(xv))


def _canonicalize(prefactor, groups):
    """Merges the atom groups into one sorted table.  Atoms that cancel are
    dropped at the end of each group, so equal atoms of different types
    (1/2 and 0.5+0j) keep the representative a group-by-group product would."""
    pref = prefactor if isinstance(prefactor, (ExactConst, complex)) else ExactConst.of(prefactor)
    exp_forms: dict[Fraction, LinForm] = {}
    table: dict[Atom, int] = {}
    for atoms in groups:
        for atom, k in atoms:
            if k == 0:
                continue
            if isinstance(atom, ExpAtom):
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
        if form.is_zero:
            continue
        # canonical form: pure alpha*s exponent, constant part in the prefactor
        if form.beta != 0:
            pref = _pref_mul(pref, _const_power(base, form.beta))
        if form.alpha == 0:
            continue
        atom = ExpAtom(base, LinForm(form.alpha, Fraction(0)))
        table[atom] = table.get(atom, 0) + 1
    return pref, tuple(sorted(table.items(), key=_atom_sort_key))


def _const_power(base: Fraction, beta: BetaLike):
    """base^beta as a constant, exact when beta is a half-integer."""
    if isinstance(beta, Fraction) and beta.denominator in (1, 2):
        return ExactConst.half_power(base, int(beta * 2))
    return cmath.exp(complex(beta) * cmath.log(float(base)))


def _atom_subst(atom: Atom, a: Fraction, b) -> Atom:
    if isinstance(atom, ExpAtom):
        return ExpAtom(atom.base, atom.form.compose(a, b))
    if isinstance(atom, GammaRAtom):
        return GammaRAtom(atom.form.compose(a, b))
    if isinstance(atom, GammaCAtom):
        return GammaCAtom(atom.form.compose(a, b))
    return LAtom(atom.q, atom.z, atom.form.compose(a, b))


# -- algebra helpers ----------------------------------------------------

def mero_mul(*xs: MeroExpr) -> MeroExpr:
    """The product of the factors, canonicalised once over all their atoms.
    Prefactors multiply left to right, so the result (atoms, text, JSON)
    is that of the pairwise product (x1 * x2) * x3 ..."""
    pref = xs[0].prefactor if xs else ExactConst.one()
    for x in xs[1:]:
        pref = _pref_mul(pref, x.prefactor)
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
        if isinstance(atom, LAtom):
            if atom.q != q:
                raise UnsupportedExpressionError("mixed residue fields under twist")
            alpha = atom.form.alpha
            if alpha.denominator != 1:
                raise UnsupportedExpressionError("non-integer s-coefficient under z-twist")
            znew = _mul_beta(atom.z, _int_pow(z, int(alpha)))
            out.append((LAtom(atom.q, znew, atom.form.shift(t)), k))
        elif isinstance(atom, ExpAtom):
            r = _log_base(atom.base, q)
            e = r * atom.form.alpha
            if e.denominator != 1:
                raise UnsupportedExpressionError("twist needs integral q-power exponents")
            pref = _pref_mul(pref, _inv_pow_const(z, int(e) * k))
            out.append((ExpAtom(atom.base, atom.form.shift(t)), k))
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


def _int_pow(z: BetaLike, k: int):
    if isinstance(z, Fraction):
        return z ** k
    return complex(z) ** k


def _mul_beta(x: BetaLike, y) -> BetaLike:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x * y
    return _beta_norm(complex(x) * complex(y))


def _inv_pow_const(z: BetaLike, e: int):
    v = _int_pow(z, -e)
    if isinstance(v, Fraction):
        return ExactConst.of(v)
    return v


# -- numeric evaluation ----------------------------------------------------

def eval_log_batch(exprs: Sequence[MeroExpr], points) -> np.ndarray:
    """log (any branch) of each expression at each of a 1-D sequence of points,
    shape (len(exprs), len(points)); NaN at a zero prefactor, within _POLE_TOL
    of a Gamma pole or a zero of 1 - z q^{-(a s + c)}, and where a term
    overflows.  A fixed number of numpy calls: exponential atoms and the
    elementary parts of the Gamma atoms fold into one affine c + m s per
    expression, all Gamma atoms share one loggamma call, all L-atoms one exp
    and one log."""
    s = np.asarray(points, dtype=complex)
    affine = []  # (c, m) per expression
    gamma = []   # rows (expression, k, a, b): Gamma(a s + b)^k
    lnf = []     # rows (expression, k, a, b, z): (1 - z exp(a s + b))^-k
    for i, x in enumerate(exprs):
        pref = x.prefactor.to_complex() if x.is_exact else x.prefactor
        c, m = (cmath.log(pref) if pref != 0 else cmath.nan), 0j
        for atom, k in x.atoms:
            a, b = _as_number(atom.form.alpha), _as_number(atom.form.beta)
            if isinstance(atom, ExpAtom):
                lnb = math.log(atom.base)
                m, c = m + k * a * lnb, c + k * b * lnb
            elif isinstance(atom, GammaRAtom):  # pi^{-z/2} Gamma(z/2)
                m, c = m - k * a / 2 * _LN_PI, c - k * b / 2 * _LN_PI
                gamma.append((i, k, a / 2, b / 2))
            elif isinstance(atom, GammaCAtom):  # 2 (2 pi)^{-z} Gamma(z)
                m, c = m - k * a * _LN_2PI, c + k * (_LN_2 - b * _LN_2PI)
                gamma.append((i, k, a, b))
            else:
                lq = math.log(atom.q)
                lnf.append((i, k, -a * lq, -b * lq, _as_number(atom.z)))
        affine.append((c, m))
    with np.errstate(all="ignore"):
        cm = np.array(affine, dtype=complex)
        out = cm[:, :1] + cm[:, 1:] * s
        if gamma:
            g = np.array(gamma, dtype=complex)
            z = g[:, 2:3] * s + g[:, 3:]
            lg = loggamma(z)
            lg[np.abs(z - np.rint(np.minimum(z.real, 0))) < _POLE_TOL] = np.nan
            np.add.at(out, g[:, 0].real.astype(int), g[:, 1:2] * lg)
        if lnf:
            f = np.array(lnf, dtype=complex)
            w = 1 - f[:, 4:] * np.exp(f[:, 2:3] * s + f[:, 3:4])
            lw = np.log(w)
            lw[np.abs(w) < _POLE_TOL] = np.nan
            np.add.at(out, f[:, 0].real.astype(int), -f[:, 1:2] * lw)
    out[~np.isfinite(out)] = np.nan
    return out


def eval_batch(exprs: Sequence[MeroExpr], points) -> np.ndarray:
    """Values of each expression at each point; NaN where eval_log_batch is
    NaN or the value overflows."""
    with np.errstate(over="ignore"):
        out = np.exp(eval_log_batch(exprs, points))
    out[~np.isfinite(out)] = np.nan
    return out


def _as_number(v: BetaLike) -> float | complex:
    return v if isinstance(v, complex) else v.numerator / v.denominator


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

def _atom_str(atom: Atom) -> str:
    if isinstance(atom, ExpAtom):
        return f"{atom.base}^({atom.form})"
    if isinstance(atom, GammaRAtom):
        return f"GammaR({atom.form})"
    if isinstance(atom, GammaCAtom):
        return f"GammaC({atom.form})"
    return f"Lnf({atom.q}; {_beta_str(atom.z) if not isinstance(atom.z, Fraction) else atom.z}; {atom.form})"


def format_expr(x: MeroExpr) -> str:
    num = [(a, k) for a, k in x.atoms if k > 0]
    den = [(a, -k) for a, k in x.atoms if k < 0]
    if isinstance(x.prefactor, ExactConst):
        pref = str(x.prefactor)
        pref_trivial = x.prefactor.is_one
    else:
        pref = _beta_str(x.prefactor)
        pref_trivial = False
    parts = []
    if not pref_trivial or not num:
        parts.append(pref)
    parts += [_atom_str(a) + (f"^{k}" if k != 1 else "") for a, k in num]
    text = " * ".join(parts) if parts else "1"
    if den:
        dparts = [_atom_str(a) + (f"^{k}" if k != 1 else "") for a, k in den]
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
    return {"alpha": str(f.alpha), "beta": _beta_json(f.beta)}


def _form_from_json(d) -> LinForm:
    return LinForm(Fraction(d["alpha"]), _beta_from_json(d["beta"]))


def _atom_json(atom: Atom):
    if isinstance(atom, ExpAtom):
        return {"type": "exp", "base": str(atom.base), "arg": _form_json(atom.form)}
    if isinstance(atom, GammaRAtom):
        return {"type": "gammaR", "arg": _form_json(atom.form)}
    if isinstance(atom, GammaCAtom):
        return {"type": "gammaC", "arg": _form_json(atom.form)}
    return {"type": "lnf", "q": atom.q, "z": _beta_json(atom.z), "arg": _form_json(atom.form)}


def _atom_from_json(d) -> Atom:
    t = d["type"]
    form = _form_from_json(d["arg"])
    if t == "exp":
        return ExpAtom(Fraction(d["base"]), form)
    if t == "gammaR":
        return GammaRAtom(form)
    if t == "gammaC":
        return GammaCAtom(form)
    if t == "lnf":
        return LAtom(int(d["q"]), _beta_from_json(d["z"]), form)
    raise ValueError(f"unknown atom type {t!r}")


def to_json(x: MeroExpr) -> dict:
    if isinstance(x.prefactor, ExactConst):
        pref = {"kind": "exact", "rat": str(x.prefactor.rat), "ipow": x.prefactor.ipow,
                "roots": sorted(x.prefactor.roots)}
    else:
        pref = {"kind": "complex", "re": x.prefactor.real, "im": x.prefactor.imag}
    return {
        "schema": SCHEMA_VERSION,
        "prefactor": pref,
        "numerator": [dict(_atom_json(a), power=k) for a, k in x.atoms if k > 0],
        "denominator": [dict(_atom_json(a), power=-k) for a, k in x.atoms if k < 0],
    }


def from_json(d: dict) -> MeroExpr:
    p = d["prefactor"]
    if p["kind"] == "exact":
        pref = ExactConst(Fraction(p["rat"]), int(p["ipow"]), frozenset(int(r) for r in p["roots"]))
    else:
        pref = complex(p["re"], p["im"])
    atoms: list[tuple[Atom, int]] = []
    for entry in d.get("numerator", []):
        atoms.append((_atom_from_json(entry), int(entry["power"])))
    for entry in d.get("denominator", []):
        atoms.append((_atom_from_json(entry), -int(entry["power"])))
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
    tk.skip_ws()
    sign = 1.0
    if tk.try_lit("+"):
        sign = 1.0
    elif tk.try_lit("-"):
        sign = -1.0
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
    if tk.try_lit("GammaR("):
        form = _parse_linform(tk)
        tk.expect(")")
        return "atom", GammaRAtom(form)
    if tk.try_lit("GammaC("):
        form = _parse_linform(tk)
        tk.expect(")")
        return "atom", GammaCAtom(form)
    if tk.try_lit("Lnf("):
        q = int(tk.number())
        tk.expect(";")
        tk.skip_ws()
        z = _parse_bracket_complex(tk) if tk.peek() == "[" else tk.number()
        tk.expect(";")
        form = _parse_linform(tk)
        tk.expect(")")
        return "atom", LAtom(q, _beta_norm(z), form)
    if tk.try_lit("sqrt("):
        p = int(tk.number())
        tk.expect(")")
        return "const", ExactConst(Fraction(1), 0, frozenset([p]))
    if tk.try_lit("-sqrt("):
        p = int(tk.number())
        tk.expect(")")
        return "const", ExactConst(Fraction(-1), 0, frozenset([p]))
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
            pref = _pref_mul(pref, val)
        else:
            power = 1
            if tk.try_lit("^"):
                power = int(tk.number())
            atoms.append((val, sign * power))
        if not tk.try_lit("*"):
            break
    return pref, atoms


def parse_expr(text: str) -> MeroExpr:
    """Inverse of format_expr on its own output."""
    tk = _Tok(text)
    pref, atoms = _parse_product(tk, +1)
    if tk.try_lit("/"):
        if tk.try_lit("("):
            dpref, datoms = _parse_product(tk, -1)
            tk.expect(")")
        else:
            dpref, datoms = _parse_product(tk, -1)
        pref = _pref_mul(pref, _pref_inv(dpref))
        atoms += datoms
    if not tk.done():
        raise ValueError(f"trailing input at ...{tk.text[tk.pos:tk.pos+20]!r}")
    return MeroExpr(pref, atoms)
