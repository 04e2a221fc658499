"""The numpy kernel, the only module that imports numpy: values of MeroExprs
at many points, and the seeded sampling comparisons.  mero imports it on
first use, for an expression with a Gamma atom.  The log-Gamma is Stirling's
series after reflection and a shift to Re >= 10 (Hare, J. Algorithms 25
(1997), without the branch bookkeeping: the kernel needs log Gamma only up
to a multiple of 2 pi i).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

import numpy as np

from .mero import GammaCAtom, GammaRAtom, LAtom, MeroExpr, _affine, _lnf_log, _POLE_TOL

_LN_2 = math.log(2)
_LN_PI = math.log(math.pi)
_LN_2PI = math.log(2 * math.pi)
_SHIFT_TO = 10  # Stirling's series runs at Re >= _SHIFT_TO
# B_2k / (2k (2k - 1)), k = 1..8: the Stirling terms in powers of 1/y^2
_STIRLING = tuple(float(Fraction(b) / (2 * k * (2 * k - 1))) for k, b in enumerate(
    ("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6", "-3617/510"), 1))


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
        np.multiply(prod, (y + k) * y_inv, out=prod, where=k < n)
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
    overflows.  The prefactor, the exponential atoms and the elementary parts
    of the Gamma atoms fold into one affine c + m s per expression; each
    distinct Gamma argument a s + b is evaluated once, by one _log_gamma call
    over all of them, which np.add.at scatters, times their multiplicities,
    into the rows of the expressions that hold them.  L-atom logs are mero's
    _lnf_log at each point."""
    s = np.asarray(points, dtype=complex)
    affine = []  # (c, m) per expression
    gargs: dict = {}  # (a, b) -> row of Gamma(a s + b)
    gamma = []   # (expression, k, row): Gamma(a s + b)^k
    lnf = []     # (expression, k, atom): (1 - z q^{-(a s + b)})^-k
    for i, x in enumerate(exprs):
        c, m = _affine(x)
        for atom, k in x.atoms:
            a, b, kind = atom.form.af, atom.form.bf, type(atom)
            if kind is GammaRAtom:  # pi^{-z/2} Gamma(z/2)
                m, c = m - k * a / 2 * _LN_PI, c - k * b / 2 * _LN_PI
                gamma.append((i, k, gargs.setdefault((a / 2, b / 2), len(gargs))))
            elif kind is GammaCAtom:  # 2 (2 pi)^{-z} Gamma(z)
                m, c = m - k * a * _LN_2PI, c + k * (_LN_2 - b * _LN_2PI)
                gamma.append((i, k, gargs.setdefault((a, b), len(gargs))))
            elif kind is LAtom:
                lnf.append((i, k, atom))
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
        for i, k, atom in lnf:
            out[i] -= k * np.array([_lnf_log(atom, v) for v in s.tolist()])
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
