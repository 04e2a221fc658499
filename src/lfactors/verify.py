"""Seeded identity-verification suites.

Every invariant of the package is an executable check: Hilbert-symbol
bilinearity against a brute-force conic oracle, reduced norms against
regular-representation determinants, Gauss-sum properties, functional
equations, self-duality, twisting, psi-dependence, root numbers, the
minimal-case and spherical cross-checks.

A check is one row `Check(name, comparisons, tol)`: `comparisons(rng)`
yields `(lhs, rhs, field)` triples from a seeded generator, `compare`
decides each triple, and one fold turns them into a `CheckResult` with the
mismatch count, the worst error and how many comparisons took each path.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .characters import (AddCharacter, MultCharacter, char_eval, char_inverse,
                         char_mul, unramified_twist)
from .doubling import (GLChar, Induced, RegularNilpotentData, SkewHermCharR,
                       SpHighestWeight, TrivialRep, correction_R, epsilon_factor,
                       gamma_capital, gamma_factor, normalization_c, root_number,
                       skew_char_space, sp_space, t_factor, derive_gj_from_normalization)
from .exactconst import ExactConst, factor_int
from .fields import LocalField, SquareClass, hilbert_symbol, nonsquare_unit, square_class
from .gj import gj_gamma_norm
from .hermitian import (LINEAR, SKEW, HermitianSpace, discriminant, kottwitz_sign,
                        morita_natural)
from .memo import per_call, scope
from .mero import (LinForm, MeroExpr, format_expr, from_json, max_rel_error,
                   mero_mul, parse_expr, to_json)
from .quaternion import (QuatMatrix, QuaternionAlgebra, matrix_reduced_norm,
                         regular_representation_det)
from .ratfunc import as_rational_in_X
from .spherical import (SphericalData, gamma_spherical, spherical_zeta,
                        xi_symmetry_holds)
from .tate import _psi_scale, eps_at_half, gauss_sum, tate_gamma

PRIMES = (3, 5, 7, 11)
REAL = LocalField.real()
FIELDS = (REAL,) + tuple(LocalField.padic(p) for p in PRIMES)
SAMPLES = 24  # seeded points of a sampled comparison
SPHERICAL_FIELDS = tuple(LocalField.padic(p, f) for p, f in ((3, 1), (5, 1), (3, 2)))  # q = 3, 5, 9


@dataclass
class CheckResult:
    name: str
    passed: bool
    samples: int
    max_error: float
    mismatches: int = 0
    paths: dict[str, int] = field(default_factory=dict)

    def to_json(self):
        return asdict(self)


@dataclass
class Report:
    suite: str
    seed: int
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self):
        return {"suite": self.suite, "seed": self.seed, "passed": self.passed,
                "checks": [r.to_json() for r in self.results]}

    def lines(self):
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            paths = ", ".join(f"{p} {n}" for p, n in sorted(r.paths.items()))
            yield (f"[{status}] {r.name}: {r.samples} samples, {r.mismatches} mismatches, "
                   f"max err {r.max_error:.2e} ({paths})")


# ---------------------------------------------------------------------------
# The comparison primitive and the check row

def compare(lhs, rhs, field: LocalField | None, seed: int, tol: float):
    """(path, samples, error, ok) for the claim lhs = rhs.

    Expressions over a p-adic field compare exactly in X = q^{-s} (path
    "exact", or "inexact" when a coefficient is complex), expressions over R
    at SAMPLES seeded pole-free points ("sampled"), floats and complex
    numbers by |lhs - rhs| / max(1, |rhs|) ("close"); anything else, and
    every expression given no field, by == ("equal").  Only the sampled and
    close paths have an error; the others report 0."""
    if isinstance(rhs, MeroExpr) and field is not None:
        if field.is_real:
            err = max_rel_error(lhs, rhs, samples=SAMPLES, seed=seed)
            return "sampled", SAMPLES, err, err < tol
        ratio = as_rational_in_X(mero_mul(lhs, rhs.inv()), field.q)
        return ("exact" if ratio.is_exact else "inexact"), 1, 0.0, ratio.is_one
    if isinstance(rhs, (float, complex)):
        err = abs(lhs - rhs) / max(1.0, abs(rhs))
        return "close", 1, err, err < tol
    return "equal", 1, 0.0, lhs == rhs


def _perturb(x):
    """A right-hand side that differs from x: the planted fault of --corrupt."""
    if isinstance(x, tuple):
        return (_perturb(x[0]),) + x[1:]
    if isinstance(x, MeroExpr):
        return x * MeroExpr.const(ExactConst(Fraction(1000001, 1000000)))
    if isinstance(x, bool):
        return not x
    if isinstance(x, (int, Fraction, float, complex)):
        return x + 1e-6 * max(1, abs(x))
    return object()  # a square class or a form type: a value equal to nothing


@dataclass(frozen=True)
class Check:
    name: str
    comparisons: Callable[[random.Random], Iterable[tuple]]
    tol: float = 1e-9

    def __call__(self, seed: int, corrupt: bool = False) -> CheckResult:
        res = CheckResult(self.name, True, 0, 0.0)
        for i, (lhs, rhs, field) in enumerate(self.comparisons(random.Random(seed))):
            if corrupt and i == 0:
                rhs = _perturb(rhs)
            path, samples, err, ok = compare(lhs, rhs, field, seed, self.tol)
            res.samples += samples
            res.max_error = max(res.max_error, err)
            res.mismatches += not ok
            res.paths[path] = res.paths.get(path, 0) + 1
        res.passed = res.mismatches == 0
        return res


def _random_rational(rng: random.Random, height: int = 30) -> Fraction:
    num = rng.randint(-height, height) or 1
    return Fraction(num, rng.randint(1, height))


# ---------------------------------------------------------------------------
# Hilbert symbols, square classes, characters

@functools.cache  # a constant of the modulus, kept for the life of the process
def _squares_mod(mod: int) -> frozenset[int]:
    return frozenset(z * z % mod for z in range(mod))


def conic_solvable_oracle(p: int, a: Fraction, b: Fraction) -> bool:
    """Whether z^2 = a x^2 + b y^2 has a nontrivial Q_p-point, by exhaustive
    search modulo p^3 after normalizing valuations to {0, 1}.  A primitive
    (x, y) has a unit coordinate; dividing (x, y, z) by it keeps solutions,
    squares and primitivity, so a solution exists iff a + b y^2 is a square
    for some y, or a x^2 + b for some x = 0 mod p: p^3 + p^2 values."""
    mod = p ** 3

    def normalize(v: Fraction) -> int:  # strips p here, apart from fields.py
        num, den, odd = v.numerator, v.denominator, 0
        if not num:
            raise ValueError("the conic oracle needs nonzero coefficients")
        while num % p == 0:
            num, odd = num // p, odd ^ 1
        while den % p == 0:
            den, odd = den // p, odd ^ 1
        return num * pow(den, -1, mod) * p ** odd % mod

    an, bn = normalize(a), normalize(b)
    squares = _squares_mod(mod)
    return (any((an + bn * y * y) % mod in squares for y in range(mod))
            or any((an * x * x + bn) % mod in squares for x in range(0, mod, p)))


def _hilbert_oracle(rng, pairs_per_prime: int = 50):
    for p in PRIMES:
        F = LocalField.padic(p)
        for _ in range(pairs_per_prime):
            a, b = _random_rational(rng), _random_rational(rng)
            yield hilbert_symbol(F, a, b) == 1, conic_solvable_oracle(p, a, b), None


def _hilbert_bilinearity(rng, samples: int = 200):
    for _ in range(samples):
        F = rng.choice(FIELDS)
        a, b, c = (_random_rational(rng) for _ in range(3))
        yield ((hilbert_symbol(F, a, b), hilbert_symbol(F, a, b * c), hilbert_symbol(F, a, -a)),
               (hilbert_symbol(F, b, a), hilbert_symbol(F, a, b) * hilbert_symbol(F, a, c), 1),
               None)


def _square_class(rng, samples: int = 200):
    for _ in range(samples):
        F = rng.choice(FIELDS)
        x, y = _random_rational(rng), _random_rational(rng)
        yield square_class(F, x * y * y), square_class(F, x), None


def _char_algebra(rng, samples: int = 60):
    for _ in range(samples):
        F = LocalField.padic(rng.choice(PRIMES))
        chi1, chi2 = (MultCharacter(F, SquareClass(F, rng.choice(["1", "u", "p", "up"])),
                                    rng.choice([1, -1]), Fraction(rng.randint(-2, 2)))
                      for _ in range(2))
        x = _random_rational(rng)
        yield char_eval(char_mul(chi1, chi2), x), char_eval(chi1, x) * char_eval(chi2, x), None


# ---------------------------------------------------------------------------
# Reduced norms, discriminants, Morita transfer

def _random_quat_matrix(rng, alg, n, height=4) -> QuatMatrix:
    return QuatMatrix(alg, 1, tuple(tuple(tuple(rng.randint(-height, height) for _ in range(4))
                                          for _ in range(n)) for _ in range(n)))


@per_call
def _space_of_type(alg, ftype, n) -> HermitianSpace:
    if ftype == "linear":
        return HermitianSpace.linear(alg, n)
    return HermitianSpace.diagonal(alg, ftype, [1 if ftype == "hermitian" else alg.element(0, 1)] * n)


def _reduced_norm(rng, samples: int = 100):
    F = LocalField.padic(5)
    algebras = [QuaternionAlgebra(F, Fraction(-1), Fraction(-1)),
                QuaternionAlgebra(F, Fraction(2), Fraction(5))]
    for k in range(samples):
        alg = algebras[k % 2]
        n = rng.randint(1, 3)
        X, Y = _random_quat_matrix(rng, alg, n), _random_quat_matrix(rng, alg, n)
        nx = matrix_reduced_norm(X)
        yield ((nx ** 2, matrix_reduced_norm(X * Y)),
               (regular_representation_det(X), nx * matrix_reduced_norm(Y)), None)


def _disc_basis_invariance(rng, samples: int = 20):
    alg = QuaternionAlgebra(LocalField.padic(5), Fraction(2), Fraction(5))
    done = 0
    while done < samples:
        n = rng.randint(1, 2)
        V = HermitianSpace.diagonal(alg, "hermitian",
                                    [rng.choice([1, 2, 5, 10, -1]) for _ in range(n)])
        P = _random_quat_matrix(rng, alg, n, height=2)
        if matrix_reduced_norm(P) != 0:
            moved = HermitianSpace(alg, "hermitian", n, P.conj_transpose() * V.gram * P)
            yield discriminant(moved), discriminant(V), None
            done += 1


def _kottwitz_table(rng):
    F = LocalField.padic(5)
    split = QuaternionAlgebra(F, Fraction(-1), Fraction(-1))  # (-1,-1)_5 = 1
    division = QuaternionAlgebra(F, Fraction(2), Fraction(5))
    for n in range(0, 5):
        for ftype, sign in (("linear", (-1) ** n), ("hermitian", (-1) ** (n * (n + 1) // 2)),
                            ("skew", (-1) ** (n * (n - 1) // 2))):
            yield kottwitz_sign(_space_of_type(split, ftype, n)), 1, None
            yield kottwitz_sign(_space_of_type(division, ftype, n)), sign, None


def _morita(rng):
    alg = QuaternionAlgebra(LocalField.padic(5), Fraction(4), Fraction(3))  # split over Q
    for n in (1, 2):
        lin = morita_natural(_space_of_type(alg, "linear", n))
        yield (lin.form_type, lin.dim), ("zero", 2 * n), None
        herm = morita_natural(_space_of_type(alg, "hermitian", n))
        yield (herm.form_type, herm.dim), ("symplectic", 2 * n), None
        skew = _space_of_type(alg, "skew", n)
        out = morita_natural(skew)
        yield ((out.form_type, out.discriminant() if out.form_type == "symmetric" else None),
               ("symmetric", discriminant(skew)), None)


# ---------------------------------------------------------------------------
# Expressions and Tate's thesis

def _complexified(rng: random.Random, x):
    """x, or one time in four x + k i / 8 with k odd; no x drawn below is an odd
    multiple of 1/8, so a reader that swaps the two parts changes the value."""
    return complex(x, rng.choice([-7, -5, -3, -1, 1, 3, 5, 7]) / 8) if rng.random() < 0.25 else x


def _random_expr(rng: random.Random) -> MeroExpr:
    parts = [MeroExpr.const(_complexified(rng, ExactConst(
        Fraction(rng.randint(1, 5), rng.randint(1, 5)), rng.randint(0, 3),
        frozenset(rng.sample([2, 3, 5], rng.randint(0, 2))))))]
    for _ in range(rng.randint(1, 4)):
        form = LinForm(Fraction(rng.randint(-2, 2)),
                       _complexified(rng, Fraction(rng.randint(-4, 4), 2)))
        kind = rng.randrange(4)
        if kind == 0:
            parts.append(MeroExpr.gamma_r(form))
        elif kind == 1:
            parts.append(MeroExpr.gamma_c(form))
        elif kind == 2:
            parts.append(MeroExpr.l_atom(rng.choice(PRIMES),
                                         _complexified(rng, rng.choice([1, -1])), form))
        else:
            parts.append(MeroExpr.exp(Fraction(rng.randint(2, 5)), form))
        if rng.random() < 0.4:
            parts[-1] = parts[-1].inv()
    return mero_mul(*parts)


def _roundtrip(rng, samples: int = 40):
    for _ in range(samples):
        expr = _random_expr(rng)
        yield ((parse_expr(format_expr(expr)), from_json(to_json(expr)),
                expr.subst(1, Fraction(1)).subst(1, Fraction(-1))), (expr, expr, expr), None)


def _duplication(rng):
    """Legendre: Gamma_R(s) Gamma_R(s + 1) = Gamma_C(s)."""
    yield (mero_mul(MeroExpr.gamma_r(LinForm(Fraction(1), 0)),
                    MeroExpr.gamma_r(LinForm(Fraction(1), 1))),
           MeroExpr.gamma_c(LinForm(Fraction(1), 0)), REAL)


def _char_battery(field: LocalField):
    if field.is_real:
        return [MultCharacter.trivial(field), MultCharacter.sign(field),
                unramified_twist(MultCharacter.sign(field), Fraction(3, 2))]
    return [MultCharacter.trivial(field),
            MultCharacter(field, SquareClass(field, "u")),
            MultCharacter(field, SquareClass(field, "p")),
            MultCharacter(field, SquareClass(field, "up")),
            MultCharacter.norm_power(field, Fraction(2)),
            MultCharacter(field, SquareClass(field, "p"), -1, Fraction(1, 2))]


def _tate_fe(rng):
    """gamma(s, chi, psi) gamma(1-s, chi^{-1}, psi^{-1}) = 1."""
    for F in (LocalField.padic(3), LocalField.padic(5), LocalField.padic(7), REAL):
        psi = AddCharacter.standard(F)
        for chi in _char_battery(F):
            g = tate_gamma(chi, psi)
            gd = tate_gamma(char_inverse(chi), psi.inverse()).subst(-1, 1)
            yield mero_mul(g, gd), MeroExpr.one(), F


def _gauss(rng):
    """g against the literal sum_x (x/p) e^{2 pi i x/p}, which decides its sign;
    eps^2 = chi(-1) and eps(chi, psi) eps(chi^{-1}, psi^{-1}) = 1 at s = 1/2."""
    for p in PRIMES:
        F = LocalField.padic(p)
        psi = AddCharacter.standard(F)
        literal = sum((1 if pow(x, p // 2, p) == 1 else -1) * cmath.exp(2j * cmath.pi * x / p)
                      for x in range(1, p))
        yield literal, gauss_sum(p).to_complex(), None
        for name in ("p", "up"):
            chi = MultCharacter(F, SquareClass(F, name))
            eps = eps_at_half(chi, psi)
            yield eps * eps, char_eval(chi, Fraction(-1)), None
            yield eps * eps_at_half(char_inverse(chi), psi.inverse()), ExactConst.one(), None


def _tate_epsilon_product(rng):
    """Tate's thesis: prod_{v | d oo} eps_v(1/2, chi_{d,v}, psi_v) = 1 for the
    quadratic character chi_d of Q(sqrt d), d squarefree and 1 mod 4, with
    psi_oo = e^{2 pi i x} and psi_l the level-0 e^{+2 pi i {x}_l} rescaled by -1."""
    for d in (-39, -35, -23, -15, -11, -7, -3, 5, 13, 21, 65, 105):
        places = [AddCharacter.standard(REAL)] + [
            AddCharacter.standard(LocalField.padic(l)).rescale(-1) for l in factor_int(abs(d))]
        yield (math.prod((eps_at_half(MultCharacter(psi.field, square_class(psi.field, d)), psi)
                          for psi in places), start=ExactConst.one()), ExactConst.one(), None)


def psi_scaling_values(field: LocalField):
    if field.is_real:
        return [Fraction(-1), Fraction(2)]
    return [Fraction(-1), Fraction(2), Fraction(nonsquare_unit(field)), Fraction(field.p)]


def _tate_psi_scaling(rng):
    """gamma(s, chi, psi_a) = chi(a) |a|^{s-1/2} gamma(s, chi, psi)."""
    for F in (LocalField.padic(3), LocalField.padic(5), REAL):
        psi = AddCharacter.standard(F)
        for chi in _char_battery(F):
            for a in psi_scaling_values(F):
                yield (tate_gamma(chi, psi.rescale(a)),
                       mero_mul(_psi_scale(chi, a), tate_gamma(chi, psi)), F)


# ---------------------------------------------------------------------------
# The representation battery

@per_call
def rep_battery():
    """(rep, omega, field) triples covering the supported table."""
    out = []
    trivR = MultCharacter.trivial(REAL)
    ham = QuaternionAlgebra(REAL, Fraction(-1), Fraction(-1))
    for n in range(0, 3):
        out.append((TrivialRep(sp_space(n)), trivR))
    out.append((TrivialRep(skew_char_space()), trivR))
    out.append((TrivialRep(_space_of_type(ham, "skew", 2)), trivR))
    for l in (0, 1, -1, 3, -3):
        out.append((SkewHermCharR(l), trivR))
        out.append((SkewHermCharR(l), MultCharacter.sign(REAL)))
    for lam in ((1,), (2, 1), (1, 1, 0)):
        out.append((SpHighestWeight(len(lam), lam), trivR))
        out.append((SpHighestWeight(len(lam), lam), MultCharacter.sign(REAL)))
    for p in (3, 5):
        F = LocalField.padic(p)
        triv = MultCharacter.trivial(F)
        chi_u = MultCharacter(F, SquareClass(F, "u"))
        div = QuaternionAlgebra(F, Fraction(nonsquare_unit(F)), Fraction(p))
        spl = QuaternionAlgebra(F, Fraction(-1), Fraction(-1))
        for n in range(0, 5):
            out.append((TrivialRep(_space_of_type(div, "hermitian", n)), triv))
            out.append((TrivialRep(_space_of_type(div, "skew", n)), triv))
        for n in range(0, 3):
            out.append((TrivialRep(_space_of_type(spl, "skew", n)), triv))
        for m in (1, 2):
            for chi in (triv, chi_u, MultCharacter.norm_power(F, 1.3)):
                out.append((GLChar(m, chi), triv))
        out.append((GLChar(1, chi_u), chi_u))
        kern = TrivialRep(_space_of_type(div, "hermitian", 1))
        out.append((Induced((GLChar(1, triv),), kern), triv))
    return tuple(out)


def _functional_equation(rng):
    """gamma(s, pi, omega, psi) gamma(1-s, pi^vee, omega^{-1}, psi^{-1}) = 1."""
    for rep, omega in rep_battery():
        psi = AddCharacter.standard(omega.field)
        g = gamma_factor(rep, omega, psi)
        gd = gamma_factor(rep.dual(), char_inverse(omega), psi.inverse()).subst(-1, 1)
        yield mero_mul(g, gd), MeroExpr.one(), omega.field


def _self_duality(rng):
    for rep, omega in rep_battery():
        psi = AddCharacter.standard(omega.field)
        yield gamma_factor(rep.dual(), omega, psi), gamma_factor(rep, omega, psi), None


def _twisting(rng):
    for rep, omega in rep_battery():
        psi = AddCharacter.standard(omega.field)
        gam = gamma_factor(rep, omega, psi)
        for s0 in (Fraction(2), Fraction(-1, 2)):
            yield gamma_factor(rep, unramified_twist(omega, s0), psi), gam.subst(1, s0), None


def _psi_dependence(rng):
    """gamma(psi_a) = T_N(s, omega, a) gamma(psi), and the c-layer rule
    c(psi_a) T_N = c(psi)."""
    for rep, omega in rep_battery():
        field, space = omega.field, rep.space
        if space.form_type == LINEAR and field.is_real:
            continue
        psi = AddCharacter.standard(field)
        gam = gamma_factor(rep, omega, psi)
        for a in psi_scaling_values(field):
            yield (gamma_factor(rep, omega, psi.rescale(a)),
                   mero_mul(t_factor(space, omega, a), gam), field)
    A = RegularNilpotentData(Fraction(1))
    for field in (LocalField.padic(5), REAL):
        omega = MultCharacter.trivial(field)
        psi = AddCharacter.standard(field)
        alg = QuaternionAlgebra(field, Fraction(-1), Fraction(-1))
        for ftype in ("hermitian", "skew", "linear"):
            space = _space_of_type(alg, ftype, 1)
            for a in psi_scaling_values(field):
                yield (mero_mul(normalization_c(space, omega, A, psi.rescale(a)),
                                t_factor(space, omega, a)),
                       normalization_c(space, omega, A, psi), None)


def _a_independence(rng):
    """gamma_capital(A) * central-sign * R(A) is the same expression for
    different A-data (the A-atoms cancel structurally)."""
    for rep, omega in rep_battery():
        space = rep.space  # a trivial, skew-character or highest-weight datum with n > 0
        if space.form_type == LINEAR or space.hyperbolic or space.n == 0:
            continue
        psi = AddCharacter.standard(omega.field)
        sign = MeroExpr.const(ExactConst.of(rep.central_sign))
        e0, e1, e2 = (mero_mul(gamma_capital(rep, omega, A, psi), sign,
                               correction_R(space, omega, A, psi))
                      for A in map(RegularNilpotentData, (1, 4, Fraction(9, 4))))
        yield (e0, e1), (e1, e2), None


def _root_numbers(rng):
    """eval of the epsilon-factor at the center equals the closed form."""
    real_chars = (MultCharacter.trivial(REAL), MultCharacter.sign(REAL))
    cases = [(SkewHermCharR(l), om) for l in (0, 1, 3) for om in real_chars]
    cases += [(SpHighestWeight(len(lam), lam), om)
              for lam in ((0,), (1,), (2, 1), (1, 1, 0)) for om in real_chars]
    for p in (5, 7):
        F = LocalField.padic(p)
        triv = MultCharacter.trivial(F)
        chi_u = MultCharacter(F, SquareClass(F, "u"))
        div = QuaternionAlgebra(F, Fraction(nonsquare_unit(F)), Fraction(p))
        cases += [(TrivialRep(_space_of_type(div, "hermitian", n)), triv) for n in (1, 2, 3)]
        cases += [(TrivialRep(_space_of_type(div, "skew", n)), triv) for n in (1, 2)]
        kern0 = TrivialRep(HermitianSpace(div, "hermitian", 0))
        skew0 = TrivialRep(HermitianSpace(div, "skew", 0))
        for om in (triv, chi_u):
            cases += [(Induced((GLChar(1, triv),), kern0), om),
                      (Induced((GLChar(1, chi_u),), skew0), om)]
    for rep, omega in cases:
        psi = AddCharacter.standard(omega.field)
        yield (epsilon_factor(rep, omega, psi).subst(0, Fraction(1, 2)).constant_value(),
               root_number(rep.space, rep.central_sign, omega, psi), None)


def _minimal_cases(rng):
    psi, triv = AddCharacter.standard(REAL), MultCharacter.trivial(REAL)
    yield (gamma_factor(TrivialRep(skew_char_space()), triv, psi),
           gamma_factor(SkewHermCharR(0), triv, psi), REAL)
    yield (gamma_factor(TrivialRep(sp_space(1)), triv, psi),
           gamma_factor(SpHighestWeight(1, (0,)), triv, psi), REAL)


def _sp_consistency(rng):
    psi, triv = AddCharacter.standard(REAL), MultCharacter.trivial(REAL)
    for n in (1, 2, 3):
        yield (gamma_factor(TrivialRep(sp_space(n)), triv, psi),
               gamma_factor(SpHighestWeight(n, (0,) * n), triv, psi), REAL)


def _spherical_data(rep: Induced) -> SphericalData:
    """The spherical block of an induced datum: GL_1 blocks |Nrd|^t over a
    TrivialRep kernel, with the form type, ranks and kernel discriminant of
    the datum's space."""
    space = rep.space
    n0 = space.n - 2 * space.hyperbolic
    disc0 = discriminant(space) if space.form_type == SKEW and n0 else None
    return SphericalData(rep.field, space.form_type, space.hyperbolic, n0,
                         tuple(b.chi.t for b in rep.blocks), disc0)


def spherical_battery():
    """(SphericalData, Induced) pairs, the data read off each induced datum."""
    for F in SPHERICAL_FIELDS:
        u = nonsquare_unit(LocalField.padic(F.p))
        div = QuaternionAlgebra(F, Fraction(u), Fraction(F.p))
        for kern in (HermitianSpace(div, "hermitian", 0),
                     HermitianSpace.diagonal(div, "hermitian", [1]),
                     HermitianSpace(div, "skew", 0),
                     HermitianSpace.diagonal(div, "skew", [div.element(0, 1)])):
            for r in (1, 2):
                for t in (Fraction(0), 0.7):
                    rep = Induced((GLChar(1, MultCharacter.norm_power(F, t)),) * r,
                                  TrivialRep(kern))
                    yield _spherical_data(rep), rep


def _spherical(rng):
    for data, rep in spherical_battery():
        F = data.field
        yield (gamma_spherical(data),
               gamma_factor(rep, MultCharacter.trivial(F), AddCharacter.standard(F)), F)
        yield xi_symmetry_holds(data), True, None
    for F in SPHERICAL_FIELDS:  # compact rank one: Z = Vol(C_1), so d^V = L^{V_0}(s + 1/2)
        sz = spherical_zeta(SphericalData(F, "hermitian", 0, 1, ()))
        yield sz.l_product, sz.d_v, F


def _gj(rng):
    for p in (3, 5):
        F = LocalField.padic(p)
        psi = AddCharacter.standard(F)
        om = MultCharacter.norm_power(F, Fraction(3, 10))
        mu = char_mul(om, om)
        for m in (1, 2):
            derived = derive_gj_from_normalization(m, om, psi)
            closed = gj_gamma_norm(m, mu, psi)
            yield derived, closed, None
            yield derive_gj_from_normalization(m, om, psi, probe_norm=Fraction(9, 4)), derived, None
            gd = gj_gamma_norm(m, char_inverse(mu), psi.inverse()).subst(-1, 1)
            yield mero_mul(closed, gd), MeroExpr.one(), F


SUITES = {
    "hilbert": [Check("hilbert-symbol-bilinearity", _hilbert_bilinearity),
                Check("hilbert-symbol-vs-conic-oracle", _hilbert_oracle),
                Check("square-class-modulo-squares", _square_class),
                Check("character-evaluation-homomorphism", _char_algebra)],
    "reduced_norm": [Check("reduced-norm-vs-regular-representation", _reduced_norm),
                     Check("discriminant-basis-invariance", _disc_basis_invariance)],
    "morita": [Check("morita-transfer-types-and-discriminant", _morita),
               Check("kottwitz-sign-table", _kottwitz_table)],
    "mero": [Check("expression-roundtrip", _roundtrip)],
    "duplication": [Check("legendre-duplication", _duplication, 1e-10)],
    "tate": [Check("tate-functional-equation", _tate_fe),
             Check("gauss-sum-epsilon-constants", _gauss, 1e-12),
             Check("tate-psi-rescaling", _tate_psi_scaling),
             Check("tate-epsilon-product", _tate_epsilon_product)],
    "functional_equation": [Check("gamma-functional-equation", _functional_equation)],
    "self_duality": [Check("self-duality", _self_duality),
                     Check("unramified-twisting", _twisting)],
    "psi_dependence": [Check("psi-dependence", _psi_dependence)],
    "a_independence": [Check("A-independence", _a_independence)],
    "root_numbers": [Check("root-numbers-at-center", _root_numbers)],
    "minimal_cases": [Check("minimal-cases-cross-paths", _minimal_cases),
                      Check("compact-hermitian-weight-zero-consistency", _sp_consistency)],
    "spherical": [Check("spherical-gamma-and-zeta", _spherical)],
    "gj": [Check("gj-normalization-derivation", _gj)],
}


@scope()
def run_verify(suite: str = "all", seed: int = 7, corrupt: bool = False) -> Report:
    """Run a suite (or all of them); with corrupt, every check's first
    right-hand side is perturbed, so every check must fail."""
    if suite == "all":
        checks = [check for checks in SUITES.values() for check in checks]
    elif suite in SUITES:
        checks = SUITES[suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{['all'] + sorted(SUITES)}")
    return Report(suite, seed, [check(seed, corrupt) for check in checks])
