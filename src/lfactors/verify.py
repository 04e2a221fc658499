"""Seeded identity-verification suites.

Every invariant of the package is an executable check: Hilbert-symbol
bilinearity against a brute-force conic oracle, reduced norms against
regular-representation determinants, Gauss-sum properties, functional
equations, self-duality, twisting, psi-dependence, root numbers, the
minimal-case and spherical cross-checks.  Checks are pure and seeded;
a report collects name, sample count, worst error and pass/fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .characters import (AddCharacter, MultCharacter, char_eval, char_inverse,
                         char_mul, unramified_twist)
from .doubling import (GLChar, Induced, RegularNilpotentData, SkewHermCharR,
                       SpHighestWeight, TrivialRep, central_sign, dual_rep,
                       epsilon_factor, gamma_capital, gamma_factor,
                       normalization_c, rep_space, root_number, skew_char_space,
                       sp_space, t_factor, derive_gj_from_normalization)
from .exactconst import ExactConst
from .fields import (LocalField, SquareClass, hilbert_symbol, nonsquare_unit,
                     square_class, unit_part, valuation)
from .gj import gj_gamma_norm
from .hermitian import (HermitianSpace, discriminant, kottwitz_sign,
                        morita_natural)
from .mero import (LinForm, MeroExpr, UnsupportedExpressionError, equals_numeric,
                   format_expr, from_json, max_rel_error, mero_mul, parse_expr,
                   to_json)
from .quaternion import (QuatMatrix, QuaternionAlgebra, matrix_reduced_norm,
                         regular_representation_det)
from .ratfunc import as_rational_in_X
from .spherical import (SphericalData, gamma_spherical, resolve_hermitian_m,
                        xi_symmetry_holds)
from .tate import eps_at_half, gauss_sum, tate_gamma

PRIMES = (3, 5, 7, 11)


@dataclass
class CheckResult:
    name: str
    passed: bool
    samples: int
    max_error: float
    detail: str = ""

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "samples": self.samples,
                "max_error": self.max_error, "detail": self.detail}


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
            yield (f"[{status}] {r.name}: {r.samples} samples, "
                   f"max err {r.max_error:.2e}" + (f" ({r.detail})" if r.detail else ""))


def _random_rational(rng: random.Random, height: int = 30) -> Fraction:
    num = rng.randint(-height, height) or 1
    return Fraction(num, rng.randint(1, height))


# ---------------------------------------------------------------------------
# Brute-force oracles

def conic_solvable_oracle(p: int, a: Fraction, b: Fraction) -> bool:
    """Whether z^2 = a x^2 + b y^2 has a nontrivial Q_p-point, by exhaustive
    search modulo p^3 after normalizing valuations to {0, 1}.  A primitive
    (x, y) has a unit coordinate; dividing (x, y, z) by it keeps solutions,
    squares and primitivity, so a solution exists iff a + b y^2 is a square
    for some y, or a x^2 + b for some x = 0 mod p: p^3 + p^2 values."""
    mod = p ** 3
    F = LocalField.padic(p)

    def normalize(v: Fraction) -> int:
        u = unit_part(F, v)
        return u.numerator * pow(u.denominator, -1, mod) * p ** (valuation(F, v) % 2) % mod

    an, bn = normalize(a), normalize(b)
    squares = {z * z % mod for z in range(mod)}
    return (any((an + bn * y * y) % mod in squares for y in range(mod))
            or any((an * x * x + bn) % mod in squares for x in range(0, mod, p)))


def check_hilbert_oracle(seed: int, pairs_per_prime: int = 50) -> CheckResult:
    rng = random.Random(seed)
    bad = 0
    for p in PRIMES:
        F = LocalField.padic(p)
        for _ in range(pairs_per_prime):
            a, b = _random_rational(rng), _random_rational(rng)
            bad += conic_solvable_oracle(p, a, b) != (hilbert_symbol(F, a, b) == 1)
    return CheckResult("hilbert-symbol-vs-conic-oracle", bad == 0,
                       len(PRIMES) * pairs_per_prime, float(bad))


def check_hilbert_bilinearity(seed: int, samples: int = 200) -> CheckResult:
    rng = random.Random(seed)
    fields = [LocalField.real()] + [LocalField.padic(p) for p in PRIMES]
    bad = 0
    for _ in range(samples):
        F = rng.choice(fields)
        a, b, c = (_random_rational(rng) for _ in range(3))
        bad += hilbert_symbol(F, a, b) != hilbert_symbol(F, b, a)
        bad += hilbert_symbol(F, a, b * c) != hilbert_symbol(F, a, b) * hilbert_symbol(F, a, c)
        bad += hilbert_symbol(F, a, -a) != 1
    return CheckResult("hilbert-symbol-bilinearity", bad == 0, samples, float(bad))


def check_square_class(seed: int, samples: int = 200) -> CheckResult:
    rng = random.Random(seed)
    fields = [LocalField.real()] + [LocalField.padic(p) for p in PRIMES]
    bad = 0
    for _ in range(samples):
        F = rng.choice(fields)
        x, y = _random_rational(rng), _random_rational(rng)
        bad += square_class(F, x * y * y) != square_class(F, x)
    return CheckResult("square-class-modulo-squares", bad == 0, samples, float(bad))


def check_char_algebra(seed: int, samples: int = 60) -> CheckResult:
    rng = random.Random(seed)
    worst = 0.0
    n = 0
    for _ in range(samples):
        p = rng.choice(PRIMES)
        F = LocalField.padic(p)
        classes = ["1", "u", "p", "up"]
        chi1 = MultCharacter(F, SquareClass(F, rng.choice(classes)),
                             rng.choice([1, -1]), Fraction(rng.randint(-2, 2)))
        chi2 = MultCharacter(F, SquareClass(F, rng.choice(classes)),
                             rng.choice([1, -1]), Fraction(rng.randint(-2, 2)))
        x = _random_rational(rng)
        lhs = complex(char_eval(char_mul(chi1, chi2), x))
        rhs = complex(char_eval(chi1, x)) * complex(char_eval(chi2, x))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        n += 1
    return CheckResult("character-evaluation-homomorphism", worst < 1e-12, n, worst)


def _random_quat_matrix(rng, alg, n, height=4) -> QuatMatrix:
    rows = [[alg.element(*(Fraction(rng.randint(-height, height)) for _ in range(4)))
             for _ in range(n)] for _ in range(n)]
    return QuatMatrix.from_rows(alg, rows)


def check_reduced_norm(seed: int, samples: int = 100) -> CheckResult:
    rng = random.Random(seed)
    field = LocalField.padic(5)
    algebras = [QuaternionAlgebra(field, Fraction(-1), Fraction(-1)),
                QuaternionAlgebra(field, Fraction(2), Fraction(5))]
    bad = 0
    for k in range(samples):
        alg = algebras[k % 2]
        n = rng.randint(1, 3)
        X = _random_quat_matrix(rng, alg, n)
        nx = matrix_reduced_norm(X)
        if nx ** 2 != regular_representation_det(X):
            bad += 1
        Y = _random_quat_matrix(rng, alg, n)
        if matrix_reduced_norm(X * Y) != nx * matrix_reduced_norm(Y):
            bad += 1
    return CheckResult("reduced-norm-vs-regular-representation", bad == 0, samples, float(bad))


def check_disc_basis_invariance(seed: int, samples: int = 20) -> CheckResult:
    rng = random.Random(seed)
    field = LocalField.padic(5)
    alg = QuaternionAlgebra(field, Fraction(2), Fraction(5))
    bad = 0
    done = 0
    while done < samples:
        n = rng.randint(1, 2)
        diag = [rng.choice([1, 2, 5, 10, -1]) for _ in range(n)]
        V = HermitianSpace.diagonal(alg, "hermitian", diag)
        P = _random_quat_matrix(rng, alg, n, height=2)
        if matrix_reduced_norm(P) == 0:
            continue
        moved = P.conj_transpose() * V.gram * P
        V2 = HermitianSpace(alg, "hermitian", n, moved)
        if discriminant(V2) != discriminant(V):
            bad += 1
        done += 1
    return CheckResult("discriminant-basis-invariance", bad == 0, samples, float(bad))


def check_kottwitz_table(seed: int) -> CheckResult:
    field = LocalField.padic(5)
    split = QuaternionAlgebra(field, Fraction(-1), Fraction(-1))  # (-1,-1)_5 = 1
    division = QuaternionAlgebra(field, Fraction(2), Fraction(5))
    bad = 0
    total = 0
    for n in range(0, 5):
        for ftype in ("linear", "hermitian", "skew"):
            for alg, is_split in ((split, True), (division, False)):
                total += 1
                space = _space_of_type(alg, ftype, n)
                got = kottwitz_sign(space)
                if is_split:
                    want = 1
                elif ftype == "linear":
                    want = (-1) ** n
                elif ftype == "skew":
                    want = (-1) ** (n * (n - 1) // 2)
                else:
                    want = (-1) ** (n * (n + 1) // 2)
                if got != want:
                    bad += 1
    return CheckResult("kottwitz-sign-table", bad == 0, total, float(bad))


def _space_of_type(alg, ftype, n) -> HermitianSpace:
    if ftype == "linear":
        return HermitianSpace.linear(alg, n)
    if ftype == "hermitian":
        return HermitianSpace.diagonal(alg, "hermitian", [1] * n)
    return HermitianSpace.diagonal(alg, "skew", [alg.element(0, 1)] * n)


def check_morita(seed: int) -> CheckResult:
    field = LocalField.padic(5)
    alg = QuaternionAlgebra(field, Fraction(4), Fraction(3))  # split over Q
    bad = 0
    total = 0
    for n in (1, 2):
        lin = morita_natural(HermitianSpace.linear(alg, n))
        total += 1
        if lin.form_type != "zero" or lin.dim != 2 * n:
            bad += 1
        herm = morita_natural(HermitianSpace.diagonal(alg, "hermitian", [1] * n))
        total += 1
        if herm.form_type != "symplectic" or herm.dim != 2 * n:
            bad += 1
        skew = HermitianSpace.diagonal(alg, "skew", [alg.element(0, 1)] * n)
        out = morita_natural(skew)
        total += 1
        if out.form_type != "symmetric" or out.discriminant() != discriminant(skew):
            bad += 1
    return CheckResult("morita-transfer-types-and-discriminant", bad == 0, total, float(bad))


def check_mero_roundtrip(seed: int, samples: int = 40) -> CheckResult:
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        expr = _random_expr(rng)
        if parse_expr(format_expr(expr)) != expr:
            bad += 1
        if from_json(to_json(expr)) != expr:
            bad += 1
        there = expr.subst(1, Fraction(1)).subst(1, Fraction(-1))
        if there != expr:
            bad += 1
    return CheckResult("expression-roundtrip", bad == 0, samples, float(bad))


def _random_expr(rng: random.Random) -> MeroExpr:
    parts = [MeroExpr.const(ExactConst(Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                                       rng.randint(0, 3),
                                       frozenset(rng.sample([2, 3, 5], rng.randint(0, 2)))))]
    for _ in range(rng.randint(1, 4)):
        form = LinForm(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-4, 4), 2))
        kind = rng.randrange(4)
        if kind == 0:
            parts.append(MeroExpr.gamma_r(form))
        elif kind == 1:
            parts.append(MeroExpr.gamma_c(form))
        elif kind == 2:
            parts.append(MeroExpr.l_atom(rng.choice(PRIMES), rng.choice([1, -1]), form))
        else:
            parts.append(MeroExpr.exp(Fraction(rng.randint(2, 5)), form))
        if rng.random() < 0.4:
            parts[-1] = parts[-1].inv()
    return mero_mul(*parts)


def check_duplication(seed: int, corrupt: bool = False) -> CheckResult:
    lhs = mero_mul(MeroExpr.gamma_r(LinForm(Fraction(1), 0)),
                   MeroExpr.gamma_r(LinForm(Fraction(1), 1)))
    rhs = MeroExpr.gamma_c(LinForm(Fraction(1), 0))
    if corrupt:
        rhs = rhs * MeroExpr.const(ExactConst(Fraction(1000001, 1000000)))
    err = max_rel_error(lhs, rhs, samples=24, seed=seed)
    return CheckResult("legendre-duplication", err < 1e-10, 24, err)


def _char_battery(field: LocalField):
    if field.is_real:
        return [MultCharacter.trivial(field), MultCharacter.sign(field),
                unramified_twist(MultCharacter.sign(field), Fraction(3, 2))]
    out = [MultCharacter.trivial(field),
           MultCharacter(field, SquareClass(field, "u")),
           MultCharacter(field, SquareClass(field, "p")),
           MultCharacter(field, SquareClass(field, "up")),
           MultCharacter.norm_power(field, Fraction(2)),
           MultCharacter(field, SquareClass(field, "p"), -1, Fraction(1, 2))]
    return out


def check_tate_fe(seed: int) -> CheckResult:
    """gamma(s, chi, psi) gamma(1-s, chi^{-1}, psi^{-1}) = 1, exactly in X."""
    bad = 0
    total = 0
    worst = 0.0
    for p in (3, 5, 7):
        F = LocalField.padic(p)
        psi = AddCharacter.standard(F)
        for chi in _char_battery(F):
            total += 1
            g = tate_gamma(chi, psi)
            gd = tate_gamma(char_inverse(chi), psi.inverse()).subst(-1, 1)
            if not as_rational_in_X(mero_mul(g, gd), F.q).is_one:
                bad += 1
    R = LocalField.real()
    psiR = AddCharacter.standard(R)
    for chi in _char_battery(R):
        total += 1
        g = tate_gamma(chi, psiR)
        gd = tate_gamma(char_inverse(chi), psiR.inverse()).subst(-1, 1)
        worst = max(worst, max_rel_error(mero_mul(g, gd), MeroExpr.one(), seed=seed))
    passed = bad == 0 and worst < 1e-9
    return CheckResult("tate-functional-equation", passed, total, max(worst, float(bad)))


def check_gauss(seed: int) -> CheckResult:
    bad = 0
    total = 0
    for p in PRIMES:
        F = LocalField.padic(p)
        psi = AddCharacter.standard(F)
        g = gauss_sum(p)
        total += 1
        val = g.to_complex()
        if abs(abs(val) - p ** 0.5) > 1e-9:
            bad += 1
        for name in ("p", "up"):
            chi = MultCharacter(F, SquareClass(F, name))
            eps = eps_at_half(chi, psi)
            epsv = complex(eps)
            total += 1
            if abs(abs(epsv) - 1) > 1e-12:
                bad += 1
            chim1 = complex(char_eval(chi, Fraction(-1)))
            total += 1
            if abs(epsv * epsv - chim1) > 1e-12:
                bad += 1
    return CheckResult("gauss-sum-epsilon-constants", bad == 0, total, float(bad))


def psi_scaling_values(field: LocalField):
    if field.is_real:
        return [Fraction(-1), Fraction(2)]
    return [Fraction(-1), Fraction(2), Fraction(nonsquare_unit(field)), Fraction(field.p)]


def check_tate_psi_scaling(seed: int) -> CheckResult:
    """gamma(s, chi, psi_a) = chi(a) |a|^{s-1/2} gamma(s, chi, psi)."""
    bad = 0
    total = 0
    worst = 0.0
    for F in (LocalField.padic(3), LocalField.padic(5), LocalField.real()):
        psi = AddCharacter.standard(F)
        for chi in _char_battery(F):
            for a in psi_scaling_values(F):
                total += 1
                lhs = tate_gamma(chi, psi.rescale(a))
                from .tate import _psi_scale
                rhs = mero_mul(_psi_scale(chi, Fraction(a)), tate_gamma(chi, psi))
                if F.is_real:
                    worst = max(worst, max_rel_error(lhs, rhs, seed=seed))
                elif not as_rational_in_X(mero_mul(lhs, rhs.inv()), F.q).is_one:
                    bad += 1
    passed = bad == 0 and worst < 1e-9
    return CheckResult("tate-psi-rescaling", passed, total, max(worst, float(bad)))


# ---------------------------------------------------------------------------
# The representation battery

def rep_battery():
    """(rep, omega, field) triples covering the supported table."""
    out = []
    R = LocalField.real()
    trivR = MultCharacter.trivial(R)
    ham = QuaternionAlgebra(R, Fraction(-1), Fraction(-1))
    for n in range(0, 3):
        out.append((TrivialRep(sp_space(n)), trivR))
    out.append((TrivialRep(skew_char_space()), trivR))
    out.append((TrivialRep(_space_of_type(ham, "skew", 2)), trivR))
    for l in (0, 1, -1, 3, -3):
        out.append((SkewHermCharR(l), trivR))
        out.append((SkewHermCharR(l), MultCharacter.sign(R)))
    for lam in ((1,), (2, 1), (1, 1, 0)):
        out.append((SpHighestWeight(len(lam), lam), trivR))
        out.append((SpHighestWeight(len(lam), lam), MultCharacter.sign(R)))
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
    return out


def _fe_product(rep, omega, psi) -> MeroExpr:
    g = gamma_factor(rep, omega, psi)
    gd = gamma_factor(dual_rep(rep), char_inverse(omega), psi.inverse()).subst(-1, 1)
    return mero_mul(g, gd)


def check_functional_equation(seed: int) -> CheckResult:
    bad = 0
    worst = 0.0
    total = 0
    for rep, omega in rep_battery():
        field = omega.field
        psi = AddCharacter.standard(field)
        total += 1
        prod = _fe_product(rep, omega, psi)
        if field.is_real:
            worst = max(worst, max_rel_error(prod, MeroExpr.one(), seed=seed))
        else:
            try:
                if not as_rational_in_X(prod, field.q).is_one:
                    bad += 1
            except UnsupportedExpressionError:
                if not equals_numeric(prod, MeroExpr.one(), seed=seed):
                    bad += 1
    passed = bad == 0 and worst < 1e-9
    return CheckResult("gamma-functional-equation", passed, total, max(worst, float(bad)))


def check_self_duality(seed: int) -> CheckResult:
    bad = 0
    total = 0
    for rep, omega in rep_battery():
        psi = AddCharacter.standard(omega.field)
        total += 1
        if gamma_factor(dual_rep(rep), omega, psi) != gamma_factor(rep, omega, psi):
            bad += 1
    return CheckResult("self-duality", bad == 0, total, float(bad))


def check_twisting(seed: int) -> CheckResult:
    bad = 0
    total = 0
    for rep, omega in rep_battery():
        psi = AddCharacter.standard(omega.field)
        gam = gamma_factor(rep, omega, psi)
        for s0 in (Fraction(2), Fraction(-1, 2)):
            total += 1
            lhs = gamma_factor(rep, unramified_twist(omega, s0), psi)
            rhs = gam.subst(1, s0)
            if lhs != rhs:
                bad += 1
    return CheckResult("unramified-twisting", bad == 0, total, float(bad))


def check_psi_dependence(seed: int) -> CheckResult:
    """gamma(psi_a) = T_N(s, omega, a) gamma(psi), and the c-layer rule."""
    bad = 0
    worst = 0.0
    total = 0
    for rep, omega in rep_battery():
        field = omega.field
        if isinstance(rep, GLChar) and field.is_real:
            continue
        psi = AddCharacter.standard(field)
        space = rep_space(rep)
        gam = gamma_factor(rep, omega, psi)
        for a in psi_scaling_values(field):
            total += 1
            lhs = gamma_factor(rep, omega, psi.rescale(a))
            rhs = mero_mul(t_factor(space, omega, a), gam)
            if field.is_real:
                worst = max(worst, max_rel_error(lhs, rhs, seed=seed))
            else:
                try:
                    if not as_rational_in_X(mero_mul(lhs, rhs.inv()), field.q).is_one:
                        bad += 1
                except UnsupportedExpressionError:
                    if not equals_numeric(lhs, rhs, seed=seed):
                        bad += 1
    # normalizing-constant rule c(psi_a) T_N = c(psi)
    for field in (LocalField.padic(5), LocalField.real()):
        omega = MultCharacter.trivial(field)
        psi = AddCharacter.standard(field)
        alg = QuaternionAlgebra(field, Fraction(-1), Fraction(-1))
        for space in (_space_of_type(alg, "hermitian", 1), _space_of_type(alg, "skew", 1),
                      HermitianSpace.linear(alg, 1)):
            A = RegularNilpotentData(Fraction(1))
            for a in psi_scaling_values(field):
                total += 1
                lhs = mero_mul(normalization_c(space, omega, A, psi.rescale(a)),
                               t_factor(space, omega, a))
                rhs = normalization_c(space, omega, A, psi)
                if lhs != rhs:
                    bad += 1
    passed = bad == 0 and worst < 1e-9
    return CheckResult("psi-dependence", passed, total, max(worst, float(bad)))


def check_a_independence(seed: int) -> CheckResult:
    """gamma_capital(A) * central-sign * R(A) is the same expression for
    different A-data (the A-atoms cancel structurally)."""
    from .doubling import correction_R
    bad = 0
    total = 0
    for rep, omega in rep_battery():
        if isinstance(rep, (GLChar, Induced)):
            continue
        field = omega.field
        psi = AddCharacter.standard(field)
        space = rep_space(rep)
        if space.n == 0:
            continue
        exprs = []
        for x in (Fraction(1), Fraction(4), Fraction(9, 4)):
            A = RegularNilpotentData(x)
            g = gamma_capital(rep, omega, A, psi, space)
            sign = MeroExpr.const(ExactConst.of(central_sign(rep)))
            exprs.append(mero_mul(g, sign, correction_R(space, omega, A, psi)))
        total += 1
        if not (exprs[0] == exprs[1] == exprs[2]):
            bad += 1
    return CheckResult("A-independence", bad == 0, total, float(bad))


def check_root_numbers(seed: int) -> CheckResult:
    """eval of the epsilon-factor at the center equals the closed form."""
    bad = 0
    total = 0
    worst = 0.0
    cases = []
    R = LocalField.real()
    trivR = MultCharacter.trivial(R)
    sgn = MultCharacter.sign(R)
    for l in (0, 1, 3):
        for om in (trivR, sgn):
            cases.append((SkewHermCharR(l), om))
    for lam in ((0,), (1,), (2, 1), (1, 1, 0)):
        for om in (trivR, sgn):
            cases.append((SpHighestWeight(len(lam), lam), om))
    for p in (5, 7):
        F = LocalField.padic(p)
        triv = MultCharacter.trivial(F)
        chi_u = MultCharacter(F, SquareClass(F, "u"))
        div = QuaternionAlgebra(F, Fraction(nonsquare_unit(F)), Fraction(p))
        for n in (1, 2, 3):
            cases.append((TrivialRep(_space_of_type(div, "hermitian", n)), triv))
        for n in (1, 2):
            cases.append((TrivialRep(_space_of_type(div, "skew", n)), triv))
        for om in (triv, chi_u):
            kern0 = TrivialRep(HermitianSpace(div, "hermitian", 0))
            cases.append((Induced((GLChar(1, triv),), kern0), om))
            skew0 = TrivialRep(HermitianSpace(div, "skew", 0))
            cases.append((Induced((GLChar(1, chi_u),), skew0), om))
    for rep, omega in cases:
        field = omega.field
        psi = AddCharacter.standard(field)
        space = rep_space(rep)
        total += 1
        closed = root_number(space, central_sign(rep), omega, psi)
        closed_v = complex(closed)
        machinery = epsilon_factor(rep, omega, psi).subst(0, Fraction(1, 2)).eval(0)
        err = abs(machinery - closed_v)
        worst = max(worst, err)
        if err > 1e-9:
            bad += 1
    return CheckResult("root-numbers-at-center", bad == 0 and worst < 1e-9, total, worst)


def check_minimal_cases(seed: int) -> CheckResult:
    R = LocalField.real()
    psi = AddCharacter.standard(R)
    triv = MultCharacter.trivial(R)
    e1 = max_rel_error(gamma_factor(TrivialRep(skew_char_space()), triv, psi),
                       gamma_factor(SkewHermCharR(0), triv, psi), seed=seed)
    e2 = max_rel_error(gamma_factor(TrivialRep(sp_space(1)), triv, psi),
                       gamma_factor(SpHighestWeight(1, (0,)), triv, psi), seed=seed)
    worst = max(e1, e2)
    return CheckResult("minimal-cases-cross-paths", worst < 1e-9, 48, worst)


def check_sp_consistency(seed: int) -> CheckResult:
    R = LocalField.real()
    psi = AddCharacter.standard(R)
    triv = MultCharacter.trivial(R)
    worst = 0.0
    for n in (1, 2, 3):
        worst = max(worst, max_rel_error(
            gamma_factor(TrivialRep(sp_space(n)), triv, psi),
            gamma_factor(SpHighestWeight(n, (0,) * n), triv, psi), seed=seed))
    return CheckResult("compact-hermitian-weight-zero-consistency", worst < 1e-9, 72, worst)


def spherical_battery():
    for p, f in ((3, 1), (5, 1), (3, 2)):
        F = LocalField.padic(p, f)
        u = nonsquare_unit(LocalField.padic(p))
        div = QuaternionAlgebra(F, Fraction(u), Fraction(p))
        kern_h = HermitianSpace.diagonal(div, "hermitian", [1])
        kern_s = HermitianSpace.diagonal(div, "skew", [div.element(0, 1)])
        for ftype, n0, kern in (("hermitian", 0, None), ("hermitian", 1, kern_h),
                                ("skew", 0, None), ("skew", 1, kern_s)):
            for r in (1, 2):
                for t in (Fraction(0), 0.7):
                    disc0 = discriminant(kern) if (ftype == "skew" and n0) else None
                    data = SphericalData(F, ftype, r, n0, tuple([t] * r), disc0)
                    kspace = kern if kern is not None else HermitianSpace(div, ftype, 0)
                    yield data, kspace


def check_spherical(seed: int) -> CheckResult:
    bad = 0
    total = 0
    for data, kspace in spherical_battery():
        F = data.field
        psi = AddCharacter.standard(F)
        triv = MultCharacter.trivial(F)
        blocks = tuple(GLChar(1, MultCharacter.norm_power(F, t)) for t in data.exponents)
        rep = Induced(blocks, TrivialRep(kspace))
        total += 1
        ratio = mero_mul(gamma_spherical(data), gamma_factor(rep, triv, psi).inv())
        try:
            ok = as_rational_in_X(ratio, F.q).is_one
        except UnsupportedExpressionError:
            ok = equals_numeric(ratio, MeroExpr.one(), seed=seed)
        if not ok:
            bad += 1
        total += 1
        if not xi_symmetry_holds(data):
            bad += 1
    for q in (3, 5, 9):
        total += 1
        if resolve_hermitian_m(q) != 0:
            bad += 1
    return CheckResult("spherical-gamma-and-zeta", bad == 0, total, float(bad))


def check_gj(seed: int) -> CheckResult:
    bad = 0
    total = 0
    for p in (3, 5):
        F = LocalField.padic(p)
        psi = AddCharacter.standard(F)
        for m in (1, 2):
            om = MultCharacter.norm_power(F, Fraction(3, 10))
            derived = derive_gj_from_normalization(m, om, psi)
            closed = gj_gamma_norm(m, char_mul(om, om), psi)
            total += 1
            if derived != closed:
                bad += 1
            total += 1
            if derive_gj_from_normalization(m, om, psi, probe_norm=Fraction(9, 4)) != derived:
                bad += 1
            mu = char_mul(om, om)
            g = gj_gamma_norm(m, mu, psi)
            gd = gj_gamma_norm(m, char_inverse(mu), psi.inverse()).subst(-1, 1)
            total += 1
            if not as_rational_in_X(mero_mul(g, gd), F.q).is_one:
                bad += 1
    return CheckResult("gj-normalization-derivation", bad == 0, total, float(bad))


SUITES = {
    "hilbert": [check_hilbert_bilinearity, check_hilbert_oracle, check_square_class,
                check_char_algebra],
    "reduced_norm": [check_reduced_norm, check_disc_basis_invariance],
    "morita": [check_morita, check_kottwitz_table],
    "mero": [check_mero_roundtrip],
    "duplication": [check_duplication],
    "tate": [check_tate_fe, check_gauss, check_tate_psi_scaling],
    "functional_equation": [check_functional_equation],
    "self_duality": [check_self_duality, check_twisting],
    "psi_dependence": [check_psi_dependence],
    "a_independence": [check_a_independence],
    "root_numbers": [check_root_numbers],
    "minimal_cases": [check_minimal_cases, check_sp_consistency],
    "spherical": [check_spherical],
    "gj": [check_gj],
}


def run_verify(suite: str = "all", seed: int = 7, corrupt: bool = False) -> Report:
    if suite == "all":
        checks = [fn for fns in SUITES.values() for fn in fns]
    elif suite in SUITES:
        checks = SUITES[suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{['all'] + sorted(SUITES)}")
    report = Report(suite, seed)
    for fn in checks:
        if corrupt and fn is check_duplication:
            report.results.append(check_duplication(seed, corrupt=True))
        else:
            report.results.append(fn(seed))
    return report
