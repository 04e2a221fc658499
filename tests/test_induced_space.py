"""The space of an induced datum, H^r + W0 held as a hyperbolic rank,
against the full Gram matrix of the kernel plus r hyperbolic planes."""

from fractions import Fraction

import pytest

from lfactors.characters import AddCharacter, MultCharacter
from lfactors.doubling import (GLChar, Induced, RegularNilpotentData, TrivialRep,
                               correction_R, normalization_c, root_number, t_factor)
from lfactors.fields import LocalField, nonsquare_unit
from lfactors.hermitian import (HermitianSpace, MoritaError, discriminant, kottwitz_sign,
                                morita_natural)
from lfactors.mero import format_expr
from lfactors.quaternion import QuatMatrix, QuaternionAlgebra


def _reference_extend(kernel: HermitianSpace, extra: int) -> HermitianSpace:
    """The kernel's Gram matrix in the middle of `extra` hyperbolic
    dimensions: 1 on the antidiagonal above it and eps below."""
    if extra == 0:
        return kernel
    alg = kernel.algebra
    n = kernel.n + extra
    r = extra // 2
    eps = kernel.eps
    rows = [[alg.element(0)] * n for _ in range(n)]
    for i in range(r):
        rows[i][n - 1 - i] = alg.element(1)
        rows[n - 1 - i][i] = alg.element(eps)
    for i in range(kernel.n):
        for j in range(kernel.n):
            rows[r + i][r + j] = kernel.gram[i, j] if kernel.gram else alg.element(0)
    return HermitianSpace(alg, kernel.form_type, n, QuatMatrix.from_rows(alg, rows))


def _kernels(alg: QuaternionAlgebra):
    p, u = alg.base.p, nonsquare_unit(alg.base)
    i, j = alg.element(0, 1), alg.element(0, 0, 1)
    for ftype, diags in (("hermitian", ([u], [1, p * u])), ("skew", ([i], [j], [i, j]))):
        yield HermitianSpace(alg, ftype, 0)
        for diag in diags:
            yield HermitianSpace.diagonal(alg, ftype, diag)


CASES = [(alg, kernel, blocks)
         for p in (3, 5)
         for alg in (QuaternionAlgebra(LocalField.padic(p), Fraction(-1), Fraction(-1)),
                     QuaternionAlgebra(LocalField.padic(p), Fraction(nonsquare_unit(LocalField.padic(p))),
                                       Fraction(p)))
         for kernel in _kernels(alg)
         for blocks in ((1,), (2, 1), (3,))]


def _texts(rep: Induced, space: HermitianSpace) -> list[str]:
    field = space.field
    omega, psi = MultCharacter.trivial(field), AddCharacter.standard(field)
    A = RegularNilpotentData(Fraction(3))
    a_values = (Fraction(field.p), Fraction(nonsquare_unit(field)))
    return [format_expr(correction_R(space, omega, A, psi)),
            format_expr(normalization_c(space, omega, A, psi.rescale(field.p))),
            *(format_expr(t_factor(space, omega, a)) for a in a_values),
            str(root_number(space, rep.central_sign, omega, psi))]


@pytest.mark.parametrize("alg, kernel, blocks", CASES)
def test_induced_space_matches_the_full_gram_construction(alg, kernel, blocks):
    triv = MultCharacter.trivial(alg.base)
    rep = Induced(tuple(GLChar(m, triv) for m in blocks), TrivialRep(kernel))
    new, old = rep.space, _reference_extend(kernel, 2 * sum(blocks))
    assert new.hyperbolic == sum(blocks) and new.gram == kernel.gram
    assert (new.n, new.form_type) == (old.n, old.form_type)
    assert discriminant(new) == discriminant(old) == discriminant(kernel)
    assert kottwitz_sign(new) == kottwitz_sign(old)
    assert _texts(rep, new) == _texts(rep, old)


def test_the_cases_reach_every_discriminant_and_kottwitz_sign():
    """A fault that only one square class or one sign shows cannot hide from
    the cases above (a hermitian discriminant is (-1)^n times a square)."""
    discs, signs = set(), set()
    for alg, kernel, blocks in CASES:
        space = _reference_extend(kernel, 2 * sum(blocks))
        discs.add((alg.base.p, space.form_type, discriminant(space).name))
        signs.add((space.form_type, kottwitz_sign(space)))
    for p in (3, 5):
        assert {name for q, ftype, name in discs if (q, ftype) == (p, "skew")} == {"1", "u", "p", "up"}
    assert {name for q, ftype, name in discs if (q, ftype) == (3, "hermitian")} == {"1", "u"}
    assert signs == {(ftype, sign) for ftype in ("hermitian", "skew") for sign in (1, -1)}


def test_hyperbolic_rank_is_validated():
    alg = QuaternionAlgebra(LocalField.padic(5), Fraction(-1), Fraction(-1))
    kernel = HermitianSpace.diagonal(alg, "hermitian", [1])
    rational = QuaternionAlgebra(LocalField.padic(5), Fraction(1), Fraction(-1))  # split over Q
    with pytest.raises(MoritaError):  # the planes are a count, not Gram matrix rows
        morita_natural(HermitianSpace(rational, "hermitian", 2, None, hyperbolic=1))
    with pytest.raises(ValueError):
        HermitianSpace(alg, "hermitian", 4, kernel.gram, hyperbolic=1)  # 2 kernel rows, gram 1
    with pytest.raises(ValueError):
        HermitianSpace(alg, "hermitian", 1, None, hyperbolic=1)  # 2r > n
    with pytest.raises(ValueError):
        HermitianSpace(alg, "linear", 2, None, hyperbolic=1)
