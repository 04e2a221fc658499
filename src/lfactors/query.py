"""JSON query documents and their evaluation.

A query names a field, an algebra, a space (or linear block size), a
representation, omega, a psi scale, and the requested outputs.  Results
carry the canonical text, the JSON atom tree, an exact rational-function
form when the data is purely nonarchimedean, numeric values at requested
points, and a metadata block recording the conventions in force.

Numbers in documents: rationals are strings ("3/4"), complex numbers are
[re, im] pairs.
"""

from __future__ import annotations

import cmath
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from . import mero
from .characters import AddCharacter, MultCharacter
from .doubling import (GLChar, Induced, RegularNilpotentData, RepDatum,
                       SkewHermCharR, SpHighestWeight, TrivialRep, correction_R,
                       epsilon_factor, gamma_factor, l_factor, normalization_c,
                       root_number, t_factor)
from .fields import LocalField, SquareClass, UnsupportedFieldError
from .hermitian import HermitianSpace
from .memo import scope
from .mero import MeroExpr, UnsupportedExpressionError, format_expr
from .quaternion import QuatMatrix, QuaternionAlgebra
from .ratfunc import as_rational_in_X
from .scalars import is_exact
from .spherical import SphericalData, gamma_spherical, spherical_zeta

SCHEMA_VERSION = 1

KNOWN_OUTPUTS = ("gamma", "L", "epsilon", "root_number", "R", "c", "T", "spherical")
_NUMBER = (int, float)  # the types json gives a number; a bool is not one
# Bounds on integer inputs: beyond them a query runs for seconds to minutes or
# fails deep inside (primality by trial division, ever longer exact coefficients).
MAX_P = 10 ** 6 - 1
MAX_Q = 10 ** 1000  # q = p^f must be below this, which bounds the exact powers of q a query spells
MAX_BLOCK = 32  # the GL block size m of a gl_char or of an induced block
MAX_DIM = 32  # rows of a diag or gram and the n of a highest weight
MAX_WEIGHT = 1000  # |l| of a skew_char and each lambda_j, as for an exponent t
MAX_WITT_RANK = 100  # spherical.r


class QueryValidationError(ValueError):
    """Malformed or inconsistent query document."""


@contextmanager
def _reading(what: str, errors):
    """Report the given errors as a QueryValidationError under `what`; one
    raised inside passes through as it is."""
    try:
        yield
    except QueryValidationError:
        raise
    except errors as exc:
        raise QueryValidationError(f"{what}: {exc}") from exc


def _rational(v, what: str) -> Fraction:
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError) as exc:
        raise QueryValidationError(f"{what}: not a rational: {v!r}") from exc


def _int(v, what: str, most: int | None = None) -> int:
    """An int or an integer string, of size at most `most` when that is given; a
    float (even a whole or non-finite one) or a bool is refused rather than truncated."""
    try:
        n = int(v) if type(v) in (str, int) else None
    except ValueError:
        n = None
    if n is None:
        raise QueryValidationError(f"{what}: expected an integer, got {v!r}")
    if most is not None and abs(n) > most:
        bound = f"at most {most}" if n > 0 else f"at least {-most}"
        raise QueryValidationError(f"{what}: must be {bound}, got {n}")
    return n


def _complex(v, what: str):
    if isinstance(v, (str, int)):
        c = _rational(v, what)
    else:
        try:
            pair = isinstance(v, list) and len(v) == 2
            c = complex(float(v[0]), float(v[1])) if pair else complex(v)
        except (TypeError, ValueError, OverflowError) as exc:
            raise QueryValidationError(
                f"{what}: expected rational string or [re, im], got {v!r}") from exc
    try:
        finite = cmath.isfinite(complex(c))
    except OverflowError:  # a rational beyond the float range
        finite = False
    if not finite:
        raise QueryValidationError(f"{what}: must be finite, got {v!r}")
    if isinstance(v, list) and c.imag == 0 and c.real.is_integer():
        return Fraction(int(c.real))
    return c


def _exponent(v, what: str):
    """An exponent t of |.|^t, bounded: with q^t exact, t = 10^5 takes over 10 s."""
    t = _complex(v, what)
    if max(abs(complex(t).real), abs(complex(t).imag)) > 1000:
        raise QueryValidationError(f"{what}: |Re| and |Im| must be at most 1000, got {v!r}")
    return t


def _list(v, what: str, most: int | None = None) -> list:
    """A list, of at most `most` entries when that is given."""
    if not isinstance(v, list):
        raise QueryValidationError(f"{what}: expected a list, got {v!r}")
    if most is not None and len(v) > most:
        raise QueryValidationError(f"{what}: at most {most} entries, got {len(v)}")
    return v


def parse_field(doc, what: str = "field") -> LocalField:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise QueryValidationError(f"{what}: expected an object with 'kind'")
    with _reading(what, (UnsupportedFieldError, KeyError, ValueError)):
        if doc["kind"] == "real":
            return LocalField.real()
        if doc["kind"] == "nonarch":
            p = _int(doc["p"], f"{what}.p", most=MAX_P)
            f = _int(doc.get("f", 1), f"{what}.f")
            LocalField.padic(p)  # refuses a p that is not an odd prime before p^f is formed
            if f > 2100 or p ** f >= MAX_Q:  # f > 2100 alone makes q > 3^2100 > MAX_Q
                raise QueryValidationError(f"{what}.f: q = p^f must be below 10^1000, "
                                           f"got {p}^{f}")
            return LocalField.padic(p, f)
    raise QueryValidationError(f"{what}: unknown kind {doc['kind']!r}")


def parse_character(doc, field: LocalField, what: str = "character") -> MultCharacter:
    if not isinstance(doc, dict):
        raise QueryValidationError(f"{what}: expected an object")
    with _reading(what, ValueError):  # a bad quad is reported before a bad z or t
        sq = SquareClass(field, str(doc.get("quad", "1")))
        z = _complex(doc.get("z", "1"), f"{what}.z")
        t = _exponent(doc.get("t", "0"), f"{what}.t")
        return MultCharacter(field, sq, z if not field.is_real else 1, t)


def parse_algebra(doc, field: LocalField) -> QuaternionAlgebra:
    if not isinstance(doc, dict):
        raise QueryValidationError("algebra: expected an object with a, b")
    a, b = _rational(doc.get("a", -1), "algebra.a"), _rational(doc.get("b", -1), "algebra.b")
    if a == 0 or b == 0:
        raise QueryValidationError("algebra: structure constants must be nonzero")
    return QuaternionAlgebra(field, a, b)


def _parse_quaternion(alg, v, what):
    if isinstance(v, (str, int, float)):
        return alg.element(_rational(v, what))
    if isinstance(v, list) and len(v) == 4:
        return alg.element(*(_rational(c, what) for c in v))
    raise QueryValidationError(f"{what}: expected rational or [x0,x1,x2,x3]")


def parse_space(doc, alg: QuaternionAlgebra) -> HermitianSpace:
    if not isinstance(doc, dict):
        raise QueryValidationError("space: expected an object")
    if "type" in doc:
        ftype = doc["type"]
    elif "eps" in doc:  # alternate descriptor: eps = +1 hermitian, -1 skew
        try:
            ftype = {1: "hermitian", -1: "skew"}[_int(doc["eps"], "space.eps")]
        except KeyError:
            raise QueryValidationError("space: eps must be +1 or -1")
    else:
        raise QueryValidationError("space: expected 'type' or 'eps'")
    with _reading("space", (ValueError, KeyError)):
        if ftype == "linear":
            return HermitianSpace.linear(alg, _int(doc["m"], "space.m"))
        if ftype in ("hermitian", "skew"):
            if "diag" in doc:
                ents = [_parse_quaternion(alg, v, "space.diag")
                        for v in _list(doc["diag"], "space.diag", MAX_DIM)]
                return HermitianSpace.diagonal(alg, ftype, ents)
            if "gram" in doc:
                rows = [[_parse_quaternion(alg, v, "space.gram")
                         for v in _list(row, "space.gram", MAX_DIM)]
                        for row in _list(doc["gram"], "space.gram", MAX_DIM)]
                n = len(rows)
                return HermitianSpace(alg, ftype, n, QuatMatrix.from_rows(alg, rows))
            if _int(doc.get("n", -1), "space.n") == 0:
                return HermitianSpace(alg, ftype, 0)
            raise QueryValidationError("space: need 'diag', 'gram', or n = 0")
    raise QueryValidationError(f"space: unknown type {ftype!r}")


def parse_rep(doc, field: LocalField, alg: QuaternionAlgebra):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise QueryValidationError("rep: expected an object with 'kind'")
    kind = doc["kind"]
    with _reading("rep", (ValueError, KeyError, TypeError)):
        if kind == "trivial":
            space = parse_space(doc["space"], alg) if "space" in doc else None
            if space is None:
                raise QueryValidationError("rep: the trivial representation needs its space")
            return TrivialRep(space)
        if kind == "skew_char":
            return SkewHermCharR(_int(doc["l"], "rep.l", most=MAX_WEIGHT))
        if kind == "sp_highest_weight":
            lam = tuple(_int(v, "rep.lambda", most=MAX_WEIGHT)
                        for v in _list(doc["lambda"], "rep.lambda"))
            return SpHighestWeight(_int(doc.get("n", len(lam)), "rep.n", most=MAX_DIM), lam)
        if kind == "gl_char":
            return GLChar(_int(doc["m"], "rep.m", most=MAX_BLOCK),
                          parse_character(doc["chi"], field, "rep.chi"))
        if kind == "induced":
            blocks = tuple(GLChar(_int(b["m"], "rep.blocks.m", most=MAX_BLOCK),
                                  parse_character(b["chi"], field, "rep.blocks.chi"))
                           for b in doc["blocks"])
            return Induced(blocks, parse_rep(doc["kernel"], field, alg))
    raise QueryValidationError(f"rep: unknown kind {kind!r}")


def parse_spherical(doc, field: LocalField) -> SphericalData:
    with _reading("spherical", (ValueError, KeyError, TypeError)):
        disc0 = SquareClass(field, str(doc["disc0"])) if "disc0" in doc else None
        return SphericalData(field, doc["form_type"],
                             _int(doc["r"], "spherical.r", most=MAX_WITT_RANK),
                             _int(doc["n0"], "spherical.n0"),
                             tuple(_exponent(t, "spherical.exponents")
                                   for t in _list(doc.get("exponents", []), "spherical.exponents")),
                             disc0)


@dataclass
class QueryDocument:
    field: LocalField
    rep: RepDatum | None
    omega: MultCharacter
    psi: AddCharacter
    outputs: tuple[str, ...]
    eval_points: tuple[complex, ...]
    norm_value: Fraction
    t_scale: Fraction
    spherical: SphericalData | None
    shifted: bool = False

    @staticmethod
    def from_json(doc: dict) -> "QueryDocument":
        if not isinstance(doc, dict):
            raise QueryValidationError("query: expected a JSON object")
        field = parse_field(doc.get("field", {"kind": "real"}))
        alg = parse_algebra(doc.get("algebra", {"a": "-1", "b": "-1"}), field)
        rep = parse_rep(doc["rep"], field, alg) if "rep" in doc else None
        if rep is not None and rep.field != field:
            raise QueryValidationError(f"rep: {doc['rep']['kind']!r} is not defined over {field}")
        omega = parse_character(doc.get("omega", {}), field, "omega")
        psi_scale = _rational(doc.get("psi_scale", "1"), "psi_scale")
        if psi_scale == 0:
            raise QueryValidationError("psi_scale: must be nonzero")
        outputs = doc.get("outputs", ["gamma"])
        if not isinstance(outputs, list):
            raise QueryValidationError(f"outputs: expected a list of names, got {outputs!r}")
        outputs = tuple(outputs)
        for o in outputs:
            if o not in KNOWN_OUTPUTS:
                raise QueryValidationError(
                    f"outputs: unknown {o!r}; known: {', '.join(KNOWN_OUTPUTS)}")
        pts = doc.get("eval_points", [])
        for p in pts if type(pts) is list else [pts]:
            if type(p) is not list or len(p) != 2 or type(p[0]) not in _NUMBER \
                    or type(p[1]) not in _NUMBER:
                raise QueryValidationError(
                    f"eval_points: expected [re, im] pairs of numbers, got {p!r}")
        try:
            pts = tuple([complex(re, im) for re, im in pts])
            finite = all(map(cmath.isfinite, pts))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise QueryValidationError("eval_points: coordinates must be finite")
        sph = parse_spherical(doc["spherical"], field) if "spherical" in doc else None
        needs_rep = {"gamma", "L", "epsilon", "root_number", "R", "c", "T"}
        if rep is None and needs_rep & set(outputs):
            raise QueryValidationError("rep: required for the requested outputs")
        if "spherical" in outputs and sph is None:
            raise QueryValidationError("spherical: data block required")
        if "root_number" in outputs and not omega.is_quadratic:
            raise QueryValidationError("omega: root_number requires omega^2 = 1")
        norm_value = _rational(doc.get("norm_value", "1"), "norm_value")
        t_scale = _rational(doc.get("t_scale", "2"), "t_scale")
        if norm_value == 0 or t_scale == 0:
            raise QueryValidationError("norm_value, t_scale: must be nonzero")
        if norm_value != 1 and {"R", "c"} & set(outputs) and rep.space.n == 0:
            raise QueryValidationError("norm_value: n = 0 forces the norm value 1")
        return QueryDocument(
            field, rep, omega, AddCharacter(field, psi_scale),
            outputs, pts, norm_value, t_scale, sph, bool(doc.get("shifted", False)))


def _expr_payload(expr: MeroExpr, q: QueryDocument, pending: list) -> dict:
    """One expression's payload; _fill_values adds its values with the other payloads'."""
    shown = expr.subst(1, Fraction(1, 2)) if q.shifted else expr
    payload = {
        "text": format_expr(shown),
        "tree": mero.to_json(shown),
        "s_convention": "Gamma-side (s + 1/2)" if q.shifted else "gamma-side",
    }
    if not q.field.is_real:
        try:
            payload["rational_in_X"] = str(as_rational_in_X(shown, q.field.q))
        except (UnsupportedExpressionError, OverflowError):
            payload["rational_in_X"] = None
    pending.append((payload, shown))
    return payload


def _fill_values(pending: list, points) -> None:
    for (payload, _), row in zip(pending, mero.values_json([shown for _, shown in pending], points)):
        payload["values"] = row


def _metadata(q: QueryDocument) -> dict:
    meta = {
        "schema": SCHEMA_VERSION,
        "psi": "level-0 standard character" if not q.field.is_real else "e^{2 pi i x}",
        "psi_scale": str(q.psi.a),
        "s_convention": "Gamma-side (s + 1/2)" if q.shifted else "gamma-side",
    }
    if not q.field.is_real:
        from .fields import nonsquare_unit
        if q.field.f % 2:
            meta["nonsquare_unit"] = nonsquare_unit(q.field)
        meta["residue_cardinality"] = q.field.q
    return meta


@scope()
def run_query(doc: dict) -> dict:
    """Evaluate a query document; raises QueryValidationError or
    UnsupportedPairError for the two failure classes. The call opens a memo
    scope, so each factor is built at most once per call: epsilon reuses the
    gamma and L of those outputs (and L as the dual L when rep and omega are
    self-dual), and c reuses R when psi = psi_1."""
    q = QueryDocument.from_json(doc)
    out: dict = {"schema": SCHEMA_VERSION, "results": {}, "metadata": _metadata(q)}
    A = RegularNilpotentData(q.norm_value)
    rep, omega, psi = q.rep, q.omega, q.psi
    build = {"gamma": lambda: gamma_factor(rep, omega, psi), "L": lambda: l_factor(rep, omega),
             "epsilon": lambda: epsilon_factor(rep, omega, psi),
             "R": lambda: correction_R(rep.space, omega, A, psi),
             "c": lambda: normalization_c(rep.space, omega, A, psi),
             "T": lambda: t_factor(rep.space, omega, q.t_scale)}
    pending: list = []
    for name in q.outputs:
        if name == "root_number":
            w = root_number(rep.space, rep.central_sign, omega, psi)
            v = complex(w)
            out["results"]["root_number"] = {"exact": str(w) if is_exact(w) else None,
                                             "value": [v.real, v.imag]}
        elif name == "spherical":
            sz = spherical_zeta(q.spherical)
            out["results"]["spherical"] = {
                "gamma": _expr_payload(gamma_spherical(q.spherical), q, pending),
                "l_product": _expr_payload(sz.l_product, q, pending),
                "d_v": _expr_payload(sz.d_v, q, pending),
                "vol_symbol": sz.vol_symbol,
                "m_assumption": sz.m_assumption,
            }
            if sz.m_assumption is not None:
                out["metadata"]["hermitian_dv_m"] = sz.m_assumption
        else:
            out["results"][name] = _expr_payload(build[name](), q, pending)
    if q.eval_points and pending:
        _fill_values(pending, q.eval_points)
    return out
