import copy
import decimal
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lfactors
from lfactors import exactconst
from lfactors.cli import main
from lfactors.query import QueryValidationError, run_query
from lfactors.doubling import UnsupportedPairError
from lfactors.mero import format_expr, from_json, parse_expr, to_json


def q_pi0():
    return {
        "field": {"kind": "real"},
        "algebra": {"a": "-1", "b": "-1"},
        "rep": {"kind": "skew_char", "l": 0},
        "omega": {"quad": "1"},
        "outputs": ["gamma"],
        "shifted": True,
    }


def test_run_query_pi0_example():
    out = run_query(q_pi0())
    assert out["results"]["gamma"]["text"] == "i * GammaC(-s+1/2) / GammaC(s+1/2)"


def test_run_query_hermitian_n0_sgn_example():
    doc = {
        "field": {"kind": "real"},
        "rep": {"kind": "trivial", "space": {"type": "hermitian", "n": 0}},
        "omega": {"quad": "-1"},
        "outputs": ["gamma"],
        "shifted": True,
    }
    out = run_query(doc)
    assert out["results"]["gamma"]["text"] == "i * GammaR(-s+3/2) / GammaR(s+3/2)"


def test_run_query_malformed_gram():
    doc = {
        "field": {"kind": "nonarch", "p": 5},
        "rep": {"kind": "trivial",
                "space": {"type": "skew", "gram": [["1"]]}},  # 1 is not skew
        "omega": {},
    }
    with pytest.raises(QueryValidationError) as err:
        run_query(doc)
    assert "R^* = eps R" in str(err.value).replace("^t", "^t") or "eps" in str(err.value)


def test_run_query_unsupported_pair():
    doc = {
        "field": {"kind": "nonarch", "p": 5},
        "rep": {"kind": "trivial", "space": {"type": "hermitian", "diag": ["1"]}},
        "omega": {"quad": "p"},
    }
    with pytest.raises(UnsupportedPairError):
        run_query(doc)


def test_result_roundtrip():
    out = run_query(q_pi0())
    blob = json.dumps(out, sort_keys=True)
    tree = json.loads(blob)["results"]["gamma"]["tree"]
    expr = from_json(tree)
    assert format_expr(expr) == json.loads(blob)["results"]["gamma"]["text"]
    # byte-identical reserialization
    assert json.dumps(json.loads(blob), sort_keys=True) == blob


def test_query_value_evaluation():
    doc = q_pi0()
    # i GammaC(-s+1/2) / GammaC(s+1/2): poles at s = 1/2, 5/2, zeros at s = -3/2
    doc["eval_points"] = [[0.5, 1.0], [0.5, 0.0], [2.5, 0.0], [-1.5, 0.0], [-1.5, 1e-7]]
    out = run_query(doc)
    vals = out["results"]["gamma"]["values"]
    assert [v is None for v in vals] == [False, True, True, True, False]
    assert abs(complex(*vals[0])) > 0


def test_metadata_records_conventions():
    doc = {
        "field": {"kind": "nonarch", "p": 5},
        "rep": {"kind": "gl_char", "m": 1, "chi": {"quad": "1"}},
        "omega": {},
        "outputs": ["gamma"],
        "spherical": {"form_type": "hermitian", "r": 1, "n0": 0, "exponents": ["0"]},
    }
    doc["outputs"] = ["gamma", "spherical"]
    out = run_query(doc)
    meta = out["metadata"]
    assert meta["psi"] == "level-0 standard character"
    assert meta["nonsquare_unit"] == 2
    assert out["results"]["spherical"]["m_assumption"] == 2
    assert meta["hermitian_dv_m"] == 2


def test_cli_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(q_pi0()))
    assert main(["gamma", "-f", str(good)]) == 0
    out = capsys.readouterr().out
    assert "gamma:" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": {"kind": "nonarch", "p": 2}, "rep": {"kind": "skew_char", "l": 0}}))
    assert main(["gamma", "-f", str(bad)]) == 2

    unsup = tmp_path / "unsup.json"
    unsup.write_text(json.dumps({
        "field": {"kind": "nonarch", "p": 5},
        "rep": {"kind": "trivial", "space": {"type": "hermitian", "diag": ["1"]}},
        "omega": {"quad": "p"}}))
    assert main(["gamma", "-f", str(unsup)]) == 3

    assert main(["verify", "--suite", "duplication", "--seed", "7"]) == 0
    assert main(["verify", "--suite", "duplication", "--corrupt"]) == 4
    capsys.readouterr()


def test_cli_verify_refuses_an_unknown_suite(capsys):
    """The CLI imports verify only to run it, so run_verify's ValueError
    decides a suite name: exit 2, the suites named on stderr, stdout empty."""
    from lfactors.verify import SUITES
    assert main(["verify", "--suite", "bogus"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "'bogus'" in err and all(repr(name) in err for name in ["all", *SUITES])
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--help"])
    assert exit_.value.code == 0
    assert "--suite" in capsys.readouterr().out


_INF = float("inf")
_P5_HERM = {"field": {"kind": "nonarch", "p": "5"},
            "rep": {"kind": "trivial", "space": {"type": "hermitian", "diag": ["1"]}}}


@pytest.mark.parametrize("doc, message", [
    ({"field": {"kind": "nonarch", "p": "5"}, "rep": {"kind": "skew_char", "l": 1},
      "outputs": ["gamma"]}, "rep: 'skew_char' is not defined over Q_5"),
    (dict(_P5_HERM, omega={"z": "3"}, outputs=["root_number"]),
     "omega: root_number requires omega^2 = 1"),
    (dict(_P5_HERM, norm_value="0", outputs=["R"]), "norm_value, t_scale: must be nonzero"),
    (dict(_P5_HERM, t_scale="0", outputs=["T"]), "norm_value, t_scale: must be nonzero"),
    (dict(_P5_HERM, eval_points=[[0.5, float("nan")]]), "eval_points: coordinates must be finite"),
    (dict(_P5_HERM, eval_points=[0.5]), "eval_points: expected [re, im] pairs"),
    (dict(_P5_HERM, eval_points=["12"]),
     "eval_points: expected [re, im] pairs of numbers, got '12'"),
    (dict(_P5_HERM, eval_points=[[0.5, 0, 7]]),
     "eval_points: expected [re, im] pairs of numbers, got [0.5, 0, 7]"),
    (dict(_P5_HERM, eval_points=[[0.5, "0"]]),
     "eval_points: expected [re, im] pairs of numbers, got [0.5, '0']"),
    (dict(_P5_HERM, eval_points=[[0.5, True]]),
     "eval_points: expected [re, im] pairs of numbers, got [0.5, True]"),
    (dict(_P5_HERM, eval_points={"re": 0.5}), "eval_points: expected [re, im] pairs of numbers, got {'re': 0.5}"),
    (dict(_P5_HERM, eval_points=[[0.5, 10 ** 400]]), "eval_points: coordinates must be finite"),
    (dict(_P5_HERM, outputs="gamma"), "outputs: expected a list of names, got 'gamma'"),
    (dict(_P5_HERM, outputs="L"), "outputs: expected a list of names, got 'L'"),
    (dict(_P5_HERM, algebra={"a": "0", "b": "5"}),
     "algebra: structure constants must be nonzero"),
    (dict(q_pi0(), algebra={"a": "-1", "b": "0"}),
     "algebra: structure constants must be nonzero"),
    (dict(_P5_HERM, omega={"t": ["x", 0]}),
     "omega.t: expected rational string or [re, im], got ['x', 0]"),
    (dict(_P5_HERM, omega={"z": [float("inf"), 0]}), "omega.z: must be finite, got [inf, 0]"),
    (dict(_P5_HERM, omega={"t": [float("nan"), 0]}), "omega.t: must be finite, got [nan, 0]"),
    (dict(_P5_HERM, omega={"z": "1" + "0" * 400}), "omega.z: must be finite"),
    (dict(_P5_HERM, omega={"t": "100000"}),
     "omega.t: |Re| and |Im| must be at most 1000"),
    (dict(_P5_HERM, omega={"t": [100000, 0]}),
     "omega.t: |Re| and |Im| must be at most 1000"),
    (dict(_P5_HERM, omega={"t": "1e30"}), "omega.t: |Re| and |Im| must be at most 1000"),
    (dict(_P5_HERM, omega={"t": [0.5, -1001]}),
     "omega.t: |Re| and |Im| must be at most 1000"),
    ({"field": {"kind": "real"}, "rep": {"kind": "gl_char", "m": 2, "chi": {"t": "-1001"}}},
     "rep.chi.t: |Re| and |Im| must be at most 1000"),
    ({"field": {"kind": "nonarch", "p": "3"}, "outputs": ["spherical"],
      "spherical": {"form_type": "hermitian", "r": 1, "n0": 0, "exponents": ["100000"]}},
     "spherical.exponents: |Re| and |Im| must be at most 1000"),
    ({"field": {"kind": "nonarch", "p": "3"}, "outputs": ["spherical"],
      "spherical": {"form_type": "hermitian", "r": 2, "n0": 0, "exponents": "12"}},
     "spherical.exponents: expected a list, got '12'"),
    ({"field": {"kind": "nonarch", "p": "5"},
      "rep": {"kind": "trivial", "space": {"type": "hermitian", "diag": "11"}}},
     "space.diag: expected a list, got '11'"),
    ({"field": {"kind": "nonarch", "p": "5"},
      "rep": {"kind": "trivial", "space": {"type": "hermitian", "gram": "11"}}},
     "space.gram: expected a list, got '11'"),
    ({"field": {"kind": "real"}, "rep": {"kind": "sp_highest_weight", "lambda": "21"}},
     "rep.lambda: expected a list, got '21'"),
    ({"field": {"kind": "nonarch", "p": "5"}, "norm_value": "3", "outputs": ["R"],
      "rep": {"kind": "trivial", "space": {"type": "hermitian", "n": 0}}},
     "norm_value: n = 0 forces the norm value 1"),
    ({"field": {"kind": "nonarch", "p": "5"}, "norm_value": "3", "outputs": ["gamma", "c"],
      "rep": {"kind": "trivial", "space": {"type": "skew", "n": 0}}},
     "norm_value: n = 0 forces the norm value 1"),
    ({"field": {"kind": "nonarch", "p": _INF}, "rep": {"kind": "skew_char", "l": 1}},
     "field.p: expected an integer, got inf"),
    ({"field": {"kind": "nonarch", "p": 5, "f": 1.0}, "rep": {"kind": "gl_char", "m": 1, "chi": {}}},
     "field.f: expected an integer, got 1.0"),
    ({"field": {"kind": "real"}, "rep": {"kind": "skew_char", "l": _INF}},
     "rep.l: expected an integer, got inf"),
    ({"field": {"kind": "real"}, "rep": {"kind": "sp_highest_weight", "lambda": [_INF]}},
     "rep.lambda: expected an integer, got inf"),
    ({"field": {"kind": "real"}, "rep": {"kind": "sp_highest_weight", "lambda": [1], "n": "x"}},
     "rep.n: expected an integer, got 'x'"),
    ({"field": {"kind": "nonarch", "p": "3"}, "outputs": ["spherical"],
      "spherical": {"form_type": "hermitian", "r": _INF, "n0": 0}},
     "spherical.r: expected an integer, got inf"),
    ({"field": {"kind": "nonarch", "p": "3"}, "outputs": ["spherical"],
      "spherical": {"form_type": "hermitian", "r": 0, "n0": float("nan")}},
     "spherical.n0: expected an integer, got nan"),
    ({"field": {"kind": "real"}, "rep": {"kind": "gl_char", "m": float("1e400"), "chi": {}}},
     "rep.m: expected an integer, got inf"),
    ({"field": {"kind": "real"}, "rep": {"kind": "gl_char", "m": 2.7, "chi": {}}},
     "rep.m: expected an integer, got 2.7"),
    ({"field": {"kind": "real"}, "rep": {"kind": "induced", "blocks": [{"m": -_INF, "chi": {}}],
                                         "kernel": {"kind": "skew_char", "l": 1}}},
     "rep.blocks.m: expected an integer, got -inf"),
    ({"field": {"kind": "nonarch", "p": "5"},
      "rep": {"kind": "trivial", "space": {"type": "linear", "m": _INF}}},
     "space.m: expected an integer, got inf"),
    ({"field": {"kind": "nonarch", "p": "5"},
      "rep": {"kind": "trivial", "space": {"type": "hermitian", "n": 0.0}}},
     "space.n: expected an integer, got 0.0"),
    ({"field": {"kind": "nonarch", "p": "5"},
      "rep": {"kind": "trivial", "space": {"eps": True, "diag": ["1"]}}},
     "space.eps: expected an integer, got True"),
    ({"field": {"kind": "nonarch", "p": 10 ** 30 + 57}, "rep": {"kind": "gl_char", "m": 1, "chi": {}}},
     "field.p: must be at most 999999, got 1000000000000000000000000000057"),
    ({"field": {"kind": "nonarch", "p": "1000003"}, "rep": {"kind": "gl_char", "m": 1, "chi": {}}},
     "field.p: must be at most 999999, got 1000003"),
    ({"field": {"kind": "nonarch", "p": 5, "f": 100000},
      "rep": {"kind": "gl_char", "m": 1, "chi": {}}},
     "field.f: q = p^f must be below 10^1000, got 5^100000"),
    ({"field": {"kind": "nonarch", "p": 5, "f": 1431}, "rep": {"kind": "gl_char", "m": 1, "chi": {}}},
     "field.f: q = p^f must be below 10^1000, got 5^1431"),
    ({"field": {"kind": "real"}, "rep": {"kind": "gl_char", "m": 45, "chi": {}}},
     "rep.m: must be at most 32, got 45"),
    ({"field": {"kind": "nonarch", "p": "5"}, "rep": {"kind": "gl_char", "m": "33", "chi": {}}},
     "rep.m: must be at most 32, got 33"),
    ({"field": {"kind": "real"}, "rep": {"kind": "induced", "blocks": [{"m": 33, "chi": {}}],
                                         "kernel": {"kind": "skew_char", "l": 1}}},
     "rep.blocks.m: must be at most 32, got 33"),
    ({"field": {"kind": "real"}, "rep": {"kind": "skew_char", "l": 10 ** 400}},
     "rep.l: must be at most 1000, got 1000"),
    ({"field": {"kind": "real"}, "rep": {"kind": "skew_char", "l": -10 ** 400}},
     "rep.l: must be at least -1000, got -1000"),
    ({"field": {"kind": "real"}, "rep": {"kind": "sp_highest_weight", "lambda": [10 ** 400]}},
     "rep.lambda: must be at most 1000, got 1000"),
    ({"field": {"kind": "real"}, "rep": {"kind": "sp_highest_weight", "lambda": [0] * 33}},
     "rep.n: must be at most 32, got 33"),
    ({"field": {"kind": "nonarch", "p": "5"},
      "rep": {"kind": "trivial", "space": {"type": "hermitian", "diag": ["1"] * 33}}},
     "space.diag: at most 32 entries, got 33"),
    ({"field": {"kind": "nonarch", "p": "5"},
      "rep": {"kind": "trivial", "space": {"type": "hermitian", "gram": [["1"]] * 33}}},
     "space.gram: at most 32 entries, got 33"),
    ({"field": {"kind": "nonarch", "p": "3"}, "outputs": ["spherical"],
      "spherical": {"form_type": "skew", "r": 101, "n0": 0, "exponents": ["0"] * 101}},
     "spherical.r: must be at most 100, got 101"),
    # a skew-hermitian form of dimension 4 or more over D is isotropic (Tsukamoto 1961)
    *(({"field": {"kind": "nonarch", "p": "5"}, "outputs": ["spherical"],
        "spherical": {"form_type": "skew", "r": 1, "n0": n0, "disc0": "p", "exponents": ["0"]}},
       "spherical: skew anisotropic rank is at most 3 over division algebras")
      for n0 in (4, 10 ** 6)),
], ids=["rep-field", "root-number-omega", "norm-value-zero", "t-scale-zero", "eval-point-nan",
        "eval-point-shape", "eval-point-string", "eval-point-triple", "eval-point-string-coordinate",
        "eval-point-bool", "eval-points-dict", "eval-point-beyond-floats", "outputs-string",
        "outputs-one-letter-string", "algebra-a-zero-padic",
        "algebra-b-zero-real", "t-not-a-number", "z-infinite", "t-nan", "z-beyond-floats",
        "t-too-large", "t-pair-too-large", "t-huge", "t-imaginary-too-large",
        "rep-chi-t-too-large", "spherical-exponent-too-large", "spherical-exponents-string",
        "diag-string", "gram-string", "lambda-string", "n0-hermitian-norm-value",
        "n0-skew-norm-value", "p-infinite", "f-float", "l-infinite", "lambda-infinite",
        "rep-n-string", "r-infinite", "n0-nan", "m-beyond-floats", "m-fractional",
        "block-m-infinite", "linear-m-infinite", "space-n-float", "eps-bool", "p-31-digits",
        "p-above-bound", "f-huge", "q-above-bound", "m-above-bound-real", "m-above-bound-padic",
        "block-m-above-bound", "l-above-bound", "l-below-bound", "lambda-above-bound",
        "rep-n-above-bound", "diag-above-bound", "gram-above-bound", "r-above-bound",
        "skew-n0-4", "skew-n0-million"])
def test_cli_rejects_malformed_query(tmp_path, capsys, doc, message):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    assert main(["gamma", "-f", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("doc", [
    dict(_P5_HERM, omega={"t": "1000"}),
    dict(_P5_HERM, omega={"t": [-0.5, 1000]}),
    # q^-1000 overflows a float on the spherical path: the rational form is then null
    {"field": {"kind": "nonarch", "p": "3"}, "outputs": ["spherical"], "eval_points": [[0.3, 0.1]],
     "spherical": {"form_type": "hermitian", "r": 1, "n0": 0, "exponents": ["1000"]}},
], ids=["t-at-bound", "t-imaginary-at-bound", "spherical-exponent-at-bound"])
def test_cli_accepts_exponents_at_the_bound(tmp_path, capsys, doc):
    _accepted(tmp_path, capsys, doc)


@pytest.mark.parametrize("doc", [
    {"field": {"kind": "nonarch", "p": 999983}, "rep": {"kind": "gl_char", "m": 1, "chi": {}}},
    {"field": {"kind": "nonarch", "p": 999983}, "rep": {"kind": "gl_char", "m": 1, "chi": {"quad": "p"}}},
    # 5^1430 < 10^1000 <= 5^1431
    {"field": {"kind": "nonarch", "p": 5, "f": 1430}, "rep": {"kind": "gl_char", "m": 1, "chi": {}}},
    {"field": {"kind": "real"}, "rep": {"kind": "gl_char", "m": 32, "chi": {}},
     "outputs": ["gamma", "L", "epsilon"]},
    {"field": {"kind": "nonarch", "p": 5}, "rep": {"kind": "gl_char", "m": 32, "chi": {}},
     "outputs": ["gamma", "L", "epsilon"]},
    {"field": {"kind": "real"}, "rep": {"kind": "induced", "blocks": [{"m": 32, "chi": {}}],
                                        "kernel": {"kind": "skew_char", "l": 1}}},
    {"field": {"kind": "real"}, "rep": {"kind": "skew_char", "l": -1000}, "eval_points": [[0.3, 0.1]],
     "outputs": ["gamma", "L", "epsilon", "root_number", "R", "c", "T"]},
    # c over R at n = 32 evaluates, with a constant far past the float range
    {"field": {"kind": "real"}, "rep": {"kind": "sp_highest_weight", "lambda": [1000] * 32},
     "eval_points": [[0.3, 0.1]], "outputs": ["gamma", "L", "epsilon", "root_number", "R", "c", "T"]},
    {"field": {"kind": "nonarch", "p": "5"}, "outputs": ["gamma", "R", "c"],
     "rep": {"kind": "trivial", "space": {"type": "hermitian", "diag": ["1"] * 32}}},
    {"field": {"kind": "nonarch", "p": "5"}, "algebra": {"a": "2", "b": "5"}, "outputs": ["gamma", "R"],
     "rep": {"kind": "trivial", "space": {"type": "skew", "gram": [
         [[0, 1, 0, 0] if i == j else "0" for j in range(32)] for i in range(32)]}}},
    {"field": {"kind": "nonarch", "p": "3"}, "outputs": ["spherical"],
     "spherical": {"form_type": "skew", "r": 100, "n0": 0, "exponents": ["0"] * 100}},
    {"field": {"kind": "nonarch", "p": "5"}, "outputs": ["spherical"],
     "spherical": {"form_type": "skew", "r": 1, "n0": 3, "disc0": "p", "exponents": ["0"]}},
], ids=["p-at-bound", "p-at-bound-ramified", "q-at-bound", "m-at-bound-real", "m-at-bound-padic", "block-m-at-bound",
        "l-at-bound", "lambda-at-bound", "diag-at-bound", "gram-at-bound", "r-at-bound",
        "skew-n0-at-bound"])
def test_cli_accepts_integers_at_the_bound(tmp_path, capsys, doc):
    _accepted(tmp_path, capsys, doc)


@pytest.mark.parametrize("doc, status", [
    # the constant of c has 4193 bits: its log is taken term by term
    ({"field": {"kind": "real"}, "outputs": ["c"], "eval_points": [[0.3, 0.1]],
      "rep": {"kind": "induced", "blocks": [{"m": 32, "chi": {}}], "kernel": {"kind": "skew_char", "l": 0}}}, 0),
    # the splitting test takes an integer square root of a 400-digit a
    (dict(_P5_HERM, algebra={"a": str(10 ** 399 + 1), "b": "5"}), 0),
    # z^ord(x) with a complex z has no exact form: refused as unsupported
    (dict(_P5_HERM, omega={"z": [1.3, 0]}, norm_value=str(5 ** 3000), outputs=["R"]), 3),
    # |x|^(1/3) of a 400-digit x is about 10^133: the base's log is taken from its parts
    ({"field": {"kind": "real"}, "omega": {"t": "1/3"}, "norm_value": str(10 ** 400), "outputs": ["R"],
      "rep": {"kind": "sp_highest_weight", "lambda": [0]}}, 0),
], ids=["induced-c-constant", "algebra-a-400-digits", "complex-z-to-power-3000",
        "norm-value-400-digits-to-a-third"])
def test_cli_values_past_the_float_range(tmp_path, capsys, doc, status):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    assert main(["gamma", "-f", str(path)]) == status
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if status:
        assert captured.err == "unsupported: a value left the float range (complex exponentiation)\n"
    else:
        assert json.loads(captured.out[captured.out.index("\n{") + 1:])["results"]


def test_cli_spells_a_constant_past_the_digit_limit(tmp_path, capsys):
    """omega(N(A))^-2 = (2/3)^10000: the text and the tree spell 3^10000, 4,772
    digits, past the 4300 digits str() takes under the default limit."""
    doc = {"field": {"kind": "nonarch", "p": "5"}, "omega": {"z": "3/2"}, "norm_value": str(5 ** 5000),
           "rep": {"kind": "gl_char", "m": 1, "chi": {}}, "outputs": ["R"]}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    assert main(["gamma", "-f", str(path)]) == 0
    out = capsys.readouterr().out
    r = json.loads(out[out.index("\n{") + 1:])["results"]["R"]
    with decimal.localcontext(decimal.Context(prec=5000)):
        rat = f"{decimal.Decimal(2) ** 10000}/{decimal.Decimal(3) ** 10000}"
    assert len(rat.partition("/")[2]) == 4772
    assert r["text"] == f"{rat} * 5^(10000s)" and r["tree"]["prefactor"]["rat"] == rat
    assert r["rational_in_X"] == f"({rat}) / (X^10000)"


_PRIME = 10 ** 30 + 57  # no prime factor up to 10^6: factor_int refuses it


@pytest.mark.parametrize("doc", [
    {"psi_scale": str(_PRIME), "outputs": ["gamma"]},
    {"t_scale": str(_PRIME), "outputs": ["T"]},
    {"norm_value": str(_PRIME), "shifted": True, "outputs": ["R"]},
], ids=["psi-scale", "t-scale", "shifted-norm-value"])
def test_cli_refuses_a_square_root_it_cannot_factor(tmp_path, doc):
    """Each needs sqrt(10^30 + 57) exactly. Trial division stops at 10^6, so
    the query exits 3 at once, not after hours; run in a fresh interpreter so
    that a hang fails on the timeout."""
    path = tmp_path / "q.json"
    path.write_text(json.dumps(dict(doc, field={"kind": "real"},
                                    rep={"kind": "sp_highest_weight", "lambda": [0]})))
    src = str(Path(lfactors.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-m", "lfactors.cli", "gamma", "-f", str(path)],
                         env=env, capture_output=True, text=True, timeout=10)
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr == ("unsupported: too large to factor: trial division up to 1,000,000 leaves "
                          "a cofactor of 100 bits, above 1,000,000,000,000\n")


def test_even_powers_of_a_large_prime_need_no_factoring(monkeypatch):
    """gamma of D_1 at psi_a scales by |a|^(2s - 1): whole powers of a, which
    take no factoring, so the query answers exactly."""
    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(exactconst, "factor_int", refuse)
    doc = {"field": {"kind": "real"}, "rep": {"kind": "skew_char", "l": 1}, "psi_scale": str(_PRIME),
           "outputs": ["gamma"]}
    assert run_query(doc)["results"]["gamma"]["text"] == (
        f"-1/{_PRIME} * i * {_PRIME}^(2s) * GammaC(-s+2) / GammaC(s+1)")


def test_cli_rejects_an_integer_json_cannot_read(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text('{"field": {"kind": "real"}, "rep": {"kind": "skew_char", "l": %s}}' % ("1" * 5000))
    assert main(["gamma", "-f", str(path)]) == 2
    captured = capsys.readouterr()
    assert "cannot read query: Exceeds the limit" in captured.err
    assert captured.out == ""


def _accepted(tmp_path, capsys, doc):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    assert main(["gamma", "-f", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("\n{") + 1:])["results"]


def test_cli_print_roundtrip(tmp_path, capsys):
    text = "i * GammaC(-s+1/2) / GammaC(s+1/2)"
    f = tmp_path / "expr.txt"
    f.write_text(text)
    assert main(["print", "-f", str(f), "--canonical"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == text
    expr = parse_expr(text)
    j = tmp_path / "expr.json"
    j.write_text(json.dumps(to_json(expr)))
    assert main(["print", "-f", str(j), "--canonical"]) == 0
    assert capsys.readouterr().out.strip() == text


# A tree with every field kind: exact prefactor, exp and lnf numerator atoms,
# a gammaR denominator atom.
_TREE = to_json(parse_expr("-3/2 * sqrt(5) * 5^(-s) * Lnf(5; 1; s+1/2) / GammaR(s)"))


def _edited(path, value: str) -> str:
    """_TREE as JSON text with the field at `path` spelled as `value`."""
    tree = copy.deepcopy(_TREE)
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@"
    return json.dumps(tree).replace('"@"', value)


MALFORMED = [pytest.param(".txt", text, id=f"text {text[:24]}") for text in (
    "1/0", "GammaR(s+1/0)", "GammaR(s+[1e400+0i])", "GammaR(s+" + "9" * 400 + ")",
    "Lnf(1/2; 1; s)", "GammaR(s)^1/2", "Lnf(0; 1; s)", "sqrt(4)",
    # spellings format_expr never prints
    "Lnf(5;1;s)", "GammaR(s)/GammaR(s+1)", "5^(s+1)", "2 / GammaR(s) * GammaR(s+1)",
)] + [pytest.param(".json", text, id=f"json {name}") for name, text in (
    ("rat 1/0", _edited(("prefactor", "rat"), '"1/0"')),
    ("beta [1e400, 0]", _edited(("numerator", 1, "arg", "beta"), "[1e400, 0]")),
    ("top-level []", "[]"),
    ("re null", _edited(("prefactor",), '{"kind": "complex", "re": null, "im": 0.0}')),
    ("power 1.5", _edited(("denominator", 0, "power"), "1.5")),
    ("roots [4]", _edited(("prefactor", "roots"), "[4]")),
    ("roots [-3]", _edited(("prefactor", "roots"), "[-3]")),
    ("q 0", _edited(("numerator", 1, "q"), "0")),
    ("exp base -2", _edited(("numerator", 0, "base"), '"-2"')),
)]


@pytest.mark.parametrize("suffix, text", MALFORMED)
def test_cli_print_refuses_a_malformed_expression(tmp_path, capsys, suffix, text):
    """Each exits 2 with a one-line message; an exception here would be a traceback."""
    path = tmp_path / f"expr{suffix}"
    path.write_text(text)
    assert main(["print", "-f", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error: ") and captured.out == ""


def test_malformed_tree_edits_a_tree_that_reads():
    assert format_expr(from_json(json.loads(_edited(("prefactor", "rat"), '"-3/2"')))) == \
        "-3/2 * sqrt(5) * 5^(-s) * Lnf(5; 1; s+1/2) / GammaR(s)"
