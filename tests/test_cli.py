"""Command line behavior: formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from dahamac import cli
from dahamac.cli import SUITES, build_parser, main, parse_index, \
    parse_ragged
from dahamac.field import MAX_EXP
from dahamac.laurent import LaurentPoly, poly_from_json
from dahamac.nonsym import E
from dahamac.rep import RepContext, apply_T, apply_Y


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# argument grammar


def test_parse_index():
    assert parse_index("0,1,0|2,1,0", 3, 2) == ((0, 1, 0), (2, 1, 0))
    with pytest.raises(Exception):
        parse_index("0,1", 3, 1)
    with pytest.raises(Exception):
        parse_index("a,b", 2, 1)
    with pytest.raises(cli.UsageError, match="must have 2 group"):
        parse_index("0,1|", 2, 2)


def test_parse_ragged():
    assert parse_ragged("1,1|2") == ((1, 1), (2,))
    assert parse_ragged("|1") == ((), (1,))


def test_missing_required_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["e", "--n", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# polynomial commands


def test_e_text(capsys):
    code, out, _ = run(capsys, "e", "--n", "2", "--q-count", "1",
                       "--mu", "0,1")
    assert code == 0
    assert out == ("((-t + 1)/(-t*q1 + 1))*x[1,1] + x[1,2]\n"
                   "weight: (t, 1/q1)\n")


def test_e_json_roundtrip(capsys):
    code, out, _ = run(capsys, "e", "--n", "2", "--r", "2",
                       "--mu", "1,0|0,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"index", "poly", "weight"}
    assert data["index"] == [[1, 0], [0, 1]]
    ctx = RepContext(2, 2, 2)
    assert poly_from_json(data["poly"]) == E(ctx, ((1, 0), (0, 1))).poly
    assert len(data["weight"]) == 2


def test_e_negative_entries(capsys):
    # a value beginning with "-" is merged into its flag
    code, out, _ = run(capsys, "e", "--n", "2", "--q-count", "1",
                       "--mu", "-1,0")
    assert code == 0
    assert "x[1,1]^-1" in out


def test_e_latex(capsys):
    code, out, _ = run(capsys, "e", "--n", "2", "--q-count", "1",
                       "--mu", "1,1", "--format", "latex")
    assert code == 0
    assert "x_{1,1} x_{1,2}" in out


def test_e_shape_error(capsys):
    code, _, err = run(capsys, "e", "--n", "3", "--q-count", "1",
                       "--mu", "0,1")
    assert code == 2
    assert err.startswith("error:")
    # an empty group is read, then refused by its shape
    for spec, want in (
            ("0,1|", "index '0,1|' must have 2 group(s) of 2 entries"),
            ("0,a|1,0", "cannot parse index '0,a|1,0'")):
        assert run(capsys, "e", "--n", "2", "--r", "2", "--mu", spec) == \
            (2, "", f"error: {want}\n")


def test_p_text(capsys):
    code, out, _ = run(capsys, "p", "--n", "2", "--q-count", "1",
                       "--nu", "1,1")
    assert code == 0
    assert out == "x[1,1]*x[1,2]\neigenvalue: (-t*q1 + t - q1 + 1)/q1\n"


def test_p_rejects_non_orbit_index(capsys):
    code, _, err = run(capsys, "p", "--n", "2", "--q-count", "1",
                       "--nu", "0,1")
    assert code == 2
    assert "orbit" in err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "poly.txt"
    code, out, _ = run(capsys, "e", "--n", "1", "--q-count", "1",
                       "--mu", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "x[1,1]^2\nweight: (1/q1^2)\n"


# ---------------------------------------------------------------------------
# apply


def test_apply_to_monomial(capsys):
    code, out, _ = run(capsys, "apply", "--n", "2", "--q-count", "1",
                       "--expr", "T1", "--mu", "1,0")
    assert code == 0
    assert out == "(-t + 1)*x[1,1] + x[1,2]\n"


def test_apply_json_pipe(capsys):
    code, out, _ = run(capsys, "e", "--n", "2", "--q-count", "1",
                       "--mu", "0,1", "--format", "json")
    poly_json = json.dumps(json.loads(out)["poly"])
    code, out, _ = run(capsys, "apply", "--n", "2", "--q-count", "1",
                       "--expr", "T1", "--poly", poly_json,
                       "--format", "json")
    assert code == 0
    ctx = RepContext(2, 1, 1)
    image = poly_from_json(json.loads(out)["poly"])
    assert image == apply_T(ctx, 1, E(ctx, ((0, 1),)).poly)


def test_apply_shape_mismatch(capsys):
    code, out, _ = run(capsys, "e", "--n", "2", "--q-count", "1",
                       "--mu", "0,1", "--format", "json")
    poly_json = json.dumps(json.loads(out)["poly"])
    code, _, err = run(capsys, "apply", "--n", "3", "--q-count", "1",
                       "--expr", "T1", "--poly", poly_json)
    assert code == 2 and "shape" in err


def test_apply_unknown_operator(capsys):
    code, _, err = run(capsys, "apply", "--n", "2", "--q-count", "1",
                       "--expr", "Q9", "--mu", "1,0")
    assert code == 2 and err.startswith("error:")


def test_apply_wants_exactly_one_input(capsys):
    code, _, err = run(capsys, "apply", "--n", "2", "--q-count", "1",
                       "--expr", "T1")
    assert code == 2


def test_apply_generator_out_of_range(capsys):
    code, _, err = run(capsys, "apply", "--n", "2", "--mu", "1,0",
                       "--expr", "T5")
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1


def test_apply_q_outside_session_names_it(capsys):
    code, out, err = run(capsys, "apply", "--n", "2", "--mu", "1,0",
                         "--expr", "q5 T1")
    assert (code, out, err) == \
        (2, "", "error: q_5 outside session with 1 parameters\n")


def test_apply_poly_with_empty_denominator(capsys):
    poly = {"r": 1, "n": 2, "params": 1, "terms": [
        {"exp": [[1, 0]], "coeff": {"num": [["1", [0, 0]]], "den": []}}]}
    code, _, err = run(capsys, "apply", "--n", "2", "--expr", "T1",
                       "--poly", json.dumps(poly))
    assert code == 2 and "denominator" in err and err.count("\n") == 1


def _poly_json(terms):
    """A one-parameter n=2 polynomial JSON; terms are (exp, num, den)."""
    return json.dumps({"r": 1, "n": 2, "params": 1, "terms": [
        {"exp": [exp], "coeff": {"num": num, "den": den}}
        for exp, num, den in terms]})


@pytest.mark.parametrize("poly", [
    # two terms at x[1,1]: the decoder kept the last and printed 2*x[1,1]
    _poly_json([([1, 0], [["1", [0, 0]]], [["1", [0, 0]]]),
                ([1, 0], [["2", [0, 0]]], [["1", [0, 0]]])]),
    # a numerator 1 + 2 written as two terms at one exponent read as 2
    _poly_json([([1, 0], [["1", [0, 0]], ["2", [0, 0]]], [["1", [0, 0]]])]),
    # a denominator 1 - 1 is zero, yet it read as -1
    _poly_json([([1, 0], [["1", [0, 0]]], [["1", [0, 0]], ["-1", [0, 0]]])]),
])
def test_apply_poly_with_repeated_exponent_exits_2(capsys, poly):
    code, out, err = run(capsys, "apply", "--n", "2", "--expr", "1",
                         "--poly", poly)
    assert code == 2 and out == ""
    assert "repeats the exponent" in err and err.count("\n") == 1


def _poly_header(**header):
    """The polynomial x[1,1] at n=2, r=1, one parameter, with some of
    its header fields replaced."""
    return json.dumps({**{"r": 1, "n": 2, "params": 1}, **header, "terms": [
        {"exp": [[1, 0]], "coeff": {"num": [["1", [0, 0]]],
                                    "den": [["1", [0, 0]]]}}]})


_ONE = [["1", [0, 0]]]


@pytest.mark.parametrize("argv", [
    # a JSON-number coefficient 2.5 printed 2*x[1,1]
    ["--poly", _poly_json([([1, 0], [[2.5, [0, 0]]], _ONE)])],
    # an exponent 1.9 printed x[1,1]
    ["--poly", _poly_json([([1.9, 0], _ONE, _ONE)])],
    # a q-exponent 0.9 was dropped
    ["--poly", _poly_json([([1, 0], [["1", [0, 0.9]]], _ONE)])],
    # true read as 1, "1_0" as 10
    ["--poly", _poly_json([([1, 0], [[True, [0, 0]]], _ONE)])],
    ["--poly", _poly_json([([True, 0], _ONE, _ONE)])],
    ["--poly", _poly_json([([1, 0], [["1_0", [0, 0]]], _ONE)])],
    ["--poly", _poly_json([([1, 0], [["1", [0, "1_0"]]], _ONE)])],
    ["--poly", _poly_json([(["1_0", 0], _ONE, _ONE)])],
    # header fields: 2.0 and 1.0 ended in a traceback, true ran and
    # echoed true
    ["--poly", _poly_header(n=2.0)],
    ["--poly", _poly_header(r=1.0), "--format", "json"],
    ["--poly", _poly_header(r=True, params=True), "--format", "json"],
    # flags and the index and expression grammars
    ["--n", "1_0", "--mu", ",".join("1" + "0" * 9)],
    ["--mu", "1_0,0"],
    ["--mu", "\u0663,0"],
    ["--mu", "1,0", "--expr", "2^1_0 T1"],
    ["--mu", "1,0", "--expr", "t^\u0663 T1"],
])
def test_apply_reads_integers_strictly(argv):
    code, out, err = _exit_code_out_err(
        ["apply", "--n", "2", "--expr", "1", *argv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["e", "--n", "1", "--r", "1_0", "--mu", "|".join("1" + "0" * 9)],
    ["e", "--n", "2", "--q-count", "1_0", "--mu", "1,0"],
    ["verify", "--n", "1", "--suite", "eigen", "--max-deg", "1_0"],
    ["verify", "--n", "1", "--suite", "eigen", "--seed", "1_0"],
    ["stability", "--nu", "1_0", "--n-max", "2"],
    ["stability", "--nu", "1", "--n-max", "\u0662"],
])
def test_flags_read_integers_strictly(argv):
    code, out, err = _exit_code_out_err(argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["e", "--n", "2", "--q-count", "1001", "--mu", "3,0"],
    ["e", "--n", "2", "--q-count", "3000000", "--mu", "3,0"],
    ["verify", "--n", "2", "--q-count", "3000000", "--suite", "eigen"],
    ["stability", "--nu", "1", "--n-max", "2", "--q-count", "1001"],
    ["stability", "--nu", "1", "--n-max", "2", "--q-count", "3000000"],
])
def test_q_count_above_the_limit_is_a_usage_error(argv):
    # every packed monomial has q_count + 1 fields, so a huge count
    # would exhaust memory instead of failing as bad input
    code, out, err = _exit_code_out_err(argv)
    assert (code, out, err) == (
        2, "", "error: --q-count must be at most 1000\n")


def test_q_count_at_the_limit_runs(capsys):
    outs = [run(capsys, "e", "--n", "2", "--q-count", q, "--mu", "3,0")
            for q in ("1", "1000")]
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_apply_Y(capsys):
    code, out, _ = run(capsys, "apply", "--n", "3", "--r", "2", "--mu",
                       "0,1,0|1,0,0", "--expr", "Y2", "--format", "json")
    assert code == 0
    ctx = RepContext(3, 2, 2)
    p = LaurentPoly.monomial(2, 3, 2, ((0, 1, 0), (1, 0, 0)), ctx.scalar())
    assert poly_from_json(json.loads(out)["poly"]) == apply_Y(ctx, 2, p)
    code, out, err = run(capsys, "apply", "--n", "3", "--r", "2", "--mu",
                         "0,1,0|1,0,0", "--expr", "Y4")
    assert (code, out, err) == (2, "", "error: Y index out of range\n")


def test_missing_files_exit_with_one_line(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "file")
    for argv in (("--poly-file", missing), ("--mu", "1,0", "--out", missing)):
        code, _, err = run(capsys, "apply", "--n", "2", "--expr", "T1", *argv)
        assert code == 2 and err.startswith("error:")
        assert err.count("\n") == 1


def test_apply_integer_coefficients_stay_exact(capsys):
    code, out, _ = run(capsys, "apply", "--n", "2", "--mu", "1,0",
                       "--expr", "2^-1 T1")
    assert code == 0
    assert out == "((-t + 1)/2)*x[1,1] + 1/2*x[1,2]\n"
    code, _, err = run(capsys, "apply", "--n", "2", "--mu", "1,0",
                       "--expr", "0^-1 T1")
    assert code == 2 and err.startswith("error:")


def test_apply_large_exponent_stays_exact(capsys):
    code, out, _ = run(capsys, "apply", "--n", "2", "--mu", "1,0",
                       "--expr", "t^40000 T1")
    assert code == 0
    assert out == "(-t^40001 + t^40000)*x[1,1] + t^40000*x[1,2]\n"


def _poly_with_exponent(e):
    return json.dumps({"r": 1, "n": 2, "params": 1, "terms": [
        {"exp": [[1, 0]], "coeff": {"num": [["1", [e, 0]]],
                                    "den": [["1", [0, 0]]]}}]})


def _poly_of_t(params, length):
    """x[1,1] at n=2, r=1 with the coefficient t, whose exponent lists
    have the given length, under a header of params parameters."""
    return json.dumps({"r": 1, "n": 2, "params": params, "terms": [
        {"exp": [[1, 0]], "coeff": {"num": [["1", [1] + [0] * (length - 1)]],
                                    "den": [["1", [0] * length]]}}]})


@pytest.mark.parametrize("params, length", [
    (32000, 32001), (128000, 128001), (1, 32001)])
def test_apply_refuses_long_exponents_before_packing_them(
        capsys, tmp_path, params, length):
    # a packed exponent has one 32-bit field per entry: packing a long
    # one, and caching the guard masks of every shorter field count, took
    # time and memory quadratic in its length
    path = tmp_path / "poly.json"
    path.write_text(_poly_of_t(params, length))
    start = time.perf_counter()
    code, out, err = run(capsys, "apply", "--n", "2", "--expr", "T1",
                         "--poly-file", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (
        2, "", "error: polynomial shape does not match --n/--r/--q-count\n")


@pytest.mark.parametrize("given_input", [
    ("--mu", "1,0", "--expr", "t^2147483648 T1"),
    ("--mu", "1,0", "--expr", "q1^-2147483648 T1"),
    ("--poly", _poly_with_exponent(2**31), "--expr", "T1"),
    # 7^40000000000 has more digits than Python prints; it used to be
    # computed until a timeout
    ("--mu", "1,0", "--expr", "7^40000000000 T1"),
])
def test_apply_exponent_past_limit_exits_2(capsys, given_input):
    code, out, err = run(capsys, "apply", "--n", "2", *given_input)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("e", "--n", "1", "--mu", "3000000000"),
    ("p", "--n", "1", "--nu", "3000000000"),
    ("stability", "--nu", "3000000000", "--n-max", "1"),
])
def test_index_entry_past_limit_exits_2_at_once(capsys, argv):
    # the weight's q-exponent has the entry's size; the coset word of
    # such an entry used to be built letter by letter until a timeout
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: index entries must lie in -{MAX_EXP}..{MAX_EXP}\n"


def _exit_code_out_err(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_fails_cleanly(argv):
    """Exit code 0, 1 or 2, at most one stderr line, no traceback."""
    code, _, err = _exit_code_out_err(argv)
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
    assert "Traceback" not in err


_VALID_ARGV = {
    "e": ["--n=2", "--mu=1,0"],
    "p": ["--n=2", "--nu=1,0"],
    "verify": ["--n=2", "--suite=daha-relations"],
    "stability": ["--nu=1", "--n-max=2"],
    "apply": ["--n=2", "--expr=T1", "--mu=1,0"],
}


def _value_flags():
    """(command, flag) for every flag of every subcommand that takes
    one value."""
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    for command, parser in subs.choices.items():
        for action in parser._actions:
            if action.option_strings and action.nargs is None:
                yield command, action.option_strings[0]


def test_value_flags_cover_every_command():
    flags = set(_value_flags())
    assert {command for command, _ in flags} == set(_VALID_ARGV)
    assert ("verify", "--max-deg") in flags and ("e", "--out") in flags
    # the base command lines succeed, so a failure below is the flag's
    for command, argv in _VALID_ARGV.items():
        assert _exit_code_out_err([command, *argv])[0] == 0


@pytest.mark.parametrize("command, flag", sorted(_value_flags()))
def test_double_dash_value_exits_2(command, flag, tmp_path, monkeypatch):
    # argparse drops "--" from "--flag=--" and stores [] unchecked
    monkeypatch.chdir(tmp_path)
    code, out, err = _exit_code_out_err(
        [command, *_VALID_ARGV[command], f"{flag}=--"])
    assert code == 2 and out == ""
    assert err == f"error: argument {flag}: expected one argument\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag", [
    ("e", "--seed=3"), ("p", "--seed=3"), ("apply", "--seed=3"),
    ("verify", "--format=json")])
def test_flag_of_another_command_exits_2(command, flag):
    # --seed only seeds verify's spot-checks, --format only renders
    # e, p and apply
    code, out, err = _exit_code_out_err([command, *_VALID_ARGV[command], flag])
    assert code == 2 and out == ""
    assert err == f"error: unrecognized arguments: {flag}\n"


@pytest.mark.parametrize("suite", SUITES)
def test_verify_max_deg_past_limit_exits_2(suite):
    # an entry past 2^63 overflowed in rep.degrees_upto with a traceback
    for bound in (MAX_EXP + 1, 10**20):
        code, out, err = _exit_code_out_err(
            ["verify", "--n=2", f"--suite={suite}", f"--max-deg={bound}"])
        assert code == 2 and out == ""
        assert err == f"error: --max-deg needs r entries in 0..{MAX_EXP}\n"


_EXPR_TOKENS = ("T1", "T2", "T5", "Tinv1", "X1", "X3", "Xinv2", "Y1", "Y4",
                "pi", "t", "t^-2", "q1", "q2^3", "q9", "2", "-3", "0^-1",
                "2^-1", "7^40000000000", "+", "x", "^", "T", "T1_0",
                "t^1.5", "2^1_0", "q1_0")


def _int_like(lo, hi):
    """Integers in lo..hi half the time, else a value that only looks
    like one: a float, a bool or "1_0"."""
    return st.one_of(st.integers(lo, hi),
                     st.sampled_from([float(hi), lo + 0.5, True, "1_0"]))


_MONOMIAL = st.lists(_int_like(-1, 2), max_size=3)
_PARAM_POLY = st.lists(
    st.tuples(st.sampled_from(["1", "-2", "0", "x", 2.5, True, "1_0"]),
              _MONOMIAL).map(list),
    max_size=2)
_POLY_JSON = st.fixed_dictionaries({
    "r": _int_like(0, 2), "n": _int_like(0, 3),
    "params": _int_like(0, 2),
    "terms": st.lists(st.fixed_dictionaries({
        "exp": st.lists(st.lists(_int_like(-2, 2), max_size=3),
                        max_size=2),
        "coeff": st.fixed_dictionaries({"num": _PARAM_POLY,
                                        "den": _PARAM_POLY}),
    }), max_size=2),
}).map(json.dumps)
# every character but the surrogates: st.text()'s default alphabet, named
# by category, because the default is built by encoding each code point
# as UTF-8, which peaks at ~200 MB in a checkout with no .hypothesis cache
_ANY_CHAR = st.characters(exclude_categories=("Cs",))
_INPUT = st.one_of(
    st.text("0123-,| a_.", max_size=8).map(lambda mu: "--mu=" + mu),
    st.one_of(_POLY_JSON, st.text(_ANY_CHAR, max_size=8),
              st.sampled_from(["{}", "[]", "null", '{"r": 1}'])
              ).map(lambda text: "--poly=" + text))


_EXTRA_FLAGS = ("--bogus", "--n", "--r=x", "--format=yaml", "--seed=3",
                "--q-count=0", "--format=json", "--mu")


@settings(max_examples=150, deadline=None)
@given(n=_int_like(0, 3), r=_int_like(0, 2),
       expr=st.lists(st.sampled_from(_EXPR_TOKENS), max_size=5),
       given_input=_INPUT,
       extra=st.lists(st.sampled_from(_EXTRA_FLAGS), max_size=1))
def test_apply_fuzz_fails_cleanly(n, r, expr, given_input, extra):
    argv = ["apply", f"--n={n}", f"--r={r}", "--expr=" + " ".join(expr),
            given_input, *extra]
    _assert_fails_cleanly(argv)


def _optional_flag(draw, flag, values):
    value = draw(st.one_of(st.none(), values))
    return [] if value is None else [f"{flag}={value}"]


def _index_text(rows, cols):
    row = st.lists(st.integers(-2, 2).map(str), min_size=cols, max_size=cols)
    return st.lists(row.map(",".join), min_size=rows,
                    max_size=rows).map("|".join)


@st.composite
def _e_p_argv(draw):
    command = draw(st.sampled_from(["e", "p"]))
    n, r = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    # mostly an r x n index, else one of another shape, else free text
    index = draw(st.one_of(
        _index_text(max(r, 1), max(n, 1)),
        st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
            lambda shape: _index_text(*shape)),
        st.text("012-,| a_.", max_size=6)))
    flag = "--mu=" if command == "e" else "--nu="
    argv = [command, f"--n={n}", f"--r={r}", flag + index,
            "--format=" + draw(st.sampled_from(["text", "json", "latex"]))]
    return argv + _optional_flag(draw, "--q-count", _int_like(0, 3))


@settings(max_examples=60, deadline=None)
@given(argv=_e_p_argv())
def test_e_and_p_fuzz_fail_cleanly(argv):
    _assert_fails_cleanly(argv)


@st.composite
def _verify_argv(draw):
    suite = draw(st.sampled_from(SUITES + ("bogus",)))
    n, r = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    # mostly r entries in 0..1, else a list of another length, else text
    bound = draw(st.one_of(
        st.lists(st.integers(0, 1), min_size=r, max_size=r),
        st.lists(st.integers(-1, 1), max_size=3),
        st.text("01-, a_.", max_size=5)))
    if isinstance(bound, list):
        bound = ",".join(map(str, bound))
    return (["verify", f"--suite={suite}", f"--n={n}", f"--r={r}",
             "--max-deg=" + bound]
            + _optional_flag(draw, "--q-count", _int_like(0, 3))
            + _optional_flag(draw, "--seed", _int_like(-1, 3)))


@settings(max_examples=100, deadline=None)
@given(argv=_verify_argv())
def test_verify_fuzz_fails_cleanly(argv):
    _assert_fails_cleanly(argv)


@st.composite
def _stability_argv(draw):
    comp = st.lists(_int_like(-1, 2).map(str), max_size=2).map(",".join)
    nu = draw(st.lists(comp, min_size=1, max_size=2).map("|".join))
    return (["stability", "--nu=" + nu,
             f"--n-max={draw(_int_like(-1, 3))}"]
            + _optional_flag(draw, "--q-count", _int_like(0, 3)))


@settings(max_examples=100, deadline=None)
@given(argv=_stability_argv())
def test_stability_fuzz_fails_cleanly(argv):
    _assert_fails_cleanly(argv)


# ---------------------------------------------------------------------------
# verify


def test_verify_daha_relations(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--q-count", "1",
                       "--suite", "daha-relations", "--max-deg", "2")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["suite"] == "daha-relations"
    assert report["max_deg"] == [2]
    names = [row["name"] for row in report["checks"]]
    assert all(name.startswith("daha-relations: ") for name in names)
    assert all(row["ok"] for row in report["checks"])


def test_verify_eigen_reports_distinctness(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--r", "2",
                       "--suite", "eigen", "--max-deg", "1,1")
    assert code == 0
    report = json.loads(out)
    names = [row["name"] for row in report["checks"]]
    assert "eigen: weights pairwise distinct" in names


def test_verify_eigen_rows_in_sorted_index_order(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--r", "2",
                       "--suite", "eigen", "--max-deg", "1,1")
    assert code == 0
    names = [row["name"] for row in json.loads(out)["checks"]]
    assert names == ["eigen: " + mu for mu in (
        "0,0|0,0", "0,0|0,1", "0,0|1,0", "0,1|0,0", "0,1|0,1", "0,1|1,0",
        "1,0|0,0", "1,0|0,1", "1,0|1,0")] + [
        "eigen: weights pairwise distinct"]


def test_verify_knop_sahi_rank_two(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--r", "2",
                       "--suite", "knop-sahi")
    assert code == 0
    report = json.loads(out)
    assert all(row["raising_ok"] and row["shifting_ok"]
               for row in report["checks"])


def test_suites_are_the_runner_table_and_all():
    assert SUITES == (*cli._SUITE_RUNNERS, "all")


def test_verify_verdict_is_the_conjunction_of_its_rows(capsys, monkeypatch):
    # one failing row fails the report and the exit code, whatever the
    # other rows say
    monkeypatch.setattr(cli, "check_record", lambda ctx, rec: rec.index != (
        (0, 1), (1, 0)))
    for suite in ("eigen", "all"):
        code, out, _ = run(capsys, "verify", "--n", "2", "--r", "2",
                           "--suite", suite, "--max-deg", "1,1")
        report = json.loads(out)
        bad = [row["name"] for row in report["checks"] if not row["ok"]]
        assert bad == ["eigen: 0,1|1,0"]
        assert report["ok"] is False and code == 1


def test_verify_seed_adds_spotcheck(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--q-count", "1",
                       "--suite", "daha-relations", "--max-deg", "1",
                       "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert any("seed=7" in row["name"] for row in report["checks"])


def test_apply_refuses_a_gcd_past_its_image_limit(capsys):
    # 2t - 3 q2^2 + q1 against t^(2^31 - 1) q2^2 - q1 + 1: the heuristic
    # gcd would evaluate t^(2^31 - 1) at a point near 2^5
    poly = json.dumps({"r": 1, "n": 1, "params": 2, "terms": [
        {"exp": [[0]], "coeff": {
            "num": [["1", [MAX_EXP, 0, 2]], ["-1", [0, 1, 0]],
                    ["1", [0, 0, 0]]],
            "den": [["2", [1, 0, 0]], ["-3", [0, 0, 2]],
                    ["1", [0, 1, 0]]]}}]})
    t0 = time.perf_counter()
    code, out, err = run(capsys, "apply", "--n", "1", "--q-count", "2",
                         "--expr", "X1", "--poly", poly)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--n", "2", "--q-count", "1",
                       "--suite", "nope")
    assert code == 2 and "unknown suite" in err


def test_verify_symmetric_collision_exits_nonzero(capsys):
    # three variables, two ranks: the component (1,1) carries two orbit
    # indices, one from each diagonal weight class, so their symmetric
    # polynomials and eigenvalues are distinct and the run passes
    code, out, _ = run(capsys, "verify", "--n", "3", "--r", "2",
                       "--suite", "symmetric", "--max-deg", "1,1")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert all(row["ok"] and row["distinct"] for row in report["checks"])
    assert all(row["count_matches_dim"] for row in report["checks"])


# ---------------------------------------------------------------------------
# stability


def test_stability_stable_family(capsys):
    code, out, _ = run(capsys, "stability", "--nu", "2,1", "--n-max", "3")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["errors"] == []
    assert report["projections"] == {"2": True}
    assert report["matches_remark"] is True
    assert sorted(report["members"]) == ["2", "3"]


def test_stability_report_is_indented_json_on_either_output(tmp_path,
                                                            capsys):
    code, out, _ = run(capsys, "stability", "--nu", "2,1", "--n-max", "3")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    target = tmp_path / "family.json"
    code, empty, _ = run(capsys, "stability", "--nu", "2,1", "--n-max", "3",
                         "--out", str(target))
    assert code == 0 and empty == ""
    assert target.read_text() == out


def test_stability_transient_family(capsys):
    code, out, _ = run(capsys, "stability", "--nu", "1|1", "--n-max", "2")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["projections"] == {"1": True}
    assert report["errors"] == []


def test_stability_bad_index(capsys):
    code, _, err = run(capsys, "stability", "--nu", "0,1", "--n-max", "2")
    assert code == 2 and err.startswith("error:")


def test_stability_range_check(capsys):
    code, _, err = run(capsys, "stability", "--nu", "2,1", "--n-max", "1")
    assert code == 2 and "--n-max" in err


# ---------------------------------------------------------------------------
# determinism and packaging


def test_output_is_deterministic(capsys):
    argv = ("e", "--n", "2", "--r", "2", "--mu", "1,0|0,1",
            "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


@pytest.mark.skipif(shutil.which("dahamac") is None,
                    reason="the dahamac console script is not installed")
def test_console_script_runs():
    proc = subprocess.run(
        ["dahamac", "e", "--n", "1", "--q-count", "1", "--mu", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "x[1,1]\nweight: (1/q1)\n"


def test_module_entry_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dahamac.cli", "p", "--n", "2",
         "--q-count", "1", "--nu", "2,0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].startswith("eigenvalue:")
