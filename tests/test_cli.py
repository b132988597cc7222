import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfr import cli, indicators, oracles
from cfr.geometry import (BoundaryData, BoundaryLoop, LineParam, ProjPoint, boundary_from_json,
                          boundary_to_json)
from cfr.reconstruct import PointCloud
from reference import fmt_generic


def run_cli(argv, cwd):
    """Invoke the CLI in-process, capturing stdout/stderr."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(old)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    for name, fname in [("interior-line", "line.json"), ("exterior-line", "ext.json"),
                        ("two-line", "twoline.json"), ("conic", "conic.json")]:
        code, _, _ = run_cli(["make-oracle", "--name", name, "--out", fname], d)
        assert code == 0
    return d


def test_make_oracle_validates(workdir):
    code, _, err = run_cli(["make-oracle", "--name", "nonsense"], workdir)
    assert code == 1
    assert json.loads(err)["error"] == "E_VALIDATION"


def test_oracle_files_valid(workdir):
    from cfr.geometry import rho
    b = cli._read(workdir / "line.json", "boundary", boundary_from_json)
    assert abs(rho(b) - 1.5) < 1e-12
    obj = json.loads((workdir / "conic.json").read_text())
    for s in obj["loops"][0]["samples"]:
        w = [complex(p[0], p[1]) for p in s["w"]]
        assert abs(w[1] ** 2 - w[0] * w[2]) < 1e-12
    ext = json.loads((workdir / "ext.json").read_text())
    assert ext["loops"][0]["orientation"] == -1


def test_indicators_two_line(workdir):
    code, out, _ = run_cli(["indicators", "--boundary", "twoline.json",
                            "--kmax", "1", "--mmax", "2"], workdir)
    assert code == 0
    obj = json.loads(out)
    assert obj["delta"] == 2
    assert abs(obj["G0"][0] - 2.0) < 1e-9


MALFORMED = {
    "samples-below-16": (["make-oracle", "--name", "conic", "--samples", "8"], {}),
    "p-not-integer": (["reconstruct", "--boundary", "line.json", "--p", "abc"], {}),
    "p-negative": (["reconstruct", "--boundary", "line.json", "--p", "-1"], {}),
    "shock-p-not-integer": (["shock-verify", "--boundary", "conic.json", "--p", "x"], {}),
    "radii-not-numbers": (["reconstruct", "--boundary", "line.json", "--p", "1",
                           "--radii", "2,x"], {}),
    "xfrac-not-numbers": (["reconstruct", "--boundary", "line.json", "--p", "1",
                           "--xfrac", "0,i"], {}),
    "y0-not-number": (["shock-verify", "--boundary", "conic.json", "--p", "1",
                       "--y0", "far"], {}),
    "germs-without-germs": (["reconstruct", "--boundary", "line.json", "--p", "1",
                             "--germs", "bad-germs.json"], {"bad-germs.json": "{}"}),
    "omega-exponent": (["genus", "--omega", "z^xdz"], {}),
    "rin-above-one": (["genus", "--model", "annulus", "--rin", "2.0"], {}),
    "rin-negative": (["genus", "--model", "annulus", "--rin", "-0.5"], {}),
    "rin-zero": (["genus", "--model", "annulus", "--rin", "0"], {}),
    "rin-nan": (["genus", "--model", "annulus", "--rin", "nan"], {}),
    "patch-one-field": (["green", "--phi", "ok-phi.json", "--patch", "0",
                         "--targets", "ok-targets.json"], {}),
    "patch-radius-negative": (["green", "--phi", "ok-phi.json", "--patch", "0,-1",
                               "--targets", "ok-targets.json"], {}),
    "patch-radius-zero": (["green", "--phi", "ok-phi.json", "--patch", "0,0",
                           "--targets", "ok-targets.json"], {}),
    "patch-radius-nan": (["green", "--phi", "ok-phi.json", "--patch", "0,nan",
                          "--targets", "ok-targets.json"], {}),
    "phi-not-json": (["green", "--phi", "bad-phi.json", "--targets", "ok-targets.json"],
                     {"bad-phi.json": "[[[0, 0], [1, 0]]"}),
    "targets-without-q-star": (["green", "--phi", "ok-phi.json",
                                "--targets", "bad-targets.json"],
                               {"bad-targets.json": '{"points": [[0.5, 0.0]]}'}),
    "lambda-without-num": (["genus", "--lambda", "bad-lambda.json"],
                           {"bad-lambda.json": '{"den": [1.0]}'}),
    "lambda-num-empty": (["genus", "--lambda", "bad-lambda.json"],
                         {"bad-lambda.json": '{"num": []}'}),
    "angles-zero": (["reconstruct", "--boundary", "line.json", "--p", "1", "--angles", "0"], {}),
    "angles-negative": (["reconstruct", "--boundary", "line.json", "--p", "1",
                         "--angles", "-3"], {}),
    "kmax-negative": (["indicators", "--boundary", "line.json", "--kmax", "-1"], {}),
    "mmax-above-cap": (["indicators", "--boundary", "line.json", "--mmax", "20"], {}),
    "rmax-negative": (["fit-infinity", "--boundary", "line.json", "--rmax", "-1"], {}),
    "dmu-negative": (["fit-infinity", "--boundary", "line.json", "--dmu", "-1"], {}),
    "radii-nan": (["reconstruct", "--boundary", "line.json", "--p", "1", "--radii", "nan"], {}),
    "xfrac-nan": (["reconstruct", "--boundary", "line.json", "--p", "1", "--xfrac", "nan"], {}),
    "xfrac-outside-domain": (["reconstruct", "--boundary", "twoline.json", "--p", "2",
                              "--xfrac", "1.5"], {}),
    "radii-outside-domain": (["reconstruct", "--boundary", "twoline.json", "--p", "2",
                              "--radii", "1.0"], {}),
    "step-zero": (["shock-verify", "--boundary", "conic.json", "--p", "1", "--step", "0"], {}),
    "gridn-below-5": (["shock-verify", "--boundary", "conic.json", "--p", "1",
                       "--gridn", "4"], {}),
    "shock-grid-inside-rho": (["shock-verify", "--boundary", "conic.json", "--p", "1",
                               "--y0", "0.1"], {}),
    "shock-grid-outside-m": (["shock-verify", "--boundary", "conic.json", "--p", "1",
                              "--step", "0.5"], {}),
    "oracle-a-nan": (["make-oracle", "--name", "interior-line", "--a", "nan"], {}),
    "oracle-a-inf": (["make-oracle", "--name", "interior-line", "--a", "inf"], {}),
    "oracle-b-nan": (["make-oracle", "--name", "two-line", "--b", "nan"], {}),
    "phi-empty-row": (["green", "--phi", "bad-phi.json", "--targets", "ok-targets.json"],
                      {"bad-phi.json": "[[]]"}),
    "phi-empty": (["green", "--phi", "bad-phi.json", "--targets", "ok-targets.json"],
                  {"bad-phi.json": "[]"}),
    "genus-known-negative": (["genus", "--genus-known", "-3"], {}),
    "phi-no-z2": (["green", "--phi", "bad-phi.json", "--targets", "ok-targets.json"],
                  {"bad-phi.json": "[[[1, 0]]]"}),
    "phi-z1-only": (["green", "--phi", "bad-phi.json", "--targets", "ok-targets.json"],
                    {"bad-phi.json": "[[[0, 0]], [[1, 0]]]"}),
}
# Non-finite numbers in an input file, and Green targets off the patch |q - center| < radius:
# name -> (argv, the file's name, its text).
_NON_FINITE = {
    "phi-nan": (["green", "--phi", "f.json", "--targets", "ok-targets.json"], "f.json",
                "[[[NaN, 0.0], [1.0, 0.0]]]"),
    "phi-infinity": (["green", "--phi", "f.json", "--targets", "ok-targets.json"], "f.json",
                     "[[[0.0, 0.0], [Infinity, 0.0]]]"),
    "q-star-nan": (["green", "--phi", "ok-phi.json", "--targets", "f.json"], "f.json",
                   '{"q_star": [NaN, 0.1], "points": [[0.5, 0.0]]}'),
    "target-infinity": (["green", "--phi", "ok-phi.json", "--targets", "f.json"], "f.json",
                        '{"q_star": [0.2, 0.1], "points": [[0.5, -Infinity]]}'),
    "target-outside-patch": (["green", "--phi", "ok-phi.json", "--targets", "f.json"], "f.json",
                             '{"q_star": [0.2, 0.1], "points": [[5.0, 0.0]]}'),
    "q-star-on-patch-edge": (["green", "--phi", "ok-phi.json", "--patch", "0.5,0.5",
                              "--targets", "f.json"], "f.json",
                             '{"q_star": [1.0, 0.0], "points": [[0.5, 0.0]]}'),
    "germs-nan": (["reconstruct", "--boundary", "line.json", "--p", "1", "--germs", "f.json"],
                  "f.json", '{"germs": [{"b": [NaN, 0.0], "taylor": [[1.0, 0.0]]}]}'),
    "germs-infinity": (["shock-verify", "--boundary", "conic.json", "--p", "1",
                        "--germs", "f.json"], "f.json",
                       '{"germs": [{"b": [0.1, 0.0], "taylor": [[Infinity, 0.0]]}]}'),
    "lambda-nan": (["genus", "--lambda", "f.json"], "f.json", '{"num": [NaN]}'),
    "lambda-infinity": (["genus", "--lambda", "f.json"], "f.json",
                        '{"num": [1.0], "den": [1.0, Infinity]}'),
}
MALFORMED.update((name, (argv, {f: text})) for name, (argv, f, text) in _NON_FINITE.items())
# Boundary files whose loops, samples or number pairs have the wrong JSON type.
_BAD_BOUNDARIES = {
    "loops-a-number": '{"loops": 5}',
    "top-level-list": "[1, 2]",
    "w-null": '{"loops": [{"orientation": 1, "samples": [{"t": 0.0, "w": null}]}]}',
    "pair-one-element": ('{"loops": [{"orientation": 1, "samples": '
                         '[{"t": 0.0, "w": [[1.0], [0.5, 0.5], [1.5, 0.0]]}]}]}'),
    "pair-string": ('{"loops": [{"orientation": 1, "samples": '
                    '[{"t": 0.0, "w": [["x", 1.0], [0.5, 0.5], [1.5, 0.0]]}]}]}'),
}


def _interior_with(path, value):
    """The interior line at 32 samples as JSON text, its entry at path (from the loop) = value."""
    obj = boundary_to_json(oracles.interior_line(n=32))
    node = obj["loops"][0]
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return json.dumps(obj)


# Entries that are not JSON numbers, or not finite ones, in an otherwise valid file, each read
# as a number before: name -> (the key the error names, text).
_BOUNDARY_NOT_NUMBERS = {
    "t-string": ("t", _interior_with(("samples", 1, "t"), repr(2 * np.pi / 32))),
    "t-false": ("t", _interior_with(("samples", 0, "t"), False)),
    "t-400-digits": ("t", _interior_with(("samples", 2, "t"), 10 ** 400)),
    "w-pair-bools": ("w", _interior_with(("samples", 3, "w", 0), [True, False])),
    "dw-pair-bools": ("dw", _interior_with(("samples", 3, "dw", 0), [False, False])),
    "orientation-true": ("orientation", _interior_with(("orientation",), True)),
    "orientation-string": ("orientation", _interior_with(("orientation",), "1")),
    "orientation-fraction": ("orientation", _interior_with(("orientation",), 1.7)),
    "orientation-null": ("orientation", _interior_with(("orientation",), None)),
    "orientation-nan": ("orientation", _interior_with(("orientation",), float("nan"))),
    "orientation-infinity": ("orientation", _interior_with(("orientation",), float("inf"))),
    "orientation-minus-infinity": ("orientation", _interior_with(("orientation",), -float("inf"))),
}
_BAD_BOUNDARIES.update((name, text) for name, (_, text) in _BOUNDARY_NOT_NUMBERS.items())
for _name, _text in _BAD_BOUNDARIES.items():
    MALFORMED["boundary-" + _name] = (["indicators", "--boundary", "bad.json"],
                                      {"bad.json": _text})
# The same rule for every input file: name -> (argv reading f.json, the key, f.json's text); in
# the files other than boundaries, one leaf (@) of a valid file is replaced by each entry of
# _NOT_A_NUMBER.
_NOT_NUMBERS = {name: (["indicators", "--boundary", "f.json"], key, text)
                for name, (key, text) in _BOUNDARY_NOT_NUMBERS.items()}
_GREEN_PHI = ["green", "--phi", "f.json", "--targets", "ok-targets.json"]
_GREEN_TARGETS = ["green", "--phi", "ok-phi.json", "--targets", "f.json"]
_GERMS = ["reconstruct", "--boundary", "line.json", "--p", "1", "--germs", "f.json"]
_LEAF_FILES = {
    "phi": (_GREEN_PHI, "phi", "[[[0, 0], [1, 0]], [[@, 0], [0, 0]]]"),
    "q-star": (_GREEN_TARGETS, "q_star", '{"q_star": [0.2, @], "points": [[0.5, 0.0]]}'),
    "points": (_GREEN_TARGETS, "points", '{"q_star": [0.2, 0.1], "points": [[0.5, @]]}'),
    "germ-b": (_GERMS, "b", '{"germs": [{"b": [@, 0.0], "taylor": [[1.0, 0.0]]}]}'),
    "germ-taylor": (_GERMS, "taylor", '{"germs": [{"b": [0.1, 0.0], "taylor": [[@, 0.0]]}]}'),
    "lambda-num": (["genus", "--lambda", "f.json"], "num", '{"num": [@]}'),
    "lambda-den": (["genus", "--lambda", "f.json"], "den", '{"num": [1.0], "den": [1.0, @]}'),
}
_NOT_A_NUMBER = {"true": "true", "false": "false", "string": '"0.5"', "null": "null",
                 "401-digits": "1" + "0" * 400, "nan": "NaN", "third-entry": "0.5, 0, 7"}
for _kind, (_argv, _key, _text) in _LEAF_FILES.items():
    for _name, _leaf in _NOT_A_NUMBER.items():
        if _kind.startswith("lambda") and _name == "third-entry":     # no pairs: nest instead
            _name, _leaf = "nested", "[0.5]"
        _NOT_NUMBERS[f"{_kind}-leaf-{_name}"] = (_argv, _key, _text.replace("@", _leaf))
        MALFORMED[f"{_kind}-leaf-{_name}"] = (_argv, {"f.json": _text.replace("@", _leaf)})
# An input path that is a directory, and outputs whose directory does not exist: E_IO.
MALFORMED.update({
    "boundary-directory": (["indicators", "--boundary", "."], {}),
    "make-oracle-out-no-dir": (["make-oracle", "--name", "conic", "--out", "nodir/x.json"], {}),
    "pipeline-out-no-dir": (["pipeline", "--boundary", "line.json", "--out", "nodir/p.json"], {}),
})


@pytest.mark.parametrize("argv,files", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_validation_error(workdir, argv, files):
    """Bad arguments and input files exit 1 with one JSON error object on stderr and nothing on
    stdout, under the suite's warnings-as-errors filter: no numpy warning comes first.  The
    error names the case's own input file."""
    ok = {"ok-phi.json": "[[[0.0, 0.0], [1.0, 0.0]]]",
          "ok-targets.json": '{"q_star": [0.2, 0.1], "points": [[0.5, 0.0]]}'}
    for name, text in {**ok, **files}.items():
        (workdir / name).write_text(text)
    code, out, err = run_cli(argv, workdir)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err)["error"] in ("E_VALIDATION", "E_IO")
    assert all(f" {name}" in json.loads(err)["detail"] for name in files)


@pytest.mark.parametrize("argv, detail", [
    (["indicators", "--boundary", "."], "cannot read boundary file .: Is a directory"),
    (["genus", "--lambda", "."], "cannot read lambda file .: Is a directory"),
    (["make-oracle", "--name", "conic", "--out", "nodir/x.json"],
     "cannot write nodir/x.json: No such file or directory"),
    (["pipeline", "--boundary", "line.json", "--out", "nodir/p.json"],
     "cannot write nodir/p.cloud.json: No such file or directory"),
])
def test_path_that_cannot_be_opened_is_an_io_error(workdir, argv, detail):
    """Any OSError on opening an input or an output file is E_IO, naming the path."""
    code, out, err = run_cli(argv, workdir)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "E_IO", "detail": detail}


@pytest.mark.parametrize("name", _NOT_NUMBERS)
def test_non_number_entry_names_its_key(workdir, name):
    """A bool, a string, a fraction, null, NaN, +-Infinity, a number past the float range or a
    third entry in a pair where a file needs a number exits 1 naming the file and the key."""
    argv, key, text = _NOT_NUMBERS[name]
    (workdir / "f.json").write_text(text)
    code, out, err = run_cli(argv, workdir)
    assert code == 1 and out == "" and err.count("\n") == 1
    detail = json.loads(err)["detail"]
    assert json.loads(err)["error"] == "E_VALIDATION" and f"'{key}'" in detail
    assert " f.json:" in detail


# Small valid input files for the contract search below: name -> (argv reading h.json, its value).
_SMALL_FILES = {
    "phi": (["green", "--phi", "h.json", "--targets", "ok-targets.json"],
            [[[0.0, 0.0], [1.0, 0.0]], [[0.1, 0.0], [0.0, 0.0]]]),
    "targets": (["green", "--phi", "ok-phi.json", "--targets", "h.json"],
                {"q_star": [0.2, 0.1], "points": [[0.5, 0.0], [-0.3, 0.2]]}),
    "germs": (["reconstruct", "--boundary", "line.json", "--p", "1", "--angles", "1",
               "--radii", "2", "--xfrac", "0", "--germs", "h.json"],
              {"germs": [{"b": [0.1, 0.0], "taylor": [[0.2, 0.0], [0.0, 0.1]]}]}),
    "lambda": (["genus", "--lambda", "h.json"], {"num": [1.0], "den": [1.0, 2.0, 1.0]}),
}
# Mostly numbers, small, of any size or at the edges of the float range, so that runs get past
# the reader; then any JSON value.
_JSON_VALUES = st.one_of(
    st.floats(-2, 2), st.integers(-3, 3), st.floats(),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 64 + 1, 1e308, -1e-300, 5e-324, -0.0]),
    st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=3) | st.floats(),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=6))


def _leaf_paths(v, path=()):
    """The index path of every number in the JSON value v."""
    if isinstance(v, dict):
        return [p for k, x in v.items() for p in _leaf_paths(x, path + (k,))]
    if isinstance(v, list):
        return [p for i, x in enumerate(v) for p in _leaf_paths(x, path + (i,))]
    return [path]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(_SMALL_FILES)), data=st.data(), value=_JSON_VALUES)
def test_one_replaced_leaf_meets_the_exit_contract(workdir, name, data, value):
    """One number of a small valid phi, targets, germs or lambda file replaced by any JSON value:
    exit 0 with finite JSON on stdout and nothing on stderr, or exit 1 (E_VALIDATION) or 2
    (E_NUMERIC) with one JSON error object on stderr and nothing on stdout; no exception and
    no warning escapes main."""
    argv, obj = _SMALL_FILES[name]
    obj = json.loads(json.dumps(obj))
    *path, last = data.draw(st.sampled_from(_leaf_paths(obj)))
    node = obj
    for k in path:
        node = node[k]
    node[last] = value
    for f, text in {"h.json": json.dumps(obj), "ok-phi.json": "[[[0.0, 0.0], [1.0, 0.0]]]",
                    "ok-targets.json": '{"q_star": [0.2, 0.1], "points": [[0.5, 0.0]]}'}.items():
        (workdir / f).write_text(text)
    code, out, err = run_cli(argv, workdir)
    if code == 0:
        assert err == "" and _strict_json(out) is not None
        return
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == {1: "E_VALIDATION", 2: "E_NUMERIC"}[code]


@pytest.mark.parametrize("key, where", [("t", ()), ("w", (1, 0)), ("dw", (2, 1))])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_sample_is_a_validation_error(workdir, key, where, value):
    """A NaN or +-inf in a sample's t, w or dw exits 1 before normalization, with no warning."""
    obj = json.loads((workdir / "line.json").read_text())
    sample = obj["loops"][0]["samples"][5]
    if where:
        sample[key][where[0]][where[1]] = value
    else:
        sample[key] = value
    (workdir / "non-finite.json").write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["indicators", "--boundary", "non-finite.json"], workdir)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == "E_VALIDATION" and f"'{key}'" in err


def test_negative_q_inf_is_a_numeric_error(workdir):
    """--genus-known 0 on the flat disc estimates q_inf = -1: a typed error, not a count."""
    code, out, err = run_cli(["genus", "--genus-known", "0"], workdir)
    assert code == 2 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "E_NUMERIC" and obj["type"] == "NegativeCount"
    assert "-1 < 0" in obj["detail"]


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(), st.sampled_from([0.0, -0.0, float("inf"), -float("inf"), float("nan")]),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.complex_numbers().map(np.complex128),
    st.lists(st.floats(), max_size=3).map(np.array),
)
_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=24)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_VALUES)
def test_dumps_equals_generic_writer(value):
    """The exact-type paths of the writer give the bytes of the isinstance route.

    A value holding inf or nan is a ValueError on both routes: JSON has no such number.
    """
    def outcome(write):
        try:
            return write(value)
        except ValueError:
            return ValueError
    assert outcome(cli.dumps) == outcome(lambda v: fmt_generic(v) + "\n")


def test_negative_radius_is_inside_the_domain(workdir):
    """--radii -2 puts y on the circle |y| = 2 rho, inside Z like --radii 2."""
    runs = [run_cli(["reconstruct", "--boundary", "twoline.json", "--p", "2", "--angles", "4",
                     "--radii", r], workdir) for r in ("-2", "2")]
    assert [code for code, _, _ in runs] == [0, 0]
    assert json.loads(runs[0][1])["points"] and runs[0][1] != runs[1][1]


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cached_parser_after_a_bad_option(workdir):
    """A bad option (exit 2 with usage) and then a good call give what fresh parsers give."""
    import contextlib
    import io

    calls = [["indicators", "--boundary", str(workdir / "line.json"), "--mmax", "x"],
             ["indicators", "--boundary", str(workdir / "line.json"), "--mmax", "4"]]

    def run_both(fresh):
        seen = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as e:     # argparse's exit on a bad option
                    code = e.code
            seen.append((code, out.getvalue(), err.getvalue()))
        return seen

    cached, fresh = run_both(False), run_both(True)
    assert cached == fresh
    (bad_code, _, usage), (good_code, out, _) = cached
    assert bad_code == 2 and usage.startswith("usage: cfr indicators")
    assert good_code == 0 and json.loads(out)["delta"] == 1


def _strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [["fit-infinity", "--mmax", "2"], ["pipeline", "--mmax", "0"],
                                  ["pipeline", "--mmax", "1"]])
def test_fit_without_singular_values_writes_cond_null(workdir, argv):
    """Two-line's r = 0 (E0) at these --mmax has a singular value 0: cond is null, not inf."""
    code, out, err = run_cli(argv + ["--boundary", "twoline.json"], workdir)
    assert code == 0 and err == ""
    obj = _strict_json(out)
    fit = obj["fit"] if argv[0] == "pipeline" else obj
    assert fit["cond"] is None and fit["confined"] and fit["r"] == 0


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan"),
                                   complex(1.0, float("inf")), np.float64("nan")])
def test_writer_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError, match="non-finite"):
        cli.dumps({"x": [value]})


@pytest.mark.parametrize("cmd", ["pipeline", "reconstruct", "shock-verify"])
def test_auto_p_needs_an_accepted_fit(workdir, cmd):
    """--dmu 0 leaves no r under --tol: --p auto is a typed error, fit-infinity reports its best."""
    code, out, err = run_cli([cmd, "--boundary", "twoline.json", "--dmu", "0"], workdir)
    assert code == 2 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "E_NUMERIC" and obj["type"] == "FitNotAccepted"
    assert "r = 6" in obj["detail"] and "residual 2.351e-01" in obj["detail"]
    assert "confined = false" in obj["detail"]
    code, out, _ = run_cli(["fit-infinity", "--boundary", "twoline.json", "--dmu", "0"], workdir)
    fit = _strict_json(out)
    assert code == 0 and fit["r"] == 6 and fit["residual"] > 0.2 and not fit["confined"]


def test_missing_input_exit_code(workdir):
    code, _, err = run_cli(["indicators", "--boundary", "missing.json"], workdir)
    assert code == 1
    assert json.loads(err)["error"] == "E_IO"


def test_fit_infinity_cli(workdir):
    code, out, _ = run_cli(["fit-infinity", "--boundary", "ext.json"], workdir)
    assert code == 0
    obj = json.loads(out)
    assert obj["r"] == 1 and obj["confined"]
    assert abs(obj["B"][1][0] - 2.0) < 1e-3


def test_aliased_laurent_table_is_refused(tmp_path):
    """The conic at N = 16 cannot carry kmax = 12: its moments alias (the table is up to 165
    off the N = 4096 one) and the exactness residual reads 16, so laurent_extract raises
    and `cfr indicators --kmax 12` exits 2."""
    with pytest.raises(indicators.TruncationMismatch):
        indicators.laurent_extract(oracles.conic(n=16), kmax=12, mmax=12)
    assert run_cli(["make-oracle", "--name", "conic", "--samples", "16", "--out", "c16.json"],
                   tmp_path)[0] == 0
    code, out, err = run_cli(["indicators", "--boundary", "c16.json", "--kmax", "12"], tmp_path)
    assert (code, out) == (2, "")
    assert json.loads(err)["type"] == "TruncationMismatch"


def _w2_scaled(tmp_path, name, s2):
    """The oracle `name` with w2 and dw2 multiplied by s2, written to a file in tmp_path."""
    b = oracles.ORACLES[name]()
    loops = []
    for lp in b.loops:
        w, dw = lp.w.copy(), lp.dw.copy()
        w[:, 2] *= s2
        dw[:, 2] *= s2
        loops.append(BoundaryLoop(lp.t, w, dw))
    path = tmp_path / f"{name}-w2x{s2:g}.json"
    path.write_text(json.dumps(boundary_to_json(BoundaryData(loops, b.orientation))))
    return path.name


def _chordal_nearest(A, B):
    """Largest chordal distance from a row of A to its nearest row of B."""
    a, b = (X / np.linalg.norm(X, axis=1)[:, None] for X in (A, B))
    return float(np.max(np.min(np.linalg.norm(np.cross(a[:, None], b[None]), axis=2), axis=1)))


@pytest.mark.parametrize("name", ["two-line", "conic", "interior-line"])
def test_pipeline_takes_w2_times_4(tmp_path, name):
    """w2 and dw2 x 4 is the same curve in other coordinates; its moments are exact to
    4e-7, so the pipeline runs and gives the unscaled delta, r, p and points, each within
    1e-12 chordal once w2 is divided back.  At w2 x 16 the residual reaches 0.2 to 6 and
    the run exits 2."""
    runs = []
    for s2 in (1, 4):
        f = _w2_scaled(tmp_path, name, s2)
        code, _, err = run_cli(["pipeline", "--boundary", f, "--out", f"p{s2}.json"], tmp_path)
        assert code == 0, err
        report = json.loads((tmp_path / f"p{s2}.json").read_text())
        cloud = json.loads((tmp_path / f"p{s2}.cloud.json").read_text())
        W = np.array([[complex(*c) for c in pt["w"]] for pt in cloud["points"]]) / [1, 1, s2]
        runs.append(((report["delta"], report["fit"]["r"], report["p"], report["points"]), W))
    (key1, W1), (key4, W4) = runs
    assert key4 == key1 and len(W1) == key1[3] > 0
    assert max(_chordal_nearest(W4, W1), _chordal_nearest(W1, W4)) <= 1e-12
    code, _, err = run_cli(["pipeline", "--boundary", _w2_scaled(tmp_path, name, 16)], tmp_path)
    assert code == 2 and json.loads(err)["type"] == "TruncationMismatch"


def test_fit_infinity_refuses_inexact_moments(tmp_path):
    """Interior line with w2 x 1e4: the moments round far past the tolerance, and the fit's
    own table refuses them (unchecked, that table gives r = 1, confined, with residual
    4.9e-8, where r is 0)."""
    f = _w2_scaled(tmp_path, "interior-line", 1e4)
    code, out, err = run_cli(["fit-infinity", "--boundary", f], tmp_path)
    assert (code, out) == (2, "")
    assert json.loads(err)["type"] == "TruncationMismatch"


@pytest.mark.parametrize("mmax", [0, 1, 2])
def test_fit_that_E0_does_not_determine_is_typed(workdir, mmax):
    """At --mmax 0..2 the exterior line's (E0) leaves A and B below rank 2r at every r: the
    run is E_NUMERIC Underdetermined naming mmax, not r = 1, B = 1, A = 0 with residual 0."""
    for cmd in ("fit-infinity", "pipeline"):
        code, out, err = run_cli([cmd, "--boundary", "ext.json", "--mmax", str(mmax)], workdir)
        assert (code, out) == (2, "")
        e = json.loads(err)
        assert (e["error"], e["type"]) == ("E_NUMERIC", "Underdetermined")
        assert f"mmax = {mmax}" in e["detail"]


def test_fit_at_mmax_3_finds_the_exterior_line(workdir):
    """--mmax 3 is enough for the exterior line: r = 1, B = 1 + 2y and A = 2 within 1e-12."""
    code, out, _ = run_cli(["fit-infinity", "--boundary", "ext.json", "--mmax", "3"], workdir)
    assert code == 0
    obj = json.loads(out)
    assert obj["r"] == 1
    assert np.allclose([complex(*c) for c in obj["B"]], [1, 2], rtol=0, atol=1e-12)
    assert np.allclose([complex(*c) for c in obj["A"]], [2], rtol=0, atol=1e-12)


def test_pipeline_line_membership(workdir):
    code, out, _ = run_cli(["pipeline", "--boundary", "line.json",
                            "--angles", "8", "--out", "pipe.json"], workdir)
    assert code == 0
    obj = json.loads((workdir / "pipe.json").read_text())
    assert obj["p"] == 1
    cloud = json.loads((workdir / "pipe.cloud.json").read_text())
    for entry in cloud["points"]:
        w = [complex(p[0], p[1]) for p in entry["w"]]
        z1, z2 = w[1] / w[0], w[2] / w[0]
        assert abs(z2 - 1.0 - 0.5 * z1) < 1e-7


def test_reconstruct_csv_columns(workdir):
    code, _, _ = run_cli(["reconstruct", "--boundary", "line.json", "--p", "1",
                          "--angles", "6", "--out", "cloud.csv"], workdir)
    assert code == 0
    lines = (workdir / "cloud.csv").read_text().strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert all(len(row.split(",")) == 10 for row in lines[1:])


def _cloud_json_reference(cloud):
    """The JSON cloud by the generic writer, one value at a time."""
    points = [{"w": [complex(p.w0), complex(p.w1), complex(p.w2)],
               "src": [complex(z.x), complex(z.y)], "multiplicity": m}
              for p, z, m in zip(cloud.points, cloud.source, cloud.multiplicity)]
    skipped = [{"z": [complex(z.x), complex(z.y)], "reason": msg} for z, msg in cloud.skipped]
    return fmt_generic({"points": points, "skipped": skipped}) + "\n"


def _cloud_csv_reference(cloud):
    """The CSV cloud with one format(x, '.17g') per number."""
    rows = [",".join(format(f, ".17g") for v in (p.w0, p.w1, p.w2, z.x, z.y)
                     for f in (complex(v).real, complex(v).imag))
            for p, z in zip(cloud.points, cloud.source)]
    return "\n".join([cli.CSV_HEADER] + rows) + "\n"


@pytest.mark.parametrize("fname", ["line.json", "ext.json", "twoline.json", "conic.json"])
def test_pipeline_cloud_bytes(workdir, monkeypatch, fname):
    """The pipeline's JSON and CSV clouds hold the bytes of the per-value writers."""
    seen = []
    write = cli._write_cloud
    monkeypatch.setattr(cli, "_write_cloud", lambda c, path: (seen.append(c), write(c, path)))
    for csv in ([], ["--csv"]):
        code, _, _ = run_cli(["pipeline", "--boundary", fname, "--out", "bytes.json"] + csv,
                             workdir)
        assert code == 0
    json_cloud, csv_cloud = seen
    assert (workdir / "bytes.cloud.json").read_text() == _cloud_json_reference(json_cloud)
    assert (workdir / "bytes.cloud.csv").read_text() == _cloud_csv_reference(csv_cloud)
    assert len(json_cloud) == len(csv_cloud) and (len(csv_cloud) == 0) == (fname == "ext.json")


_Z = LineParam(np.complex128(1e22 + 0.1j), np.complex128(complex(-0.0, 5e-324)))
_SYNTHETIC_CLOUDS = {
    "extremes": PointCloud(
        points=[ProjPoint(1.0, complex(-0.0, 5e-324), complex(0.1, -0.0)),
                ProjPoint(complex(0.5, 1e-300), -1.0, 0.25)],
        multiplicity=[1, 12],
        source=[_Z, LineParam(complex(0.1, -0.0), complex(5e-324, 1e22))],
        skipped=[(_Z, "discriminant 1.00e-20 below threshold")]),
    "empty": PointCloud(),
    "skipped-only": PointCloud(skipped=[(_Z, "a"), (LineParam(0.1j, -3.0 + 0j), "b")]),
}


@pytest.mark.parametrize("name", _SYNTHETIC_CLOUDS)
def test_cloud_writer_bytes(tmp_path, name):
    """-0.0, 5e-324, 1e22, 0.1, multiplicities 1 and 12, no points, only skipped lines."""
    cloud = _SYNTHETIC_CLOUDS[name]
    cli._write_cloud(cloud, str(tmp_path / "c.json"))
    cli._write_cloud(cloud, str(tmp_path / "c.csv"))
    assert (tmp_path / "c.json").read_text() == _cloud_json_reference(cloud)
    assert (tmp_path / "c.csv").read_text() == _cloud_csv_reference(cloud)


def test_byte_identical_runs(workdir):
    argv = ["pipeline", "--boundary", "twoline.json", "--angles", "6",
            "--out", "det.json"]
    run_cli(argv, workdir)
    first = (workdir / "det.json").read_bytes()
    first_cloud = (workdir / "det.cloud.json").read_bytes()
    run_cli(argv, workdir)
    assert (workdir / "det.json").read_bytes() == first
    assert (workdir / "det.cloud.json").read_bytes() == first_cloud


def test_shock_verify_cli(workdir):
    code, out, _ = run_cli(["shock-verify", "--boundary", "conic.json",
                            "--p", "1"], workdir)
    assert code == 0
    assert json.loads(out)["residual"] < 1e-5


def test_shock_verify_through_a_node(workdir):
    """A grid line through the node of the two lines gives a residual, with no line skipped.

    With --step 0.25 the first grid column is x = -1, whose line passes through
    the node (z1, z2) = (0, 1); S_k come from the power sums, so no fiber is
    rooted, and the residual is that of the closed-form S_1, S_2 of the sheets
    h = -(x + 1) / (y + a), a = 1/2, -1/3.
    """
    from cfr import shock
    from cfr.geometry import rho
    code, out, err = run_cli(["shock-verify", "--boundary", "twoline.json", "--p", "2",
                              "--step", "0.25"], workdir)
    assert code == 0, err
    n, step = 9, 0.25
    xs = (np.arange(n) - n // 2) * step
    b = cli._read(workdir / "twoline.json", "boundary", boundary_from_json)
    ys = 2.5 * rho(b) + (np.arange(n) - n // 2) * step
    assert xs[0] == -1.0
    ha, hb = (-(xs[:, None] + 1.0) / (ys[None, :] + a) for a in (0.5, -1.0 / 3.0))
    expect = shock.system_residual([ha + hb, ha * hb], step, step)
    assert abs(json.loads(out)["residual"] - expect) < 1e-12


@pytest.fixture(scope="module")
def infinity_unions(workdir):
    """Unions with points at infinity: interior lines (orientation 1) and exterior ones (-1).

    int-ext.json: the line of slope 0.5 inside, -1/3 outside; delta = 0, r = 1, p = 1.
    int-int-ext.json: 0.5 and -1/3 inside, 0.25j outside; delta = 1, r = 1, p = 2.
    Every loop is the unit circle on z2 = 1 + a z1, so the sheets are -(x + 1) / (y + a)
    over the interior slopes a.
    """
    from cfr import oracles
    from cfr.geometry import BoundaryData, boundary_to_json
    for fname, spec in [("int-ext.json", [(0.5, 1), (-1.0 / 3.0, -1)]),
                        ("int-int-ext.json", [(0.5, 1), (-1.0 / 3.0, 1), (0.25j, -1)])]:
        b = BoundaryData([oracles._line_loop(a, 1024) for a, _ in spec], [s for _, s in spec])
        (workdir / fname).write_text(json.dumps(boundary_to_json(b)))
    return workdir


def test_pipeline_auto_subtracts_the_fit_rational_part(infinity_unions):
    """--p auto or 1 with r = 1, p = 1 and no --germs takes P_1 = R = A/B + x B'/B: every
    point lies on the interior line's sheet -(x + 1) / (y + 1/2)."""
    for p in ("auto", "1"):
        code, _, err = run_cli(["pipeline", "--boundary", "int-ext.json", "--out", "ie.json",
                                "--p", p], infinity_unions)
        assert code == 0, err
        rep = json.loads((infinity_unions / "ie.json").read_text())
        assert (rep["delta"], rep["fit"]["r"], rep["p"], rep["skipped"]) == (0, 1, 1, 0)
        assert np.allclose([complex(*c) for c in rep["fit"]["B"]], [1, -3], atol=1e-12)
        points = json.loads((infinity_unions / "ie.cloud.json").read_text())["points"]
        assert len(points) == rep["points"] == 144
        for pt in points:
            (w0, w1, _), (x, y) = ([complex(*c) for c in pt[k]] for k in ("w", "src"))
            assert abs(w1 / w0 + (x + 1) / (y + 0.5)) < 1e-12


def test_pipeline_auto_with_points_at_infinity_and_two_sheets_is_typed(infinity_unions):
    """r = 1 and p = 2 with no --germs: P_2 needs the germs' jets, so the run is E_NUMERIC
    GermsRequired, naming r and p, and prints no points.  pipeline has its fit at hand, so
    an explicit --p 2 is held to the same rule, also on the p = 1 union."""
    runs = [("pipeline", "auto", "int-int-ext.json"), ("reconstruct", "auto", "int-int-ext.json"),
            ("pipeline", "2", "int-int-ext.json"), ("pipeline", "2", "int-ext.json")]
    for cmd, p, union in runs:
        code, out, err = run_cli([cmd, "--boundary", union, "--p", p], infinity_unions)
        assert (code, out) == (2, "")
        e = json.loads(err)
        assert (e["error"], e["type"]) == ("E_NUMERIC", "GermsRequired")
        assert "r = 1" in e["detail"] and "p = 2" in e["detail"]


def test_pipeline_on_conic_and_two_lines_is_the_obstruction(workdir):
    """Conic + 2 lines (delta = 3): the E-table row every r needs meets a y^-1 term, so
    pipeline exits 2 with that ResidueObstruction and prints nothing."""
    from cfr.geometry import BoundaryData
    con = oracles.conic(n=1024)
    b = BoundaryData(con.loops + [oracles._line_loop(a, 1024) for a in (0.5, -1.0 / 3.0)],
                     [1, 1, 1])
    (workdir / "conic-2-lines.json").write_text(json.dumps(boundary_to_json(b)))
    code, out, err = run_cli(["pipeline", "--boundary", "conic-2-lines.json"], workdir)
    assert (code, out) == (2, "")
    assert err == ('{"error":"E_NUMERIC","type":"ResidueObstruction",'
                   '"detail":"y^-1 coefficient of size 1.00e+00"}\n')


def test_green_cli(workdir):
    from cfr import green
    (workdir / "phi.json").write_text(json.dumps([[[0.0, 0.0], [1.0, 0.0]]]))
    for points in ([[0.5, 0.0]], [[0.5, 0.0], [-0.3, 0.2], [0.0, -0.4]]):
        (workdir / "targets.json").write_text(
            json.dumps({"q_star": [0.2, 0.1], "points": points}))
        code, out, _ = run_cli(["green", "--phi", "phi.json",
                                "--targets", "targets.json"], workdir)
        assert code == 0
        # the batch writes exactly what one green_value call per point gives
        model = green.flat_disc_model()
        vals = [green.green_value(0.2 + 0.1j, complex(*p), model) for p in points]
        assert out == cli.dumps({"q_star": 0.2 + 0.1j, "values": vals})


CURVED_PHIS = {
    "graph": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [[-0.5, 0.2], [0.0, 0.0]]],
    "implicit": [[[0.0, 0.0], [1.0, 0.0], [0.3, 0.1]], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                 [[-0.35, 0.05], [0.0, 0.0], [0.0, 0.0]]],
}


@pytest.mark.parametrize("name", sorted(CURVED_PHIS))
def test_green_cli_matches_per_target_reference(workdir, name):
    """cfr green on curved patches: within 1e-13 of the route that builds every term per target."""
    from cfr import green
    from reference import green_values_per_target
    points = [[0.5, 0.0], [-0.3, 0.2], [0.0, -0.4]]
    (workdir / f"phi-{name}.json").write_text(json.dumps(CURVED_PHIS[name]))
    (workdir / f"targets-{name}.json").write_text(
        json.dumps({"q_star": [0.2, 0.1], "points": points}))
    code, out, _ = run_cli(["green", "--phi", f"phi-{name}.json",
                            "--targets", f"targets-{name}.json"], workdir)
    assert code == 0
    model = green.CurveModel(cli._phi(CURVED_PHIS[name]))
    refs = green_values_per_target(0.2 + 0.1j, [complex(*p) for p in points], model)
    assert max(abs(v - r) for v, r in zip(json.loads(out)["values"], refs)) <= 1e-13


def test_green_cli_phi_without_z2_is_a_validation_error(workdir):
    """Phi = z1 has no z2 term, so it is not a graph over the z1 chart: exit 1, not NaN values."""
    (workdir / "phi-z1.json").write_text(json.dumps([[[0, 0], [0, 0]], [[1, 0], [0, 0]]]))
    (workdir / "targets-z1.json").write_text(
        json.dumps({"q_star": [0.2, 0.1], "points": [[0.5, 0.0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["green", "--phi", "phi-z1.json",
                                  "--targets", "targets-z1.json"], workdir)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "not a graph over the z1 chart" in err
    assert json.loads(err)["error"] == "E_VALIDATION"


def test_green_cli_branch_point_is_a_numeric_error(workdir):
    """Phi = 1e-12 z2: dPhi/dz2 vanishes, so z1 is no local coordinate of the curve and no
    finer mesh helps: exit 2 as BranchPoint."""
    (workdir / "phi-tiny.json").write_text(json.dumps([[[0, 0], [1e-12, 0]]]))
    (workdir / "targets-tiny.json").write_text(
        json.dumps({"q_star": [0.2, 0.1], "points": [[0.5, 0.0]]}))
    code, out, err = run_cli(["green", "--phi", "phi-tiny.json",
                              "--targets", "targets-tiny.json"], workdir)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "E_NUMERIC", "type": "BranchPoint",
                               "detail": "dPhi/dz2 vanished on the patch"}


def test_genus_cli(workdir):
    code, out, _ = run_cli(["genus", "--model", "annulus", "--lambda", "flat",
                            "--omega", "zdz"], workdir)
    assert code == 0
    assert abs(json.loads(out)["integral"]) < 1e-6
    code, out, _ = run_cli(["genus", "--model", "disc", "--lambda", "fs",
                            "--omega", "zdz", "--genus-known", "0"], workdir)
    assert json.loads(out)["q_inf"] == 1


def test_genus_cli_nan_density_is_a_numeric_error(workdir):
    """0/0 on the unit circle: exit 2 with one error line, not a NaN integral and a warning."""
    (workdir / "lam-nan.json").write_text(json.dumps({"num": [1, -1], "den": [1, -1]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["genus", "--lambda", "lam-nan.json"], workdir)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "E_NUMERIC"
    assert json.loads(err)["type"] == "ValueError"


def test_numeric_error_exit_code(workdir):
    # a line through the boundary: indicators fail numerically via shock-verify
    # on a bogus p; easier: green with coincident points
    (workdir / "phi2.json").write_text(json.dumps([[[0.0, 0.0], [1.0, 0.0]]]))
    (workdir / "t2.json").write_text(json.dumps({"q_star": [0.2, 0.0], "points": [[0.2, 0.0]]}))
    code, _, err = run_cli(["green", "--phi", "phi2.json", "--targets", "t2.json"],
                           workdir)
    assert code == 2
    assert json.loads(err)["error"] == "E_NUMERIC"


def run_process(argv, cwd):
    """Run `python -m cfr` in its own process, capturing stdout/stderr."""
    import cfr

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cfr.__file__)))
    inherited = os.environ.get("PYTHONPATH", "")
    env = dict(os.environ,
               PYTHONPATH=pkg_root + (os.pathsep + inherited if inherited else ""))
    return subprocess.run([sys.executable, "-m", "cfr", *argv],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_entrypoint_subprocess(workdir):
    """The command line runs as its own process and keeps main's exit codes."""
    r = run_process(["genus", "--model", "annulus"], workdir)
    assert r.returncode == 0
    assert "integral" in r.stdout
    r = run_process(["make-oracle", "--name", "nonsense"], workdir)
    assert r.returncode == 1
    assert json.loads(r.stderr)["error"] == "E_VALIDATION"


@pytest.mark.parametrize("cmd", ["pipeline", "fit-infinity", "shock-verify"])
def test_rank_deficient_fit_keeps_stderr_empty(workdir, cmd):
    """The two-line fit has a mu nullspace; a successful run still writes nothing to stderr."""
    r = run_process([cmd, "--boundary", "twoline.json"], workdir)
    assert r.returncode == 0
    assert r.stderr == ""


def test_genus_lambda_from_file(workdir):
    (workdir / "fs.json").write_text(json.dumps({"num": [1.0], "den": [1.0, 2.0, 1.0]}))
    code, out, _ = run_cli(["genus", "--model", "disc", "--lambda", "fs.json",
                            "--omega", "zdz", "--genus-known", "0"], workdir)
    assert code == 0
    assert json.loads(out)["q_inf"] == 1


def test_pipeline_runs_each_stage_once(workdir, monkeypatch):
    """One pipeline run: one moment table, one line-kernel pass.

    The counts pin the batched sweep: a per-line route would call the line
    kernel and the root solver once per line.  Without germs every P_k is
    zero and is never evaluated.
    """
    from cfr import indicators, infinity, symmetric
    calls = {"moments": 0, "line kernel": 0, "batched roots": 0, "P_k": 0}

    def counted(key, fn, when=lambda *a: True):
        def wrapper(*args, **kwargs):
            calls[key] += bool(when(*args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(indicators, "_moment_integrals",
                        counted("moments", indicators._moment_integrals))
    monkeypatch.setattr(indicators, "G_lines", counted("line kernel", indicators.G_lines))
    monkeypatch.setattr(infinity.Correction, "__call__",
                        counted("P_k", infinity.Correction.__call__))
    monkeypatch.setattr(symmetric, "roots", counted("batched roots", symmetric.roots,
                                                    lambda c: np.ndim(c) == 2))
    code, _, _ = run_cli(["pipeline", "--boundary", "twoline.json", "--out", "once.json"],
                         workdir)
    assert code == 0
    assert calls == {"moments": 1, "line kernel": 1, "batched roots": 1, "P_k": 0}


def test_germs_run_evaluates_each_Pk_once(workdir, monkeypatch):
    """With germs and --p 2, the sweep evaluates P_1 and P_2 once each, on every line at once."""
    from cfr import infinity
    calls = []
    call = infinity.Correction.__call__

    def counted(self, x, y):
        calls.append((self.k, np.shape(x)))
        return call(self, x, y)

    monkeypatch.setattr(infinity.Correction, "__call__", counted)
    (workdir / "far-germ.json").write_text(
        '{"germs": [{"b": [0.1, 0.0], "taylor": [[0.2, 0.0], [0.0, 0.1], [0.0, 0.0]]}]}')
    code, out, err = run_cli(["reconstruct", "--boundary", "twoline.json", "--p", "2",
                              "--germs", "far-germ.json", "--out", "germs-cloud.json"], workdir)
    assert code == 0, err
    assert calls == [(1, (144,)), (2, (144,))]
