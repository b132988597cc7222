import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfr import cli
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
    from cfr.geometry import load_boundary, rho
    b = load_boundary(workdir / "line.json")
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
    "patch-one-field": (["green", "--phi", "ok-phi.json", "--patch", "0",
                         "--targets", "ok-targets.json"], {}),
    "phi-not-json": (["green", "--phi", "bad-phi.json", "--targets", "ok-targets.json"],
                     {"bad-phi.json": "[[[0, 0], [1, 0]]"}),
    "targets-without-q-star": (["green", "--phi", "ok-phi.json",
                                "--targets", "bad-targets.json"],
                               {"bad-targets.json": '{"points": [[0.5, 0.0]]}'}),
    "lambda-without-num": (["genus", "--lambda", "bad-lambda.json"],
                           {"bad-lambda.json": '{"den": [1.0]}'}),
}
# Boundary files whose loops, samples or number pairs have the wrong JSON type.
_BAD_BOUNDARIES = {
    "loops-a-number": '{"loops": 5}',
    "top-level-list": "[1, 2]",
    "orientation-null": '{"loops": [{"orientation": null, "samples": []}]}',
    "w-null": '{"loops": [{"orientation": 1, "samples": [{"t": 0.0, "w": null}]}]}',
    "pair-one-element": ('{"loops": [{"orientation": 1, "samples": '
                         '[{"t": 0.0, "w": [[1.0], [0.5, 0.5], [1.5, 0.0]]}]}]}'),
    "pair-string": ('{"loops": [{"orientation": 1, "samples": '
                    '[{"t": 0.0, "w": [["x", 1.0], [0.5, 0.5], [1.5, 0.0]]}]}]}'),
}
for _name, _text in _BAD_BOUNDARIES.items():
    MALFORMED["boundary-" + _name] = (["indicators", "--boundary", "bad.json"],
                                      {"bad.json": _text})


@pytest.mark.parametrize("argv,files", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_validation_error(workdir, argv, files):
    """Bad arguments and input files exit 1 with one JSON error object on stderr."""
    files = {"ok-phi.json": "[[[0.0, 0.0], [1.0, 0.0]]]",
             "ok-targets.json": '{"q_star": [0.2, 0.1], "points": [[0.5, 0.0]]}', **files}
    for name, text in files.items():
        (workdir / name).write_text(text)
    code, out, err = run_cli(argv, workdir)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err)["error"] in ("E_VALIDATION", "E_IO")


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
    """The exact-type paths of the writer give the bytes of the isinstance route."""
    assert cli.dumps(value) == fmt_generic(value) + "\n"


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


def test_green_cli_phi_without_z2_is_a_numeric_error(workdir):
    """Phi = z1 has dPhi/dz2 = 0 everywhere: exit 2, not NaN values."""
    (workdir / "phi-z1.json").write_text(json.dumps([[[0, 0], [0, 0]], [[1, 0], [0, 0]]]))
    (workdir / "targets-z1.json").write_text(
        json.dumps({"q_star": [0.2, 0.1], "points": [[0.5, 0.0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["green", "--phi", "phi-z1.json",
                                  "--targets", "targets-z1.json"], workdir)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "E_NUMERIC"


def test_genus_cli(workdir):
    code, out, _ = run_cli(["genus", "--model", "annulus", "--lambda", "flat",
                            "--omega", "zdz"], workdir)
    assert code == 0
    assert abs(json.loads(out)["integral"]) < 1e-6
    code, out, _ = run_cli(["genus", "--model", "disc", "--lambda", "fs",
                            "--omega", "zdz", "--genus-known", "0"], workdir)
    assert json.loads(out)["q_inf"] == 1


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
    """One pipeline run: one moment table, one line-kernel pass, one cross-check.

    The counts pin the batched sweep: a per-line route would call the line
    kernel and the root solver once per line.  Without germs every P_k is
    zero and is never evaluated.
    """
    from cfr import indicators, infinity, symmetric
    from cfr.geometry import load_boundary
    calls = {"moments": 0, "line kernel": 0, "cross-check": 0, "batched roots": 0, "P_k": 0}

    def counted(key, fn, when=lambda *a: True):
        def wrapper(*args, **kwargs):
            calls[key] += bool(when(*args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(indicators, "_moment_integrals",
                        counted("moments", indicators._moment_integrals))
    monkeypatch.setattr(indicators, "_loop_line_sums",
                        counted("line kernel", indicators._loop_line_sums))
    monkeypatch.setattr(indicators, "_circle_cross_check",
                        counted("cross-check", indicators._circle_cross_check))
    monkeypatch.setattr(infinity.RationalAffinePoly, "__call__",
                        counted("P_k", infinity.RationalAffinePoly.__call__))
    monkeypatch.setattr(symmetric, "roots", counted("batched roots", symmetric.roots,
                                                    lambda c: np.ndim(c) == 2))
    code, _, _ = run_cli(["pipeline", "--boundary", "twoline.json", "--out", "once.json"],
                         workdir)
    assert code == 0
    loops = len(load_boundary(workdir / "twoline.json").loops)
    assert loops == 2
    assert calls == {"moments": 1, "line kernel": loops, "cross-check": 1, "batched roots": 1,
                     "P_k": 0}
