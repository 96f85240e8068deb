"""Command-line interface: exit codes, output formats, determinism."""

import io
import json
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fresh_env, fresh_python
from curvkit import cli
from curvkit import curvature as cv
from curvkit import tensor as tn

GOOD = """\
dim 4
coords t r theta phi
params M e
range r 1.5 3
range theta 0.3 2.8
g[0][0] = -(1 - 2*M*r^2/(e^2+r^2)^(3/2))
g[1][1] = 1/(1 - 2*M*r^2/(e^2+r^2)^(3/2))
g[2][2] = r^2
g[3][3] = r^2*sin(theta)^2
"""


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_2(capsys):
    assert cli.run([]) == 2
    assert cli.run(["classify"]) == 2
    assert cli.run(["classify", "--metric", "bardeen", "--param", "M"]) == 2
    assert cli.run(["classify", "--metric", "bardeen", "--param",
                    "M=abc"]) == 2
    assert cli.run(["classify", "--metric", "bardeen", "--tol", "-1"]) == 2
    assert cli.run(["classify", "--metric", "bardeen", "--points", "2"]) == 2
    assert cli.run(["compare", "--metric", "bardeen"]) == 2
    assert cli.run(["verify", "--metric", "minkowski"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["components", "--param", "M=2"], ["components", "--points", "24"],
    ["components", "--tol", "1e-6"], ["components", "--seed", "3"],
    ["verify", "--param", "M=2"], ["verify", "--points", "24"],
    ["verify", "--tol", "1e-6"]], ids="_".join)
def test_options_a_subcommand_does_not_read_exit_2(argv, capsys):
    # verify --param M=2 would otherwise check M = 1 without a word
    assert cli.run([argv[0], "--metric", "bardeen", *argv[1:]]) == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["classify", "--metric", "bardeen"],
    ["compare", "--metric", "bardeen", "--metric", "schwarzschild"]],
    ids=lambda c: c[0])
@pytest.mark.parametrize("option, message", [
    (["--tol", "-1"], "error: --tol must be positive"),
    (["--points", "2"], "error: --points must be at least 4")])
def test_tol_and_points_checks(command, option, message, capsys):
    assert cli.run([*command, *option]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


def test_unknown_metric_exits_2(capsys):
    assert cli.run(["classify", "--metric", "kerr"]) == 2
    assert cli.run(["classify", "--metric", "/no/such/file"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_bad_metric_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.metric"
    path.write_text("dim 2\ncoords t r\ng[0][0] = 1 + *\n")
    assert cli.run(["classify", "--metric", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("header, message", [
    ("dim 4\ncoords t r theta phi\nrange r a 3\n",
     "line 3: range bounds must be finite numbers with lo < hi, got a 3"),
    ("dim 4\ncoords t r theta phi\nrange r 3 3\n",
     "line 3: range bounds must be finite numbers with lo < hi, got 3 3"),
    ("dim 4\ncoords t r theta phi\nrange r 1 inf\n",
     "line 3: range bounds must be finite numbers with lo < hi, got 1 inf"),
    ("dim 4\ncoords t r theta phi\nrange q 1 3\n",
     "line 3: range of undeclared name 'q'"),
    ("dim 0\ncoords t r theta phi\n", "line 1: bad dimension '0'"),
    ("dim 4\ncoords t r r phi\n", "line 2: 'r' is already declared in coords"),
    ("dim 4\ncoords t r theta phi\nparams t\n",
     "line 3: 't' is already declared in coords"),
    ("dim four\ncoords t r theta phi\n", "line 1: bad dimension 'four'"),
    ("dim 4\ncoords t r theta phi\nrange r 1\n",
     "line 3: range needs 'range <coord> <lo> <hi>'"),
    ("dim 4\ncoords t r theta phi\ng[0][1] 1\n",
     "line 3: missing '=' in component assignment"),
    ("dim 4\ncoords t r theta phi\ng[0][x] = 1\n",
     "line 3: bad component index 'g[0][x]'"),
    ("dim 4\ncoords t r theta phi\ng[0]]]][1] = 1\n",
     "line 3: bad component index 'g[0]]]][1]'"),
    ("dim 4\ncoords t r theta\n",
     "line 2: expected 4 coordinate names, got 3"),
    ("dim 4\ncoords t r theta phi\nrange r 1.5 3\nrange r 5 6\n",
     "line 4: range r already declared at line 3"),
    ("dim 4\ncoords t r theta phi\ndim 2\ncoords t r\n",
     "line 3: dim already declared at line 1")],
    ids=["range_not_a_number", "range_empty", "range_infinite",
         "range_undeclared", "dim_0", "duplicate_coordinate",
         "parameter_named_like_a_coordinate", "dim_not_an_integer",
         "range_without_3_fields", "component_without_equals",
         "bad_component_index", "component_index_with_extra_brackets",
         "coordinate_count", "repeated_range",
         "repeated_dim"])
def test_malformed_header_exits_2(tmp_path, capsys, header, message):
    # each is one error line naming the line, not a traceback or a report
    path = tmp_path / "bad.metric"
    path.write_text(header + "g[0][0] = -1\ng[1][1] = 1\ng[2][2] = r^2\n"
                    "g[3][3] = r^2\n")
    assert cli.run(["classify", "--metric", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("g00, message", [
    ("-r^²", "line 3: unexpected character '²' (line 1, column 4)"),
    ("-2²", "line 3: unexpected character '²' (line 1, column 3)"),
    ("-(10^400)", "metric 'unreadable' is singular or not finite at all "
                  "probe points")], ids=["power", "literal", "overflow"])
def test_unreadable_expression_text_exits_2(tmp_path, g00, message):
    # a fresh process, so that a traceback would show on its stderr
    path = tmp_path / "unreadable.metric"
    path.write_text(f"dim 4\ncoords t r theta phi\ng[0][0] = {g00}\n"
                    "g[1][1] = 1\ng[2][2] = r^2\ng[3][3] = r^2\n",
                    encoding="utf-8")
    proc = fresh_python("-m", "curvkit.cli", "classify", "--metric",
                        str(path), check=False)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("out, reason", [
    ("missing/x.json", "No such file or directory"), (".", "Is a directory")])
def test_unwritable_out_exits_2(tmp_path, capsys, out, reason):
    path = tmp_path / out
    assert cli.run(["components", "--metric", "minkowski", "--tensor",
                    "kappa", "--out", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot write '{path}': {reason}\n")


def test_help_exits_0(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["classify", "components", "verify"])
def test_a_second_metric_exits_2(command, no_build, capsys):
    # only compare reads two metrics; the others must not drop one unsaid
    assert cli.run([command, "--metric", "bardeen", "--metric",
                    "minkowski"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: {command} takes one --metric; got also 'minkowski'"]


def test_closed_stdout_exits_141_without_a_traceback():
    # the dump is about 330 kB, far past a pipe's buffer, so the writer
    # meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "curvkit.cli", "components", "--metric",
         "schwarzschild", "--tensor", "nabla_C"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env())
    assert proc.stdout.read(16) == b'{\n  "dimension":'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_run_returns_141_on_a_closed_stdout(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.run(["classify", "--metric", "minkowski"]) == 141
    assert capsys.readouterr().err == ""


def test_a_warm_process_answers_like_fresh_ones(monkeypatch, capsys):
    # one process runs valid commands and usage errors (one found by the
    # parser, one by the command) in turn on the parser it built once
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build_parser())
    calls = [["classify", "--metric", "minkowski"],
             ["components", "--metric", "bardeen", "--tensor", "kappa"],
             ["classify", "--metric", "minkowski", "--points", "2"],
             ["components", "--metric", "bardeen", "--points", "24"],
             ["components", "--metric", "bardeen", "--tensor", "kappa"],
             ["classify", "--metric", "minkowski"]]
    for argv in calls:
        code = cli.run(argv)
        out = capsys.readouterr().out
        fresh = fresh_python("-m", "curvkit.cli", *argv, check=False)
        assert (code, out) == (fresh.returncode, fresh.stdout.decode()), \
            argv
    assert [cli.run(argv) for argv in calls] == [0, 0, 2, 2, 0, 0]
    assert built == [1]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# components

def test_components_kappa_and_tensor(tmp_path, capsys):
    out = tmp_path / "kappa.json"
    rc = cli.run(["components", "--metric", "bardeen", "--tensor", "kappa",
                  "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["tensor"] == "kappa"
    assert "e^2" in data["expression"]

    out2 = tmp_path / "S.json"
    assert cli.run(["components", "--metric", "bardeen", "--tensor", "S",
                    "--out", str(out2)]) == 0
    data2 = json.loads(out2.read_text())
    assert data2["valence"] == 2
    assert set(data2["nonzero_components"]) == {"00", "11", "22", "33"}
    capsys.readouterr()


@pytest.mark.parametrize("tensor", ["S", "kappa"])
def test_components_markdown_matches_json(tensor, capsys):
    args = ["components", "--metric", "bardeen", "--tensor", tensor]
    assert cli.run(args) == 0
    data = json.loads(capsys.readouterr().out)
    assert cli.run([*args, "--format", "markdown"]) == 0
    if tensor == "kappa":
        body = [f"    kappa = {data['expression']}"]
    else:
        body = [f"    [{k}] = {v}"
                for k, v in sorted(data["nonzero_components"].items())]
    assert capsys.readouterr().out.splitlines() == [
        f"# bardeen: {tensor}", "", *body]


def test_components_unknown_tensor_exits_2(capsys):
    # KeyError from the bundle accessor surfaces as a usage error
    try:
        rc = cli.run(["components", "--metric", "minkowski", "--tensor",
                      "bogus"])
    except KeyError:
        pytest.fail("unknown tensor name must not raise through the CLI")
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown tensor 'bogus'" in err and "nabla_S" in err


# the derived-curvature formulas the bundle calls, and the layers of
# each components tensor: its formulas and its Kulkarni-Nomizu products
# (g ^ S for K, g ^ g for W, both for C)
DERIVED = ("conformal", "projective", "concircular", "conharmonic",
           "energy_momentum")
BUILDS = {"C": ({"conharmonic", "conformal"}, 2), "K": ({"conharmonic"}, 1),
          "W": ({"concircular"}, 1), "P": ({"projective"}, 0),
          "T": ({"energy_momentum"}, 0)}


@pytest.fixture
def layer_calls(monkeypatch):
    """Record what the bundle layers return and what they are called on."""
    calls = {name: [] for name in ("riemann", "ricci_family",
                                   "covariant_derivative", "kulkarni_nomizu",
                                   *DERIVED)}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name].append((args, out))
            return out
        return wrapped

    for name in calls:
        module = tn if name == "kulkarni_nomizu" else cv
        monkeypatch.setattr(module, name, counting(module, name))
    return calls


@pytest.mark.parametrize("tensor", ["g", "R", "S", "S2", "kappa", "C", "P",
                                    "W", "K", "T", "nabla_R", "nabla_C",
                                    "nabla_S"])
def test_components_builds_only_what_it_needs(tensor, layer_calls, tmp_path,
                                              capsys):
    assert cli.run(["components", "--metric", "schwarzschild", "--tensor",
                    tensor, "--out", str(tmp_path / "out.json")]) == 0
    capsys.readouterr()
    # each derived tensor is built once, from its own formulas only: T
    # builds no wedge and no Weyl-family tensor, C and K build none of P,
    # W and T, P builds no wedge
    formulas, wedges = BUILDS.get(tensor.removeprefix("nabla_"), (set(), 0))
    assert {name: len(layer_calls[name]) for name in DERIVED} \
        == {name: int(name in formulas) for name in DERIVED}
    assert len(layer_calls["kulkarni_nomizu"]) == wedges
    nabla = layer_calls["covariant_derivative"]
    if not tensor.startswith("nabla_"):
        assert nabla == []
        return
    # one covariant derivative, taken of the very tensor its name names
    (args, _), = nabla
    source = {"nabla_R": layer_calls["riemann"],
              "nabla_S": layer_calls["ricci_family"],
              "nabla_C": layer_calls["conformal"]}[tensor]
    (_, built), = source
    assert args[0] is (built[0] if tensor == "nabla_S" else built)


def test_cli_never_imports_mpmath(tmp_path):
    # numpy is curvkit's only runtime dependency; mpmath comes with sympy,
    # which only the tests use, and no subcommand may pull either in
    out = str(tmp_path / "out.json")
    code = ("import sys\nfrom curvkit import cli\n"
            f"assert cli.run(['classify', '--metric', 'minkowski', "
            f"'--out', {out!r}]) == 0\n"
            f"assert cli.run(['components', '--metric', 'bardeen', "
            f"'--tensor', 'nabla_C', '--out', {out!r}]) == 0\n"
            "print('mpmath' in sys.modules)\n")
    assert fresh_python("-c", code).stdout.decode() == "False\n"


# ---------------------------------------------------------------------------
# classify

def test_classify_json_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.run(["classify", "--metric", "minkowski", "--out",
                    str(a)]) == 0
    assert cli.run(["classify", "--metric", "minkowski", "--out",
                    str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_classify_markdown_matches_json_verdicts(tmp_path, capsys):
    j = tmp_path / "r.json"
    m = tmp_path / "r.md"
    assert cli.run(["classify", "--metric", "schwarzschild", "--out",
                    str(j)]) == 0
    assert cli.run(["classify", "--metric", "schwarzschild", "--format",
                    "markdown", "--out", str(m)]) == 0
    data = json.loads(j.read_text())
    table = {}
    for line in m.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[1] in ("holds", "fails", "degenerate"):
            table[cells[0]] = cells[1]
    for s in data["structures"]:
        assert table[s["name"]] == s["verdict"]
    capsys.readouterr()


def test_classify_metric_file_with_params(tmp_path, capsys):
    path = tmp_path / "regular.metric"
    path.write_text(GOOD)
    out = tmp_path / "out.json"
    rc = cli.run(["classify", "--metric", str(path), "--param", "M=1",
                  "--param", "e=0.5", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    verdicts = {s["name"]: s["verdict"] for s in data["structures"]}
    assert verdicts["roter"] == "holds"
    assert verdicts["einstein"] == "fails"
    capsys.readouterr()


@pytest.mark.parametrize("params, missing", [
    ([], "['M', 'e']"),
    (["--param", "M=1"], "['e']"),
])
def test_classify_unbound_params_exit_2(tmp_path, capsys, params, missing):
    path = tmp_path / "regular.metric"
    path.write_text(GOOD)
    assert cli.run(["classify", "--metric", str(path), *params]) == 2
    err = capsys.readouterr().err
    assert missing in err
    assert "sample points" not in err


def test_unknown_parameter_exits_2(capsys):
    assert cli.run(["classify", "--metric", "bardeen", "--param",
                    "X=3"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown parameters ['X']"]


@pytest.fixture
def no_build(monkeypatch):
    """A command that reaches the symbolic build fails with this error,
    not with a usage error."""
    def build_bundle(*args, **kwargs):
        raise AssertionError("the curvature bundle was built")
    monkeypatch.setattr(cv, "build_bundle", build_bundle)


@pytest.mark.parametrize("param, message", [
    ("X=3", "error: unknown parameters ['X']"),
    ("M=abc", "error: bad numeric value in --param 'M=abc'"),
    ("M=nan", "error: bad numeric value in --param 'M=nan'"),
    ("M=inf", "error: bad numeric value in --param 'M=inf'"),
    ("e=-inf", "error: bad numeric value in --param 'e=-inf'"),
    ("M=1e400", "error: bad numeric value in --param 'M=1e400'"),
])
def test_parameter_errors_exit_before_the_build(no_build, capsys, param,
                                                message):
    assert cli.run(["classify", "--metric", "bardeen", "--param",
                    param]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("metrics, param, message", [
    (["bardeen", "reissner_nordstrom"], "M=2",
     "error: metric 'reissner_nordstrom': unknown parameters ['M']"),
    (["reissner_nordstrom", "bardeen"], "m=2",
     "error: metric 'bardeen': unknown parameters ['m']"),
    (["bardeen", "reissner_nordstrom"], "M=abc",
     "error: bad numeric value in --param 'M=abc'"),
])
def test_compare_checks_both_metrics_parameters_first(no_build, capsys,
                                                      metrics, param,
                                                      message):
    argv = ["compare", "--param", param]
    for m in metrics:
        argv += ["--metric", m]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [message]


def write_metric(tmp_path, name, body):
    path = tmp_path / f"{name}.metric"
    path.write_text("dim 4\ncoords t r theta phi\n" + body
                    + "g[2][2] = r^2\ng[3][3] = r^2*sin(theta)^2\n")
    return str(path)


def test_overflowing_metric_file_exits_2(tmp_path, capsys):
    # r^1200 overflows float64 at every probe point: one error line, no
    # traceback
    path = write_metric(tmp_path, "huge",
                        "range r 2 3\ng[0][0] = -1\ng[1][1] = r^1200\n")
    assert cli.run(["classify", "--metric", path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: metric 'huge' is singular or not finite at all probe points"]


def test_numerically_singular_metric_file_exits_2(tmp_path, capsys):
    # det = sin(r)^2 + cos(r)^2 - 1 is not structurally zero, but the load
    # probe finds it zero at every probe point; inversion never sees it
    path = tmp_path / "identity.metric"
    path.write_text("dim 2\ncoords t r\ng[0][0] = sin(r)^2 + cos(r)^2\n"
                    "g[0][1] = 1\ng[1][1] = 1\n")
    assert cli.run(["classify", "--metric", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: metric 'identity' is singular or not finite at all probe "
        "points"]


def test_singular_metric_file_with_large_entries_exits_2(tmp_path, capsys):
    # det = (sin(r)^2 + cos(r)^2 - 1)*r^4 vanishes, but its rounding noise
    # at r in [1000, 2000] is far above an absolute threshold; the probe
    # scales each row of g to a largest |entry| of 1 first
    path = tmp_path / "large.metric"
    path.write_text("dim 4\ncoords t r theta phi\nrange r 1000 2000\n"
                    "g[0][0] = (sin(r)^2+cos(r)^2)*r^4\ng[0][1] = r^2\n"
                    "g[1][1] = 1\ng[2][2] = r^2\n"
                    "g[3][3] = r^2*sin(theta)^2\n")
    assert cli.run(["classify", "--metric", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: metric 'large' is singular or not finite at all probe "
        "points"]


def test_sample_plan_error_counts_rejections(tmp_path, capsys):
    # with a = 0.5, (a - r)^(1/2) is not real anywhere on r in [1, 2], so
    # every one of the 200 * 12 candidates is rejected as not finite
    path = write_metric(tmp_path, "imaginary", "params a\nrange r 1 2\n"
                        "g[0][0] = -1\ng[1][1] = (a - r)^(1/2)\n")
    assert cli.run(["classify", "--metric", path, "--param", "a=0.5"]) == 1
    err = capsys.readouterr().err
    assert "2400 candidates drawn, 2400 not finite" in err
    assert "0 with a singular det, 0 with |g00| below" in err


def test_curvature_not_finite_at_a_plan_point_exits_1(tmp_path, capsys):
    # g is finite below r = 709.78, where exp(r) overflows, but S2 is not
    path = write_metric(tmp_path, "steep", "range r 600 800\n"
                        "g[0][0] = -exp(r)\ng[1][1] = 1\n")
    assert cli.run(["classify", "--metric", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: S2 is not finite at sample point 0 {")


@pytest.mark.parametrize("components, point", [
    # det = -1, but Q(g, R) meets inf - inf
    ("-r^150 r^150 r^(-150) r^(-150)", 1),
    # every entry is finite, det = -r^800 overflows
    ("-r^200 r^200 r^200 r^200", 0)])
def test_overflowing_fit_exits_1(tmp_path, capsys, components, point):
    # one error line naming the structure and the point, not an SVD
    # traceback or a verdict resting on a NaN
    path = tmp_path / "steep.metric"
    path.write_text("dim 4\ncoords t r theta phi\nrange r 10 20\n" + "".join(
        f"g[{i}][{i}] = {e}\n" for i, e in enumerate(components.split())))
    assert cli.run(["classify", "--metric", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot decide semisymmetric: not finite (an overflow or a "
        f"NaN) at sample point {point}"]


# ---------------------------------------------------------------------------
# verify and compare

def test_verify_json_shape(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert cli.run(["verify", "--metric", "bardeen", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["total"] == 135
    assert 0 <= data["matched"] <= data["total"]
    statuses = {c["status"] for c in data["checks"]}
    assert statuses <= {"match", "mismatch"}
    for c in data["checks"]:
        if c["status"] == "mismatch":
            assert c["engine_confirmed_by_finite_differences"] is True
    capsys.readouterr()


def test_verify_markdown_matches_json(capsys):
    assert cli.run(["verify", "--metric", "bardeen"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert cli.run(["verify", "--metric", "bardeen", "--format",
                    "markdown"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["# Component verification: bardeen", "",
                         "90/135 published entries match the engine", ""]
    assert (data["matched"], data["total"]) == (90, 135)
    flags = [f"- FLAG {c['group']} {c['kind']} {c['indices']}: engine "
             f"confirmed by finite differences"
             for c in data["checks"] if c["status"] == "mismatch"]
    assert len(flags) == 45
    assert lines[4:] == flags


def test_compare_markdown_matches_json(capsys):
    args = ["compare", "--metric", "bardeen", "--metric",
            "reissner_nordstrom"]
    assert cli.run(args) == 0
    data = json.loads(capsys.readouterr().out)
    assert cli.run([*args, "--format", "markdown"]) == 0
    differing = [f"- {n}: bardeen={data['verdicts'][n]['bardeen']}, "
                 f"reissner_nordstrom="
                 f"{data['verdicts'][n]['reissner_nordstrom']}"
                 for n in data["differing"]]
    assert capsys.readouterr().out.splitlines() == [
        "# Comparison: bardeen vs reissner_nordstrom", "",
        "## Shared (holds)", "", *(f"- {n}" for n in data["shared_holds"]),
        "", "## Shared (fails)", "",
        *(f"- {n}" for n in data["shared_fails"]),
        "", "## Differing", "", *differing]


def test_compare_outputs(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    rc = cli.run(["compare", "--metric", "bardeen", "--metric",
                  "reissner_nordstrom", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert "scalar_curvature_zero" in data["differing"]
    assert "roter" in data["shared_holds"]
    capsys.readouterr()


def test_demo_script_reproduces_the_builtin(monkeypatch, capsys):
    # the demo writes the catalog's own bardeen source to bardeen.metric
    path = Path(__file__).resolve().parent.parent / "scripts" / \
        "metric_from_file_demo.py"
    demo = runpy.run_path(str(path))
    monkeypatch.setattr(sys, "argv", [str(path)])
    assert demo["main"]() == 0
    from_file = capsys.readouterr().out
    assert cli.run(["classify", "--metric", "bardeen", "--format",
                    "markdown"]) == 0
    assert from_file == capsys.readouterr().out
