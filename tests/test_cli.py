import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from oscbessel import cli, criteria
from oscbessel.chebfit import cc_points
from oscbessel.errors import AccuracyError
from oscbessel.moments import moment_table
from oscbessel.oracle import OracleConfig, reference_integral
from oscbessel.problem import ProblemSpec


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_integrate_plan_round_trip(self):
        plan = cli.parse_config(
            ["integrate", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
             "--omega", "200", "--f", "abs_pow:c=0.5,k=1", "--N", "256"])
        assert plan.command == "integrate"
        assert plan.spec.alpha == 0.2 and plan.spec.omega == 200.0
        assert plan.N_list == [256]
        assert plan.breakpoints == (0.5,)
        assert plan.spec.integrand(0.75) == pytest.approx(0.25)
        f, breakpoints = cli.parse_integrand("abs_pow:c=0.25,k=3")
        assert f(0.75) == pytest.approx(0.125)
        assert breakpoints == (0.25,)

    def test_dyadic_range_expansion(self):
        assert cli.parse_n_range("16:1024:dyadic") == [
            16, 32, 64, 128, 256, 512, 1024]
        assert cli.parse_n_range("256") == [256]
        assert cli.parse_n_range("8,12,20") == [8, 12, 20]

    def test_bad_tokens_raise_usage(self):
        with pytest.raises(cli.UsageError):
            cli.parse_n_range("16:1024:linear")
        with pytest.raises(cli.UsageError):
            cli.parse_integrand("no_such_fn")
        with pytest.raises(cli.UsageError):
            cli.parse_integrand("abs_pow:c=half")
        with pytest.raises(cli.UsageError):
            cli.parse_config(["integrate", "--alpha", "0.2", "--beta", "0.4",
                              "--nu", "0", "--omega", "200", "--N", "8"])

    def test_registry_coverage(self):
        f, _ = cli.parse_integrand("smooth_exp")
        assert f(1.0) == pytest.approx(math.e)
        f, _ = cli.parse_integrand("one_minus_x2_pow:p=0.8")
        assert f(0.5) == pytest.approx(0.75 ** 0.8)
        f, _ = cli.parse_integrand("cheb_poly:c0=1,c2=2")
        assert f(1.0) == pytest.approx(3.0)
        f, _ = cli.parse_integrand("runge:s=50")
        assert f(0.5) == pytest.approx(1.0)


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        code, _, err = run(["integrate", "--alpha", "0.2"], capsys)
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize("spec", ["abs_pow:kk=3", "smooth_exp:c=1",
                                      "cheb_poly:c0=1,path=x.csv"])
    def test_unknown_integrand_key_is_1(self, capsys, spec):
        code, out, err = run(
            ["integrate", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
             "--omega", "200", "--f", spec, "--N", "8"], capsys)
        assert code == 1
        assert out == ""
        assert "usage error" in err

    def test_validation_error_is_2(self, capsys):
        code, _, err = run(
            ["integrate", "--alpha", "-1.0", "--beta", "0.4", "--nu", "0",
             "--omega", "200", "--f", "smooth_exp", "--N", "8"], capsys)
        assert code == 2
        assert "alpha" in err

    def test_non_finite_omega_is_2(self, capsys):
        code, _, err = run(
            ["integrate", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
             "--omega", "inf", "--f", "smooth_exp", "--N", "8"], capsys)
        assert code == 2
        assert "omega must be finite" in err

    @pytest.mark.parametrize("omega", ["1e-300", "1e155"])
    def test_omega_past_the_double_range_is_2(self, capsys, omega):
        # Both printed an OverflowError's traceback and exited 1.
        code, out, err = run(
            ["moments", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
             "--omega", omega, "--N", "8"], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"validation error: omega = {float(omega)}")

    @pytest.mark.parametrize("argv", [
        ["moments", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
         "--omega", "20", "--N", "8", "--f", "no_such_fn"],
        ["moments", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
         "--omega", "20", "--N", "8", "--reference", "3"],
        ["moments", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
         "--omega", "20", "--N", "8", "--tol", "0.5"],
        ["integrate", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
         "--omega", "20", "--N", "8", "--f", "smooth_exp",
         "--window", "1:2"],
        ["validate", "--alpha", "7"],
        ["validate", "--N", "3"],
        ["validate", "--f", "bogus"],
    ])
    def test_flag_the_command_does_not_take_is_1(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert "unrecognized arguments" in err and out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_1(self, capsys, tol):
        code, out, err = run(
            ["study", "--alpha", "-0.8", "--beta", "-0.9", "--nu", "0",
             "--omega", "200", "--f", "abs_pow:c=0.37,k=0.5",
             "--N", "8,16,32,64", "--tol", tol], capsys)
        assert code == 1
        assert "usage error: --tol" in err and out == ""

    KERNEL = ["--alpha", "0.2", "--beta", "0.4", "--nu", "0", "--omega", "20"]

    @pytest.mark.parametrize("N, message", [
        ("16:8:dyadic", "--N: need 1 <= lo <= hi"),
        ("x:16:dyadic", "--N: bad bounds"),
        ("8,x", "--N: not an integer list"),
        ("0", "--N: values must be >= 1"),
        # study ran the oracle for seconds before it refused this list
        ("32,16", "--N: values must be strictly increasing"),
    ])
    def test_bad_n_is_1(self, capsys, N, message):
        code, out, err = run(["moments", *self.KERNEL, "--N", N], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"usage error: {message}")

    @pytest.mark.parametrize("argv, message", [
        (["integrate", "--f", "smooth_exp", "--N", "8,16"],
         "--N: integrate takes a single N"),
        (["study", "--f", "smooth_exp", "--N", "8"],
         "--N: study needs a range or list"),
    ])
    def test_wrong_number_of_n_is_1(self, capsys, argv, message):
        code, out, err = run([argv[0], *self.KERNEL, *argv[1:]], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"usage error: {message}")

    @pytest.mark.parametrize("spec, message", [
        ("abs_pow:c", "malformed parameter 'c'"),
        ("cheb_poly", "cheb_poly needs at least one coefficient"),
        ("user", "user integrand needs path="),
    ])
    def test_bad_integrand_is_1(self, capsys, spec, message):
        code, out, err = run(
            ["integrate", *self.KERNEL, "--f", spec, "--N", "8"], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"usage error: --f: {message}")

    # An integrand that divides by zero at a node was a traceback, exit 1.
    @pytest.mark.parametrize("argv", [
        ["integrate", "--f", "abs_pow:k=-1", "--N", "64"],
        ["integrate", "--f", "one_minus_x2_pow:p=-0.5", "--N", "16"],
        ["study", "--f", "one_minus_x2_pow:p=-0.5", "--N", "8,16"],
        # x = 0.5 is a node of N = 64; the oracle's Gauss-Kronrod nodes
        # miss it, and it would fail to converge first.
        ["study", "--f", "abs_pow:k=-1", "--N", "8,64"],
        # x = 0.5 is node 5 of N = 10, which is not nested in N = 15.
        ["study", "--f", "abs_pow:k=-1", "--N", "10,15"],
    ])
    def test_raising_integrand_is_2(self, capsys, argv):
        code, out, err = run([argv[0], *self.KERNEL, *argv[1:]], capsys)
        assert code == 2 and out == ""
        assert err.startswith("validation error: integrand raised")

    def test_non_finite_reference_is_2(self, capsys):
        code, out, err = run(
            ["study", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
             "--omega", "20", "--f", "smooth_exp", "--N", "4,8,16,32",
             "--reference", "inf"], capsys)
        assert code == 2
        assert "reference must be finite" in err and out == ""

    def test_unwritable_out_is_1(self, capsys, tmp_path):
        code, _, err = run(
            ["moments", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
             "--omega", "20", "--N", "8",
             "--out", str(tmp_path / "missing" / "x.csv")], capsys)
        assert code == 1
        assert err.startswith("usage error:")

    def test_numerical_failure_is_3(self, capsys, monkeypatch):
        def explode(plan):
            raise AccuracyError("synthetic blow-up", err_est=1.0)
        monkeypatch.setattr(cli, "execute", explode)
        code, _, err = run(
            ["integrate", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
             "--omega", "200", "--f", "smooth_exp", "--N", "8"], capsys)
        assert code == 3
        assert "numerical failure" in err


class TestReports:
    ARGS = ["moments", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
            "--omega", "20", "--N", "64"]

    def test_moments_schema_and_tags(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,M,method,err_est"
        assert len(lines) == 66
        tags = [line.split(",")[2] for line in lines[1:]]
        assert tags[:6] == ["closed-form"] * 6
        assert tags[6:11] == ["forward"] * 5
        assert set(tags[11:]) == {"oliver"}

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(self.ARGS + ["--out", str(a)]) == 0
        assert cli.main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_and_csv_numeric_content(self, tmp_path):
        c, j = tmp_path / "m.csv", tmp_path / "m.json"
        assert cli.main(self.ARGS + ["--out", str(c)]) == 0
        assert cli.main(self.ARGS + ["--format", "json",
                                     "--out", str(j)]) == 0
        rows = c.read_text().strip().split("\n")[1:]
        payload = json.loads(j.read_text())
        assert len(payload) == len(rows)
        for row, entry in zip(rows, payload):
            k, m, method, err = row.split(",")
            assert entry["k"] == k
            assert entry["M"] == m
            assert entry["method"] == method
            assert entry["err_est"] == err

    def test_floats_round_trip(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        for line in out.strip().split("\n")[1:]:
            value = line.split(",")[1]
            assert repr(float(value)) == value

    def test_empty_rows_give_header_only_csv(self, capsys):
        cli.emit_report(["a", "b"], [], "csv", "-")
        assert capsys.readouterr().out == "a,b\n"

    def test_integrate_constant_equals_moment_row(self, capsys):
        common = ["--alpha", "0.2", "--beta", "0.4", "--nu", "0",
                  "--omega", "20"]
        code, out, _ = run(["integrate"] + common
                           + ["--f", "cheb_poly:c0=1", "--N", "8"], capsys)
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[0])
        code, out, _ = run(["moments"] + common + ["--N", "8"], capsys)
        m0 = float(out.strip().split("\n")[1].split(",")[1])
        assert value == pytest.approx(m0, rel=1e-13)


class TestStudyCommand:
    def test_study_report(self, capsys):
        code, out, err = run(
            ["study", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
             "--omega", "20", "--f", "abs_pow:c=0.5,k=1",
             "--N", "8:64:dyadic"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,approx,reference,abs_err,scaled_err"
        assert len(lines) == 5
        assert "rate" in err

    ARGS = ["study", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
            "--omega", "20", "--f", "abs_pow:c=0.5,k=1", "--N", "8:128:dyadic",
            "--reference", "0.0068"]

    def test_window_changes_the_rate(self, capsys):
        code, out_default, err_default = run(self.ARGS, capsys)
        assert code == 0
        code, out, err = run(self.ARGS + ["--window", "0:3"], capsys)
        assert code == 0
        assert out == out_default
        assert err.startswith("rate ") and err_default.startswith("rate ")
        assert err != err_default

    def test_malformed_window_is_1(self, capsys):
        code, out, err = run(self.ARGS + ["--window", "3"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("usage error: --window")

    def test_supplied_reference(self, capsys):
        code, out, _ = run(
            ["study", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
             "--omega", "20", "--f", "smooth_exp", "--N", "4,8,16",
             "--reference", "1.0"], capsys)
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            fields = line.split(",")
            assert fields[2] == "1.0"
            assert float(fields[3]) == abs(float(fields[1]) - 1.0)

    # Outside the oracle f is called once per node of N_max's grid and of
    # each grid not nested in it; the command sampled those grids a second
    # time before the oracle ran (514, 54, 488 and 88 calls).
    @pytest.mark.parametrize("N, calls", [("16,32,64,128,256", 257),
                                          ("10,15", 27),
                                          ("3,9,27,81,243", 244),
                                          ("10,16,32", 44)])
    def test_samples_each_node_once(self, capsys, monkeypatch, N, calls):
        counts = {"study": 0, "oracle": 0}
        caller = ["study"]

        def f(x):
            counts[caller[0]] += 1
            return math.exp(x)

        def oracle(*args, **kwargs):
            caller[0] = "oracle"
            try:
                return reference_integral(*args, **kwargs)
            finally:
                caller[0] = "study"
        monkeypatch.setitem(cli._REGISTRY, "smooth_exp", lambda: (f, ()))
        monkeypatch.setattr(cli, "reference_integral", oracle)
        code, _, _ = run(self.ARGS[:9] + ["--f", "smooth_exp", "--N", N],
                         capsys)
        assert code == 0
        assert counts["study"] == calls
        assert counts["oracle"] > 0


class TestUserIntegrand:
    def test_csv_samples(self, tmp_path, capsys):
        n = 16
        samples = np.exp(cc_points(n))
        path = tmp_path / "samples.csv"
        path.write_text("\n".join(repr(float(v)) for v in samples) + "\n")
        common = ["--alpha", "0.2", "--beta", "0.4", "--nu", "0",
                  "--omega", "20", "--N", str(n)]
        code, out_user, _ = run(
            ["integrate"] + common + ["--f", f"user:path={path}"], capsys)
        assert code == 0
        code, out_exp, _ = run(
            ["integrate"] + common + ["--f", "smooth_exp"], capsys)
        got = float(out_user.strip().split("\n")[1].split(",")[0])
        want = float(out_exp.strip().split("\n")[1].split(",")[0])
        assert got == pytest.approx(want, rel=1e-13)

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(
            ["integrate", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
             "--omega", "20", "--N", "8", "--f", "user:path=/nope.csv"],
            capsys)
        assert code == 1

    @pytest.mark.parametrize("text", ["abc\n", "", "1.0,2.0\n3.0,4.0\n"])
    def test_malformed_file_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                ["integrate", "--alpha", "0.2", "--beta", "0.4", "--nu", "0",
                 "--omega", "20", "--N", "1", "--f", f"user:path={path}"],
                capsys)
        assert code == 1 and out == ""
        assert err.startswith("usage error: --f:")


def test_validate_passes(capsys):
    code, out, _ = run(["validate"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check,status,detail"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "recurrence-residual", "hybrid-vs-oracle", "aliasing",
        "moment-decay", "polynomial-exactness"]
    assert all(",pass," in line for line in lines[1:])


def test_validate_csv_has_three_fields_per_row(capsys):
    # Three details contain commas ("N in {8,16}, p in {1,2,3}, all j"):
    # joined with bare commas they split into extra fields.
    code, out, _ = run(["validate"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0 and len(rows) == 6
    assert [len(row) for row in rows] == [3] * 6
    assert rows[3][:2] == ["aliasing", "pass"]


def test_validate_failure_is_2_and_still_reported(tmp_path, monkeypatch):
    def checks(tol):
        yield ("first", True, "fine")
        yield ("second", False, "broken")
    monkeypatch.setattr(cli, "_validation_checks", checks)
    out = tmp_path / "v.csv"
    assert cli.main(["validate", "--out", str(out)]) == 2
    assert out.read_text() == (
        "check,status,detail\nfirst,pass,fine\nsecond,FAIL,broken\n")


def test_a_wrong_table_fails_the_shared_checks(capsys, monkeypatch):
    # One entry off by 1e-6 relative, in every table the checks build.
    def skewed(spec, N):
        table = moment_table(spec, N)
        table.values[17] *= 1.0 + 1e-6
        return table
    monkeypatch.setattr(criteria, "moment_table", skewed)
    spec, cfg = ProblemSpec(0.2, 0.4, 0.0, 20.0), OracleConfig()
    assert not criteria.moment_grid([spec], 32, [17], cfg)[0]
    assert not criteria.recurrence_residuals([spec], 32, [], cfg)[0]
    code, out, _ = run(["validate"], capsys)
    status = dict(line.split(",")[:2] for line in out.strip().split("\n"))
    assert code == 2
    assert status["recurrence-residual"] == "FAIL"
    assert status["hybrid-vs-oracle"] == "FAIL"
