import hashlib
import json
import sys
from fractions import Fraction as F

import pytest

import treegrow.cli
import treegrow.sgtrees
from treegrow.cli import GROW_CAP, exact_text, main, validate_trace
from treegrow.compositions import as_fraction
from treegrow.errors import DomainError


def run(*argv):
    return main(list(argv))


class TestGrow:
    def test_sg_smoke(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = run("grow", "--model", "sg", "--w", "1,1,1,1", "--n", "10",
                   "--seed", "7", "--out", str(out))
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["tree"] == "e"
        assert records[-1]["n"] == 10
        assert len(records) == 10  # initial state plus nine steps
        validate_trace(str(out), "sg")

    def test_janson_refused_exit_2(self, capsys):
        code = run("grow", "--model", "sg", "--w", "2/5,1/5,2/5", "--n", "5")
        assert code == 2
        err = capsys.readouterr().err
        assert "index 1" in err

    def test_subtree_smoke(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        code = run("grow", "--model", "subtree", "--theta", "1,1", "--n", "6",
                   "--seed", "1", "--out", str(out))
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[-1]["n"] == 6
        validate_trace(str(out), "subtree")

    def test_arith_bouquets(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        code = run("grow", "--model", "sg-arith", "--w", "1,0,1", "--d", "2",
                   "--n", "9", "--seed", "4", "--out", str(out))
        assert code == 0
        validate_trace(str(out), "sg-arith", d=2)

    def test_identical_seed_identical_trace(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for path in (a, b):
            assert run("grow", "--model", "sg", "--w", "1,1,1", "--n", "8",
                       "--seed", "123", "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_model_is_usage_error(self):
        assert run("grow", "--n", "5") == 1

    def test_decimal_opt_in(self, tmp_path):
        out = tmp_path / "t.jsonl"
        run("grow", "--model", "sg", "--w", "1,1", "--n", "4", "--seed", "0",
            "--out", str(out), "--decimal")
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert "prob_decimal" in recs[-1]
        plain = tmp_path / "p.jsonl"
        run("grow", "--model", "sg", "--w", "1,1", "--n", "4", "--seed", "0", "--out", str(plain))
        recs = [json.loads(line) for line in plain.read_text().splitlines()]
        assert "prob_decimal" not in recs[-1]

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = sg\nw = 1,1,1\nn = 6\nseed = 9\n")
        out = tmp_path / "t.jsonl"
        assert run("grow", "--config", str(cfg), "--out", str(out)) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[-1]["n"] == 6

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = sg\nw = 1,1,1\nn = 6\nseed = 9\n")
        out = tmp_path / "t.jsonl"
        assert run("grow", "--config", str(cfg), "--n", "4", "--out", str(out)) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[-1]["n"] == 4

    def test_trace_validation_catches_tampering(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        run("grow", "--model", "sg", "--w", "1,1,1", "--n", "6", "--seed", "2",
            "--out", str(out))
        lines = out.read_text().splitlines()
        rec = json.loads(lines[-1])
        rec["tree"] = "e,1"  # inconsistent final state
        lines[-1] = json.dumps(rec)
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError):
            validate_trace(str(out), "sg")


# (model flags, seed, SHA-256 of the trace) pinned from earlier implementations: the first
# three from the table builders that the peeling recursion replaced, the last two from the
# chain that kept child counts and subtree sizes in two maps.  A fixed seed must keep giving
# the same trace.
GOLDEN_TRACES = {
    "sg": (["--model", "sg", "--w", "1,3,3,1", "--n", "40"], 11,
           "1f634eb8e5504515c9804d3967a70bb052cf8b8eb4601dede890483787c55847"),
    "sg-arith": (["--model", "sg-arith", "--w", "1,0,2,0,1", "--d", "2", "--n", "41"], 12,
                 "33fab9a5d9b1998d0f773d9147ee04afff68009fbf898dc780fed89164b8d41b"),
    "subtree": (["--model", "subtree", "--theta", "1/2,1/3,1/4", "--n", "40"], 13,
                "2fb880cd0d47de4baec7302df04f18965e9545cef4411b8dc2608a40d40acff2"),
    "sg-arith-d3": (["--model", "sg-arith", "--w", "2,0,0,1", "--d", "3", "--n", "40"], 14,
                    "1aac140aeb53ce8856ae388dbe463d3282c166bb0253a8fed9c0d4e67a168d09"),
    "sg-ones8": (["--model", "sg", "--w", "1,1,1,1,1,1,1,1", "--n", "40"], 15,
                 "a32f647f742fb6eb365dea113a768efe605896643a4bcf7f6e7d29add86dce03"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_TRACES))
def test_golden_trace(case, tmp_path, capsys):
    flags, seed, digest = GOLDEN_TRACES[case]
    out = tmp_path / "trace.jsonl"
    assert run("grow", *flags, "--seed", str(seed), "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestErrorBoundary:
    """Every user-facing failure ends in one line on stderr and a documented exit code."""

    def assert_one_line_error(self, capsys, code, expected=1):
        assert code == expected
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        return err[0]

    def test_enumerate_zero_vertices(self, capsys):
        self.assert_one_line_error(capsys, run("enumerate", "--plane-trees", "0"))

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "trace.jsonl"
        code = run("grow", "--model", "sg", "--w", "1,1,1", "--n", "4", "--out", str(out))
        assert "missing-dir" in self.assert_one_line_error(capsys, code)

    def test_missing_config(self, tmp_path, capsys):
        code = run("grow", "--config", str(tmp_path / "absent.cfg"))
        assert "absent.cfg" in self.assert_one_line_error(capsys, code)

    def test_config_bad_int(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = sg\nw = 1,1,1\nn = abc\n")
        line = self.assert_one_line_error(capsys, run("grow", "--config", str(cfg)))
        assert line.endswith("bad value for n: 'abc'")

    @pytest.mark.parametrize("command, text, key, value", [
        ("verify", "suite = nope\n", "suite", "nope"),
        ("grow", "model = tree\nw = 1,1,1\nn = 6\n", "model", "tree"),
    ], ids=["verify-suite", "grow-model"])
    def test_config_bad_choice(self, command, text, key, value, tmp_path, capsys):
        # a config value obeys the choices of its flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        line = self.assert_one_line_error(capsys, run(command, "--config", str(cfg)))
        assert line.endswith(f"bad value for {key}: {value!r}")

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "stats", "--n-max", "0"],
        ["verify", "--suite", "stats", "--samples", "0"],
        ["verify", "--suite", "stats", "--d", "0"],
        ["enumerate", "--arith-trees", "5", "--d", "0"],
    ], ids=["verify-n-max", "verify-samples", "verify-d", "enumerate-d"])
    def test_zero_refused(self, argv, capsys):
        assert run(*argv) == 1
        assert "expected a positive integer, got '0'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n_max", "samples", "d"])
    def test_zero_refused_in_config(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"suite = stats\n{key} = 0\n")
        line = self.assert_one_line_error(capsys, run("verify", "--config", str(cfg)))
        assert line.endswith(f"bad value for {key}: '0'")

    @pytest.mark.parametrize("argv", [
        ["tables", "--n-max", "11"],
        ["tp2", "--n-max", "41"],
        ["ratio-chain", "--n-max", "1001"],
        ["kernel-interchange", "--d", "2", "--n-max", "9"],
        ["bijection", "--n-max", "8"],
        ["subset-coupling", "--n-max", "1"],
        ["shuffle-invariance", "--n-max", "9"],
        ["stats", "--theta", "1,1", "--n-max", "8"],
    ], ids=lambda argv: argv[0])
    def test_n_max_above_cap_refused(self, argv, capsys):
        line = self.assert_one_line_error(capsys, run("verify", "--suite", *argv))
        assert argv[0] in line and "--n-max" in line

    @pytest.mark.parametrize("model", [["sg", "--w", "1,1,1"], ["subtree", "--theta", "1,1"]],
                             ids=lambda m: m[0])
    def test_grow_n_above_cap_refused(self, model, monkeypatch, capsys):
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain was built for a refused --n")

        monkeypatch.setattr(treegrow.cli, "GrowthChain", no_chain)
        monkeypatch.setattr(treegrow.cli, "SubtreeChain", no_chain)
        code = run("grow", "--model", *model, "--n", str(GROW_CAP + 1))
        line = self.assert_one_line_error(capsys, code)
        assert "--n" in line and str(GROW_CAP) in line

    @pytest.mark.parametrize("argv, message", [
        (["grow", "--n", "5"], "--model is required"),
        (["grow", "--model", "sg", "--w", "1,1"], "--n is required"),
        (["grow", "--model", "sg", "--n", "5"], "--w is required for tree models"),
        (["grow", "--model", "sg", "--w", "1,1", "--d", "2", "--n", "5"],
         "the sg model has d = 1; use sg-arith"),
        (["grow", "--model", "subtree", "--n", "5"], "--theta is required for the subtree model"),
        (["grow", "--model", "subtree", "--theta", "1,1", "--d", "3", "--n", "5"],
         "the subtree model has d = 1"),
        (["verify"], "--suite is required"),
        (["enumerate"], "pass --plane-trees, --subtrees or --arith-trees"),
    ], ids=["grow-model", "grow-n", "sg-w", "sg-d", "subtree-theta", "subtree-d", "verify-suite",
            "enumerate-kind"])
    def test_missing_argument(self, argv, message, capsys):
        assert self.assert_one_line_error(capsys, run(*argv)) == f"error: {message}"

    @pytest.mark.parametrize("argv", [
        ["grow", "--model", "sg", "--w", "1,1e-100000000,1", "--n", "3"],
        ["grow", "--model", "subtree", "--theta", "1,2E+4301", "--n", "3"],
        ["verify", "--suite", "tp2", "--w", "1,1e-1_0000"],
    ], ids=["grow-w", "grow-theta", "verify-w"])
    def test_huge_decimal_exponent_refused(self, argv, capsys):
        line = self.assert_one_line_error(capsys, run(*argv))
        assert "decimal exponent exceeds 4300" in line

    @pytest.mark.parametrize("entry", ["1e\u00b2", "1" * 4301, "1/1" + "0" * 4300, "0." + "0" * 4300 + "1"],
                             ids=["superscript-exponent", "long-integer", "long-denominator", "long-decimal"])
    def test_unreadable_rational_refused(self, entry, capsys):
        line = self.assert_one_line_error(capsys, run("grow", "--model", "sg", "--w", "1," + entry, "--n", "3"))
        assert line.startswith("error: cannot parse")

    def test_long_digit_run_refused_without_the_int_digit_limit(self):
        # Python 3.10 has no int-digit limit; the bound of as_fraction stands in for it
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int-digit limit to lift")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(DomainError, match="cannot parse"):
                as_fraction("1" * 4301)
            with pytest.raises(DomainError, match="exceeds 4300"):
                as_fraction("1e-4301")
        finally:
            sys.set_int_max_str_digits(limit)

    def test_huge_decimal_exponent_refused_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = sg\nw = 1,1e-4301\nn = 3\n")
        line = self.assert_one_line_error(capsys, run("grow", "--config", str(cfg)))
        assert "'1e-4301'" in line and "decimal exponent exceeds 4300" in line

    def test_decimal_exponent_at_the_bound_parses(self, capsys):
        assert run("grow", "--model", "sg", "--w", "1,1e-4300", "--n", "3") == 0
        assert run("grow", "--model", "subtree", "--theta", "1,1E+4300", "--n", "3") == 0

    @pytest.mark.parametrize("n_max", [[], ["--n-max", "3"]], ids=["default", "given"])
    def test_d_leaving_no_size_refused(self, n_max, capsys):
        code = run("verify", "--suite", "kernel-interchange", "--w", "1" + ",0" * 9 + ",1", "--d", "10",
                   *n_max)
        assert "--d 10" in self.assert_one_line_error(capsys, code)

    def test_stats_default_without_a_tree_refused(self, monkeypatch, capsys):
        # from d = 10 on the default d + 1 is lowered to the cap 10, which holds no tree
        monkeypatch.setattr(treegrow.cli, "compute_tables", lambda *a, **k: pytest.fail("tables built"))
        code = run("verify", "--suite", "stats", "--w", "1" + ",0" * 9 + ",1", "--d", "10")
        assert self.assert_one_line_error(capsys, code) == "error: --d 10 leaves the stats suite no size to check"

    def test_subset_coupling_support_above_cap_refused(self, monkeypatch, capsys):
        def no_law(theta):
            raise AssertionError("the coupling law was built for a refused --theta")

        monkeypatch.setattr(treegrow.cli, "nested_coupling_law", no_law)
        code = run("verify", "--suite", "subset-coupling", "--theta", ",".join(["1"] * 9))
        line = self.assert_one_line_error(capsys, code)
        assert "subset-coupling" in line and "support 9" in line and "cap 8" in line

    @pytest.mark.parametrize("argv", [["--w", "2/5,1/5,2/5"], ["--w", "1,0,1/10,0,1", "--d", "2"]],
                             ids=["janson", "arithmetic"])
    def test_kernel_interchange_refuses_non_log_concave(self, argv, monkeypatch, capsys):
        def no_tables(*args, **kwargs):
            raise AssertionError("tables were built for refused weights")

        monkeypatch.setattr(treegrow.cli, "compute_tables", no_tables)
        assert run("verify", "--suite", "kernel-interchange", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("refused:") and err.count("index 1") == 1

    def test_stats_refuses_before_enumerating(self, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("the law or the tables were built for refused weights")

        monkeypatch.setattr(treegrow.cli, "sg_law", no_work)
        monkeypatch.setattr(treegrow.cli, "compute_tables", no_work)
        assert run("verify", "--suite", "stats", "--w", "2/5,1/5,2/5", "--n-max", "10") == 2
        assert capsys.readouterr().err.count("index 1") == 1

    @pytest.mark.parametrize("argv, code, line", [
        (["sg", "--w", "2/5,1/5,2/5"], 2,
         "refused: offspring weights are not log-concave (first violation at index 1)"),
        (["sg", "--w", "1,0,1"], 2,
         "refused: offspring weights are not log-concave (first violation at index 1)"),
        (["sg", "--w", "0,1"], 1, "error: need w_0 w_1 > 0 for trees of every size to carry mass"),
        (["sg-arith", "--w", "0,0,1", "--d", "2"], 1,
         "error: need w_0 w_2 > 0 for trees of every size to carry mass"),
    ], ids=["janson", "internal-zero", "no-leaves", "arith-no-leaves"])
    def test_grow_refused_weights_message(self, argv, code, line, capsys):
        assert run("grow", "--model", *argv, "--n", "10") == code
        assert capsys.readouterr().err.splitlines() == [line]

    def test_refused_keeps_witness(self, capsys):
        assert run("verify", "--suite", "stats", "--w", "2/5,1/5,2/5", "--n-max", "3",
                   "--samples", "10") == 2
        assert "index 1" in capsys.readouterr().err


def test_exact_text_past_the_int_digit_limit():
    q = F(1, 10 ** 5000 + 1)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    assert exact_text(q) == "1/1" + "0" * 4999 + "1"
    assert exact_text(F(3, 7)) == "3/7"
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


class TestEnumerate:
    def test_plane_trees(self, capsys):
        assert run("enumerate", "--plane-trees", "4") == 0
        out = capsys.readouterr().out
        assert "count: 5" in out

    def test_subtrees(self, capsys):
        assert run("enumerate", "--subtrees", "3", "--dmax", "2") == 0
        assert "count: 5" in capsys.readouterr().out

    def test_arith(self, capsys):
        assert run("enumerate", "--arith-trees", "5", "--d", "2") == 0
        assert "count: 3" in capsys.readouterr().out

    def test_cap_exceeded(self, capsys):
        assert run("enumerate", "--plane-trees", "12") == 1
        assert "cap" in capsys.readouterr().err

    def test_dot(self, capsys):
        assert run("enumerate", "--plane-trees", "2", "--dot") == 0
        assert "digraph" in capsys.readouterr().out


class TestVerify:
    @pytest.mark.parametrize("suite", ["tables", "tp2", "ratio-chain", "bijection",
                                       "subset-coupling", "shuffle-invariance"])
    def test_suites_pass(self, suite, capsys):
        assert run("verify", "--suite", suite) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True

    def test_kernel_interchange(self, capsys):
        assert run("verify", "--suite", "kernel-interchange", "--w", "1,1,1,1",
                   "--n-max", "5") == 0

    @pytest.mark.parametrize("d, levels", [(4, [1, 5]), (5, [1]), (9, [1])])
    def test_default_n_max_lowered_to_the_cap(self, d, levels, capsys):
        # the default 6 is above the cap 10 - d from d = 5 on
        assert run("verify", "--suite", "kernel-interchange", "--w", "1" + ",0" * (d - 1) + ",1",
                   "--d", str(d)) == 0
        assert [level["n"] for level in json.loads(capsys.readouterr().out)["levels"]] == levels

    def test_ratio_chain_binomial(self, capsys):
        assert run("verify", "--suite", "ratio-chain", "--w", "1,3,3,1", "--n-max", "20") == 0

    def test_failure_exit_3(self, capsys):
        assert run("verify", "--suite", "ratio-chain", "--w", "2/5,1/5,2/5",
                   "--n-max", "6") == 3

    def test_stats_suite(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run("verify", "--suite", "stats", "--w", "1,1,1,1", "--n-max", "4",
                   "--samples", "2000", "--seed", "3", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True

    def test_stats_theta_builds_one_table_set(self, monkeypatch, capsys):
        built = []

        def counting(*args, build=treegrow.sgtrees.compute_tables, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(treegrow.cli, "compute_tables", counting)
        monkeypatch.setattr(treegrow.sgtrees, "compute_tables", counting)
        assert run("verify", "--suite", "stats", "--theta", "1,1", "--n-max", "3",
                   "--samples", "2000") == 0
        assert len(built) == 1

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run("verify", "--suite", "bogus") == 1
        capsys.readouterr()
