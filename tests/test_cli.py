import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
import treegrow.cli
import treegrow.compositions
import treegrow.sgtrees
from treegrow.cli import GROW_CAP, STATS_SAMPLES_CAP, exact_text, main, validate_trace
from treegrow.compositions import as_fraction
from treegrow.errors import DomainError, ParseError, ZeroMassError
from treegrow.oracle import SUBTREE_POSITION_CAP, sg_law
from treegrow.sgtrees import WeightSequence, check_ratio_chain, compute_tables
from treegrow.treespace import ROOT, RootedSubtree


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
# the same trace.  The CI smoke step checks the "sg", "subtree", "sg-arith" and "sg-arith-d3"
# digests on the installed script too, so a re-pin changes .github/workflows/tests.yml as well.
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


# (verify flags, exit code, SHA-256 of stdout) pinned from the implementation that compared
# Fraction minors and normalized Fraction tree masses: the four verify-exact benchmark configs,
# tp2 runs that fail (so failure order and both exact sides are pinned) and the tables suite
# on fractional weights.  tp2-1331-120 (at the cap) and tp2-10201-d2-60, which the arrays'
# adjacent rows decide, were pinned from the scan of every row pair; kernel-interchange-10201-d2
# from the stack walk of every row before rows were spliced from subtree rows.  The CI smoke step
# also checks the tp2-1131, tp2-2/5,1/5,2/5, tp2-1331-120, tp2-10201-d2-60, tables-2/5,1/5,2/5, ratio-chain-1331,
# ratio-chain-10201, kernel-interchange-1111 and kernel-interchange-10201-d2 digests on the installed script;
# re-pin a digest in both places.
GOLDEN_VERIFY = {
    "kernel-interchange-1111": (["--suite", "kernel-interchange", "--w", "1,1,1,1", "--n-max", "9"], 0,
                                "3aeb8cb55a429a92ec999456dc34b86c1f1824b874b75657d51fd3d1c8a56ed0"),
    "kernel-interchange-10201-d2": (["--suite", "kernel-interchange", "--w", "1,0,2,0,1", "--d", "2", "--n-max", "8"],
                                    0, "9ea999f5d92c3480f911333abca789cb57036fea26ace2d524002d5f796e4a27"),
    "ratio-chain-1331": (["--suite", "ratio-chain", "--w", "1,3,3,1", "--n-max", "200"], 0,
                         "f997b96d0caf0a4c3bc70d3cf65129c2405770c654ecb503a1132124176555ec"),
    "ratio-chain-10201": (["--suite", "ratio-chain", "--w", "1,0,2,0,1", "--d", "2", "--n-max", "150"], 0,
                          "15aa67ff4f09f8419a3706301ccfc0a017f6b6eca043d621c1dab59daa40065c"),
    "tp2-1331": (["--suite", "tp2", "--w", "1,3,3,1", "--n-max", "24"], 0,
                 "6330ce9194121dd5cdc74a8c3af3ecddc6974b08967ca29146ec3e50731ef506"),
    "tp2-1331-120": (["--suite", "tp2", "--w", "1,3,3,1", "--n-max", "120"], 0,
                     "995b61110e7eb6e8865f1e294657f38d8878f5ee4d0852057e24bca9264ef053"),
    "tp2-10201-d2-60": (["--suite", "tp2", "--w", "1,0,2,0,1", "--d", "2", "--n-max", "60"], 0,
                        "c6d3ffa0319b22649c697036f3baea696b142759a3445799ed5179f19dacafa0"),
    "tp2-1131": (["--suite", "tp2", "--w", "1,1,3,1"], 3,
                 "5a0c7617b3461605b5aa6b2e48270a3aa0418419d343a07082743b85e007f41e"),
    "tp2-2/5,1/5,2/5": (["--suite", "tp2", "--w", "2/5,1/5,2/5"], 3,
                        "d1e8191ede41d1f4507edd015c2e807aa230f7b9c5a5fb9c547465f918d56e95"),
    "tp2-1,0,1/10,0,1-d2": (["--suite", "tp2", "--w", "1,0,1/10,0,1", "--d", "2"], 3,
                            "bc4b6bf9ce9f4db5631e8e7d8266ec2d47e0d189032a239018c19965219f554a"),
    "tp2-1/2,1/3,1/7,1/11": (["--suite", "tp2", "--w", "1/2,1/3,1/7,1/11"], 3,
                             "b933ea6e78042c818d94afb0110d131a7987fcd830b86db66c3ead1ed0c9a8e7"),
    "tables-2/5,1/5,2/5": (["--suite", "tables", "--w", "2/5,1/5,2/5", "--n-max", "10"], 0,
                           "2615e5ef5c835555cc9cc9a6a170cd7b844e66f2715080f69f2f21ff864efa12"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_VERIFY))
def test_golden_verify(case, capsys):
    flags, code, digest = GOLDEN_VERIFY[case]
    assert run("verify", *flags) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), head=st.lists(st.sampled_from(["1", "2", "1/3"]), min_size=2, max_size=2),
       rest=st.lists(st.sampled_from(["0", "0", "1", "1/2"]), max_size=3), n_max=st.integers(1, 4))
@example(d=1, head=["1", "1"], rest=["0", "1"], n_max=4)   # --w 1,1,0,1
@example(d=2, head=["1", "2"], rest=["0", "0", "1"], n_max=2)
@example(d=1, head=["1", "1"], rest=["1", "0"], n_max=3)   # a trailing zero is no gap
def test_ratio_chain_refuses_exactly_the_vanishing_chains(d, head, rest, n_max):
    # w_0 w_d > 0, so the tables build: the refusal fires exactly when check_ratio_chain meets a zero mass
    entries = ["0"] * ((len(head) + len(rest) - 1) * d + 1)
    entries[::d] = head + rest
    w = WeightSequence([F(v) for v in entries])
    try:
        check_ratio_chain(compute_tables(w, d, N=(n_max + 2) * d + 1), n_max=n_max)
        vanishes = False
    except ZeroMassError:
        vanishes = True
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run("verify", "--suite", "ratio-chain", "--w", ",".join(entries), "--d", str(d),
                   "--n-max", str(n_max))
    refused = err.getvalue().startswith("error: --w has w_")
    assert refused == vanishes
    assert code in ((1,) if refused else (0, 3))  # 3: weights that fail the chain


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

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"model = sg\nw = 1,1\xff\n")
        line = self.assert_one_line_error(capsys, run("grow", "--config", str(cfg), "--n", "5"))
        assert line == f"error: {cfg}: not valid UTF-8 text"

    def test_config_bad_int(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = sg\nw = 1,1,1\nn = abc\n")
        line = self.assert_one_line_error(capsys, run("grow", "--config", str(cfg)))
        assert line.endswith("bad value for n: 'abc'")

    def test_config_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = sg\nw 1,1,1\n")
        line = self.assert_one_line_error(capsys, run("grow", "--config", str(cfg)))
        assert line == f"error: {cfg}:2: expected key = value"

    def test_validate_empty_trace(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        out.write_text("")
        with pytest.raises(ParseError, match="empty trace"):
            validate_trace(str(out), "sg")

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
        ["enumerate", "--plane-trees", "5", "--d", "0"],
    ], ids=["verify-n-max", "verify-samples", "verify-d", "enumerate-d"])
    def test_zero_refused(self, argv, capsys):
        assert "expected a positive integer, got '0'" in self.assert_one_line_error(capsys, run(*argv))

    @pytest.mark.parametrize("argv, line", [
        (["grow", "--bogus", "1"], "error: grow has no flag --bogus"),
        # a flag is named in full: no prefix of it, and no flag of another command
        (["verify", "--suite", "tp2", "--w", "1,3,3,1", "--n", "6"], "error: verify has no flag --n"),
        (["grow", "--model", "sg", "--w", "1,1", "--n", "4", "--se", "3"], "error: grow has no flag --se"),
        (["grow", "--suite", "tp2"], "error: grow has no flag --suite"),
        (["enumerate", "--plane_trees", "3"], "error: enumerate has no flag --plane_trees"),
        (["grow", "--model", "sg", "--w", "1,1", "--n"], "error: --n needs a value"),
        (["grow", "--out", "--n", "4"], "error: --out needs a value"),
        (["grow", "--model", "sg", "--w", "1,1", "--n", "4", "--decimal=1"], "error: --decimal takes no value"),
        (["grow", "sg"], "error: grow takes no argument 'sg'"),
        (["grow", "--model", "tree", "--w", "1,1", "--n", "4"],
         "error: --model: expected one of sg, sg-arith, subtree, got 'tree'"),
        (["verify", "--suite=bogus"], "error: --suite: expected one of tables, tp2, ratio-chain, kernel-interchange, "
                                      "bijection, subset-coupling, shuffle-invariance, stats, got 'bogus'"),
        (["grow", "--seed", "x"], "error: --seed: expected an integer, got 'x'"),
        ([], "error: no command: expected one of grow, verify, enumerate"),
        (["bogus"], "error: unknown command 'bogus': expected one of grow, verify, enumerate"),
        (["--bogus"], "error: unknown command '--bogus': expected one of grow, verify, enumerate"),
    ], ids=["unknown-flag", "verify-n", "grow-se", "other-command", "underscore", "no-value-at-end",
            "flag-for-value", "switch-value", "argument", "bad-model", "bad-suite", "bad-seed",
            "no-command", "unknown-command", "unknown-top-flag"])
    def test_usage_error(self, argv, line, capsys):
        assert self.assert_one_line_error(capsys, run(*argv)) == line

    @pytest.mark.parametrize("key", ["n_max", "samples", "d"])
    def test_zero_refused_in_config(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"suite = stats\n{key} = 0\n")
        line = self.assert_one_line_error(capsys, run("verify", "--config", str(cfg)))
        assert line.endswith(f"bad value for {key}: '0'")

    @pytest.mark.parametrize("argv", [
        ["tables", "--n-max", "11"],
        ["tp2", "--n-max", "121"],
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

    @pytest.mark.parametrize("model", [[], ["--theta", "1,1"]], ids=["sg", "subtree"])
    def test_stats_samples_above_cap_refused(self, model, monkeypatch, capsys):
        def nothing_built(*args, **kwargs):
            raise AssertionError("a law or table was built for a refused --samples")

        for name in ("sg_law", "st_law", "compute_tables"):
            monkeypatch.setattr(treegrow.cli, name, nothing_built)
        code = run("verify", "--suite", "stats", *model, "--samples", str(STATS_SAMPLES_CAP + 1))
        assert self.assert_one_line_error(capsys, code) == \
            f"error: --samples {STATS_SAMPLES_CAP + 1} is above the cap {STATS_SAMPLES_CAP} of the stats suite"

    @pytest.mark.parametrize("argv, line", [
        (["verify", "--suite", "stats", "--theta", "1,1,1,1"],
         f"error: --theta has support 4, above the cap {SUBTREE_POSITION_CAP} of the stats suite"),
        (["enumerate", "--subtrees", "4", "--dmax", "4"],
         f"error: --dmax 4 is above the cap {SUBTREE_POSITION_CAP} of enumerate --subtrees"),
    ], ids=["stats-theta", "enumerate-dmax"])
    def test_subtree_positions_above_cap_refused(self, argv, line, monkeypatch, capsys):
        def nothing_enumerated(*args, **kwargs):
            raise AssertionError("subtrees were enumerated over a refused position set")

        for name in ("enumerate_subtrees", "st_law"):
            monkeypatch.setattr(treegrow.cli, name, nothing_enumerated)
        assert self.assert_one_line_error(capsys, run(*argv)) == line

    @pytest.mark.parametrize("argv, line", [
        (["enumerate", "--plane-trees", "11"],
         "error: --plane-trees 11 is above the cap 10 of enumerate --plane-trees"),
        (["enumerate", "--plane-trees", "11", "--d", "2"],
         "error: --plane-trees 11 is above the cap 10 of enumerate --plane-trees"),
        (["enumerate", "--subtrees", "8"], "error: --subtrees 8 is above the cap 7 of enumerate --subtrees"),
        (["enumerate", "--subtrees", "8", "--dmax", "2"],
         "error: --subtrees 8 is above the cap 7 of enumerate --subtrees"),
    ], ids=["plane-trees", "plane-trees-d2", "subtrees", "subtrees-dmax"])
    def test_enumeration_size_above_cap_refused(self, argv, line, monkeypatch, capsys):
        def nothing_enumerated(*args, **kwargs):
            raise AssertionError("trees were enumerated for a refused size")

        for name in ("enumerate_plane_trees", "enumerate_subtrees"):
            monkeypatch.setattr(treegrow.cli, name, nothing_enumerated)
        assert self.assert_one_line_error(capsys, run(*argv)) == line

    @pytest.mark.parametrize("argv, message", [
        (["grow", "--n", "5"], "--model is required"),
        (["grow", "--model", "sg", "--w", "1,1"], "--n is required"),
        (["grow", "--model", "sg", "--n", "5"], "--w is required for tree models"),
        (["grow", "--model", "sg", "--w", "1,1", "--d", "2", "--n", "5"],
         "the sg model has d = 1; use sg-arith"),
        (["grow", "--model", "subtree", "--n", "5"], "--theta is required for the subtree model"),
        (["grow", "--model", "subtree", "--theta", "1,1", "--d", "3", "--n", "5"],
         "the subtree model has d = 1"),
        (["verify", "--suite", "stats", "--theta", "1,1", "--d", "2"], "the subtree model has d = 1"),
        (["verify"], "--suite is required"),
        (["enumerate"], "pass --plane-trees or --subtrees"),
        # a flag given on the command line that the command does not read
        (["grow", "--model", "sg", "--w", "1,1", "--theta", "1,2", "--n", "5"],
         "the sg model does not read --theta"),
        (["grow", "--model", "sg-arith", "--w", "1,0,1", "--d", "2", "--theta", "1", "--n", "5"],
         "the sg-arith model does not read --theta"),
        (["grow", "--model", "subtree", "--theta", "1,1", "--w", "1,3,3,1", "--n", "5"],
         "the subtree model does not read --w"),
        (["grow", "--model", "subtree", "--theta", "1,1", "--decimal", "--n", "5"],
         "the subtree model does not read --decimal"),
        (["grow", "--model", "sg", "--w", "1,1", "--n", "4", "--decimal"],
         "--decimal needs --out: it renders the probabilities of the trace file"),
        (["verify", "--suite", "tp2", "--theta", "1,2"], "the tp2 suite does not read --theta"),
        (["verify", "--suite", "tables", "--seed", "0"], "the tables suite does not read --seed"),
        (["verify", "--suite", "ratio-chain", "--samples", "5"],
         "the ratio-chain suite does not read --samples"),
        (["verify", "--suite", "kernel-interchange", "--theta", "1,1"],
         "the kernel-interchange suite does not read --theta"),
        (["verify", "--suite", "bijection", "--w", "1,1"], "the bijection suite does not read --w"),
        (["verify", "--suite", "subset-coupling", "--n-max", "3"],
         "the subset-coupling suite does not read --n-max"),
        (["verify", "--suite", "shuffle-invariance", "--d", "2"],
         "the shuffle-invariance suite does not read --d"),
        (["verify", "--suite", "stats", "--theta", "1,1", "--w", "1,1"],
         "the stats suite with --theta does not read --w"),
        (["enumerate", "--plane-trees", "3", "--subtrees", "2"],
         "enumerate --plane-trees does not read --subtrees"),
        (["enumerate", "--plane-trees", "5", "--d", "2", "--dmax", "3"],
         "enumerate --plane-trees does not read --dmax"),
        (["enumerate", "--subtrees", "3", "--d", "2"], "enumerate --subtrees does not read --d"),
    ], ids=["grow-model", "grow-n", "sg-w", "sg-d", "subtree-theta", "subtree-d", "stats-subtree-d",
            "verify-suite", "enumerate-kind", "unread-sg-theta", "unread-sg-arith-theta", "unread-subtree-w",
            "unread-subtree-decimal", "decimal-without-out", "unread-tp2-theta", "unread-tables-seed",
            "unread-ratio-chain-samples", "unread-kernel-interchange-theta", "unread-bijection-w",
            "unread-subset-coupling-n-max",
            "unread-shuffle-invariance-d", "unread-stats-theta-w",
            "unread-plane-trees-subtrees", "unread-plane-trees-dmax", "unread-subtrees-d"])
    def test_missing_argument(self, argv, message, capsys):
        assert self.assert_one_line_error(capsys, run(*argv)) == f"error: {message}"

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "bijection", "--d", "1", "--n-max", "3"],
        ["verify", "--suite", "subset-coupling", "--d", "1"],
        ["verify", "--suite", "shuffle-invariance", "--d", "1", "--n-max", "3"],
        ["enumerate", "--plane-trees", "3", "--d", "1"],
        ["enumerate", "--subtrees", "3", "--d", "1"],
    ], ids=["bijection", "subset-coupling", "shuffle-invariance", "plane-trees", "subtrees"])
    def test_d_1_accepted_where_d_is_fixed_at_1(self, argv, capsys):
        assert run(*argv) == 0

    @pytest.mark.parametrize("command", [["grow", "--model", "sg", "--n", "4"],
                                         ["grow", "--model", "subtree", "--n", "4"],
                                         ["verify", "--suite", "subset-coupling"],
                                         ["verify", "--suite", "bijection", "--n-max", "3"]],
                             ids=["sg", "subtree", "subset-coupling", "bijection"])
    def test_config_values_stay_defaults(self, command, tmp_path, capsys):
        # a config file shared by several commands: the values one does not read are not refused
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("w = 1,1\ntheta = 1,2\nseed = 3\nsamples = 5\nn_max = 4\n")
        assert run(*command, "--config", str(cfg)) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("command, text, key", [
        (["verify"], "suite = tables\nn_mx = 3\n", "n_mx"),
        (["grow"], "model = sg\nw = 1,1\nn = 4\nout = t.jsonl\ndecimal = 1\n", "decimal"),
        (["grow"], "model = sg\nw = 1,1\nn = 4\nplane_trees = 5\n", "plane_trees"),
        (["verify"], "suite = tables\nconfig = other.cfg\n", "config"),
    ], ids=["typo", "switch", "enumerate-only", "config"])
    def test_config_key_no_flag_takes_refused(self, command, text, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        line = self.assert_one_line_error(capsys, run(*command, "--config", str(cfg)))
        assert line == f"error: {cfg}: {key!r} is not a flag a config file can set"

    def test_verify_reads_out_from_config(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"suite = tables\nout = {report}\n")
        assert run("verify", "--config", str(cfg)) == 0
        assert report.read_text() == capsys.readouterr().out

    def test_decimal_reads_out_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'trace.jsonl'}\n")
        assert run("grow", "--model", "sg", "--w", "1,1", "--n", "4", "--decimal", "--config", str(cfg)) == 0
        steps = (tmp_path / "trace.jsonl").read_text().splitlines()[1:]
        assert steps and all("prob_decimal" in json.loads(line) for line in steps)

    @pytest.mark.parametrize("argv, line", [
        (["grow", "--model", "sg", "--w", "1,,1", "--n", "4"], "error: entry 2 of '1,,1' is empty"),
        (["grow", "--model", "sg", "--w", "1,1,", "--n", "4"], "error: entry 3 of '1,1,' is empty"),
        (["verify", "--suite", "tp2", "--w", ",1,1"], "error: entry 1 of ',1,1' is empty"),
        (["grow", "--model", "subtree", "--theta", "1, ,1", "--n", "4"], "error: entry 2 of '1, ,1' is empty"),
        (["verify", "--suite", "stats", "--theta", "1,1,"], "error: entry 3 of '1,1,' is empty"),
    ], ids=["grow-w", "grow-w-trailing", "verify-w-leading", "grow-theta", "stats-theta-trailing"])
    def test_empty_weight_entry_refused(self, argv, line, capsys):
        assert self.assert_one_line_error(capsys, run(*argv)) == line

    def test_empty_weight_entry_refused_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = sg\nw = 1,,1\nn = 4\n")
        assert self.assert_one_line_error(capsys, run("grow", "--config", str(cfg))) == \
            "error: entry 2 of '1,,1' is empty"

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

    def test_stats_n_max_without_a_tree_refused(self, monkeypatch, capsys):
        # trees of 1,0,1 at d = 2 have an odd number of vertices
        monkeypatch.setattr(treegrow.cli, "compute_tables", lambda *a, **k: pytest.fail("tables built"))
        monkeypatch.setattr(treegrow.cli, "sg_law", lambda *a, **k: pytest.fail("law built"))
        code = run("verify", "--suite", "stats", "--w", "1,0,1", "--d", "2", "--n-max", "4")
        line = self.assert_one_line_error(capsys, code)
        assert line == "error: --n-max 4 holds no tree for --d 2: tree sizes are 1 mod 2"

    @pytest.mark.parametrize("w, d, n", [("1,0,2,0,1", 2, 4), ("2,0,0,1", 3, 6)])
    def test_grow_n_without_a_tree_refused(self, w, d, n, monkeypatch, capsys):
        # the chain would stop one bouquet short of --n and exit 0
        monkeypatch.setattr(treegrow.cli, "GrowthChain", lambda *a, **k: pytest.fail("chain built"))
        monkeypatch.setattr(treegrow.sgtrees, "compute_tables", lambda *a, **k: pytest.fail("tables built"))
        code = run("grow", "--model", "sg-arith", "--w", w, "--d", str(d), "--n", str(n))
        line = self.assert_one_line_error(capsys, code)
        assert line == f"error: --n {n} holds no tree for --d {d}: tree sizes are 1 mod {d}"

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

    def test_tp2_cap_is_lower_for_weights_that_are_not_log_concave(self, monkeypatch, capsys):
        # a failing pair of rows lists every failing minor: O(n^4) of them
        def no_tables(*args, **kwargs):
            raise AssertionError("tables were built for a refused size")

        monkeypatch.setattr(treegrow.cli, "compute_tables", no_tables)
        line = self.assert_one_line_error(capsys, run("verify", "--suite", "tp2", "--w", "1,1,3,1", "--n-max", "41"))
        assert line == "error: --n-max 41 is above the cap 40 of the tp2 suite"

    @pytest.mark.parametrize("suite, argv, line", [
        pytest.param(suite, argv, line, id=f"{suite}-{argv[1]}")
        for argv, line in [
            (["--w", "0,1,1"], "error: --w has w_0 = 0: need w_0 w_1 > 0 for trees of every size to carry mass"),
            (["--w", "1,0,1"], "error: --w has w_1 = 0: need w_0 w_1 > 0 for trees of every size to carry mass"),
            (["--w", "1,0,0,0,1", "--d", "2"],
             "error: --w has w_2 = 0: need w_0 w_2 > 0 for trees of every size to carry mass")]
        for suite in ["tables", "tp2", "ratio-chain", "kernel-interchange", "stats", "shuffle-invariance"]
        if suite != "shuffle-invariance" or "--d" not in argv   # that suite reads no --d
    ])
    def test_zero_leaf_or_first_weight_refused_naming_w(self, suite, argv, line, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("tables or laws were built for refused weights")

        for name in ("compute_tables", "sg_law", "sg_word_masses", "shuffle_invariance_check"):
            monkeypatch.setattr(treegrow.cli, name, no_work)
        assert self.assert_one_line_error(capsys, run("verify", "--suite", suite, *argv)) == line

    def test_ratio_chain_internal_zero_refused_before_tables(self, monkeypatch, capsys):
        def no_tables(*args, **kwargs):
            raise AssertionError("tables were built for refused weights")

        monkeypatch.setattr(treegrow.cli, "compute_tables", no_tables)
        code = run("verify", "--suite", "ratio-chain", "--w", "1,1,0,1", "--n-max", "1000")
        assert self.assert_one_line_error(capsys, code) == (
            "error: --w has w_2 = 0 between positive weights: "
            "the ratio chain divides by each of w_0, w_1, w_2, ... below the radius")

    @pytest.mark.parametrize("argv, code, line", [
        (["sg", "--w", "2/5,1/5,2/5"], 2,
         "refused: offspring weights are not log-concave (first violation at index 1)"),
        (["sg", "--w", "1,0,1"], 2,
         "refused: offspring weights are not log-concave (first violation at index 1)"),
        (["sg", "--w", "0,1"], 1, "error: need w_0 w_1 > 0 for trees of every size to carry mass"),
        (["sg-arith", "--w", "0,0,1", "--d", "2"], 1,
         "error: need w_0 w_2 > 0 for trees of every size to carry mass"),
        (["sg", "--w", "1,-1,1"], 1, "error: weights must be non-negative"),
    ], ids=["janson", "internal-zero", "no-leaves", "arith-no-leaves", "negative"])
    def test_grow_refused_weights_message(self, argv, code, line, capsys):
        assert run("grow", "--model", *argv, "--n", "11") == code
        assert capsys.readouterr().err.splitlines() == [line]

    def test_refused_keeps_witness(self, capsys):
        assert run("verify", "--suite", "stats", "--w", "2/5,1/5,2/5", "--n-max", "3",
                   "--samples", "10") == 2
        assert "index 1" in capsys.readouterr().err


def test_every_flag_a_model_or_suite_reads_has_a_flags_entry():
    read = set().union(*treegrow.cli.MODELS.values(), *(reads for _, reads in treegrow.cli.SUITES.values()))
    assert read <= set(treegrow.cli.FLAGS)


class TestCommandLine:
    @pytest.mark.parametrize("command", ["grow", "verify", "enumerate"])
    def test_help_lists_every_flag(self, command, capsys):
        for flag in ("-h", "--help"):
            assert run(command, flag) == 0
            out = capsys.readouterr().out
            for key in treegrow.cli.COMMANDS[command][2]:
                name = "--" + key.replace("_", "-")
                assert f"  {name}" in out and treegrow.cli.FLAGS[key]["help"] in out

    def test_help_and_version(self, capsys):
        assert run("-h") == 0
        out = capsys.readouterr().out
        assert all(f"  {command} " in out for command in ("grow", "verify", "enumerate"))
        assert run("--version") == 0
        assert capsys.readouterr().out == f"treegrow {treegrow.__version__}\n"

    def test_flag_equals_value(self, tmp_path, capsys):
        outs = []
        for argv in (["--suite", "tp2", "--w", "1,3,3,1", "--n-max", "6"],
                     ["--suite=tp2", "--w=1,3,3,1", "--n-max=6"]):
            assert run("verify", *argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_namespace_holds_every_flag_of_the_command(self):
        args = treegrow.cli.parse_command_line(["enumerate", "--plane-trees", "4", "--dot"])
        assert vars(args) == {"command": "enumerate", "plane_trees": 4, "subtrees": None, "d": None,
                              "dmax": None, "dot": True}

    @staticmethod
    def modules_loaded(argv):
        """The modules a fresh interpreter loads to import the CLI, and then to run ``main(argv)``."""
        result = helpers.run_fresh(
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import treegrow.cli\n"
            "imported = set(sys.modules)\n"
            f"code = treegrow.cli.main({argv!r})\n"
            "ran = set(sys.modules)\n"
            "print(json.dumps({'import': sorted(imported - before), 'main': sorted(ran - imported)}))\n"
            "sys.exit(code)\n")
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    def test_no_argparse_or_locale_imported(self):
        # the parse reads FLAGS: neither importing the CLI nor running a command loads argparse or locale
        loaded = self.modules_loaded(['verify', '--suite', 'tp2', '--w', '1,3,3,1', '--n-max', '6'])
        for step in ("import", "main"):
            assert not {"argparse", "locale"} & set(loaded[step]), (step, loaded[step])

    @pytest.mark.parametrize("argv", [["grow", "--model", "subtree", "--theta", "1/2,1/3", "--n", "6"],
                                      ["verify", "--suite", "stats", "--samples", "200"]], ids=["grow", "stats"])
    def test_no_dataclasses_or_inspect_imported(self, argv):
        # the value classes are plain classes with __slots__: dataclasses would pull in inspect, ast and dis
        loaded = self.modules_loaded(argv)
        for step in ("import", "main"):
            assert not {"dataclasses", "inspect", "ast", "dis"} & set(loaded[step]), (step, loaded[step])


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

    @pytest.mark.parametrize("argv, digest", [
        (["--plane-trees", "10"], "bb9152fb77962e414d1b663df7b85dd1789ab80e9b083d3c762571a2aeff60cc"),
        (["--plane-trees", "9", "--d", "2"], "628180b925a35cc743c6baa789024066066a02100f5c4c8dcec1356f8e228c5a"),
    ], ids=["10", "9-d2"])
    def test_plane_tree_listing_bytes(self, argv, digest, capsys):
        # the whole listing is pinned, so its canonical order is; the CI smoke step checks the first too
        assert run("enumerate", *argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_subtrees(self, capsys):
        assert run("enumerate", "--subtrees", "3", "--dmax", "2") == 0
        assert "count: 5" in capsys.readouterr().out

    def test_arith(self, capsys):
        assert run("enumerate", "--plane-trees", "5", "--d", "2") == 0
        assert "count: 3" in capsys.readouterr().out

    def test_plane_trees_read_d(self, capsys):
        # --d 1 lists what no --d lists; --d 2 keeps the trees whose every degree is even
        assert run("enumerate", "--plane-trees", "3", "--d", "1") == 0
        assert capsys.readouterr().out == "e,1,1.1\ne,1,2\ncount: 2\n"
        assert run("enumerate", "--plane-trees", "3", "--d", "2") == 0
        assert capsys.readouterr().out == "e,1,2\ncount: 1\n"

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

    @pytest.mark.parametrize("argv, checked", [
        (["--w", "1,3,3,1"], 15), (["--w", "1,0,1", "--d", "2"], 8), (["--w", "1,0,0,2", "--d", "3"], 6),
    ], ids=["d1", "d2", "d3"])
    def test_tables_suite_checks_lagrange_at_every_d(self, argv, checked, capsys):
        # the enumeration at sizes 1 mod d up to 7, then Lagrange inversion up to 8
        assert run("verify", "--suite", "tables", *argv) == 0
        assert json.loads(capsys.readouterr().out)["checked"] == checked

    @pytest.mark.parametrize("argv, n, enumerated", [
        (["--w", "1,3,3,1"], 5, True), (["--w", "1,3,3,1"], 8, False),
        (["--w", "1,0,1", "--d", "2"], 5, True), (["--w", "1,0,0,2", "--d", "3"], 7, True),
    ], ids=["d1", "d1-past-the-enumeration", "d2", "d3"])
    def test_skewed_tree_mass_fails_lagrange(self, argv, n, enumerated, monkeypatch, capsys):
        def skewed(*args, build=treegrow.sgtrees.compute_tables, **kwargs):
            tables = build(*args, **kwargs)
            tables._b[n] += 1
            return tables

        monkeypatch.setattr(treegrow.cli, "compute_tables", skewed)
        assert run("verify", "--suite", "tables", *argv) == 3
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert failures[-1] == {"n": n, "kind": "lagrange-identity-mismatch"}
        assert len(failures) == 1 + enumerated

    @pytest.mark.parametrize("suite, argv, digest", [
        ("tables", ["--w", "1,3,3,1"], "f8090fffe0f65c785a07511b9dff641e65e27c265eea57bed80ef14450964456"),
        ("bijection", ["--n-max", "3"], "fe0a9a09e8ca3b8230d2fa4a2b901fc8f1d8d17d42f0c435b9575cb454d97122"),
        ("subset-coupling", ["--theta", "3,2,1"],
         "20b129d51cb077a908efb0d2b835c480675b3ef4286067ca57d106f0a968c967"),
        ("kernel-interchange", ["--w", "1,1,1,1", "--n-max", "5"],
         "63d04eabd463269a2cce74e82ac5b856ee09c7ea148651747578c06e433bf5dd"),
    ])
    def test_planted_fault_report_bytes(self, suite, argv, digest, monkeypatch, capsys):
        # a suite's report of a planted fault is pinned byte for byte: its count, failures and keys
        if suite == "tables":   # b_5 one too large: both the enumeration and Lagrange disagree
            b_value = treegrow.sgtrees.PartitionTables.b_value
            monkeypatch.setattr(treegrow.sgtrees.PartitionTables, "b_value",
                                lambda self, n: b_value(self, n) + (n == 5))
        elif suite == "bijection":   # every 3-vertex subtree comes back as the root alone
            inverse = treegrow.cli.bij_P_inv
            monkeypatch.setattr(treegrow.cli, "bij_P_inv", lambda tree, decorations: (
                RootedSubtree([ROOT]) if len(tree) == 3 else inverse(tree, decorations)))
        elif suite == "subset-coupling":   # reversed thresholds, and no 2-subset law
            thresholds, subset_law = treegrow.cli.nested_thresholds, treegrow.cli.subset_law
            monkeypatch.setattr(treegrow.cli, "nested_thresholds", lambda theta: thresholds(theta)[::-1])
            monkeypatch.setattr(treegrow.cli, "subset_law", lambda theta, k: {} if k == 2 else subset_law(theta, k))
        else:   # from the parts (1, 1) at total 2, the first increment and the append swap probabilities
            kernel_row = treegrow.compositions.PartitionKernel.kernel_row

            def swapped(self, t, parts):
                row = kernel_row(self, t, parts)
                if t == 2 and tuple(parts) == (1, 1):
                    row[("inc", 0)], row[("append", 2)] = row[("append", 2)], row[("inc", 0)]
                return row

            monkeypatch.setattr(treegrow.compositions.PartitionKernel, "kernel_row", swapped)
        assert run("verify", "--suite", suite, *argv) == 3
        out = capsys.readouterr().out
        report = json.loads(out)
        failures = report["failures"] if "failures" in report else [lv for lv in report["levels"] if not lv["ok"]]
        assert failures and hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("suite, default, extra", [
        ("tables", (1,) * 8, ()), ("tp2", (1,) * 8, ()), ("kernel-interchange", (1,) * 7, ()),
        ("ratio-chain", (1, 3, 3, 1), ()), ("stats", (1,) * 6, ("--samples", "500"))])
    @pytest.mark.parametrize("d", [2, 3])
    def test_default_weights_spread_over_multiples_of_d(self, suite, default, extra, d, capsys):
        # without --w the suite's default sits on 0, d, 2d, ... with zeros between
        assert run("verify", "--suite", suite, "--d", str(d), *extra) == 0
        report = json.loads(capsys.readouterr().out)
        spread = ",".join(str(default[i // d]) if i % d == 0 else "0" for i in range((len(default) - 1) * d + 1))
        assert run("verify", "--suite", suite, "--d", str(d), "--w", spread, *extra) == 0
        assert report["ok"] is True and json.loads(capsys.readouterr().out) == report

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

    @pytest.mark.parametrize("argv", [
        ["--theta", "1/2,1/3,1/4", "--n-max", "4", "--samples", "2000", "--seed", "0"],
        ["--theta", "1/2,1/3,1/4", "--n-max", "4", "--samples", "2000", "--seed", "1"],
        ["--theta", "1/2,1/3,1/4", "--n-max", "4", "--samples", "2000", "--seed", "2"],
        ["--n-max", "8"],
        ["--theta", "1,1", "--n-max", "3", "--samples", "200"],
    ], ids=["theta-seed0", "theta-seed1", "theta-seed2", "sg-421-trees", "theta-200-samples"])
    def test_stats_tv_gate_scales_with_the_sample(self, argv, capsys):
        # each run's TV is above 5/100 and below sqrt((K ln 2 + ln 1000) / 2N)
        assert run("verify", "--suite", "stats", *argv) == 0
        (fit,) = json.loads(capsys.readouterr().out)["runs"]
        assert F(5, 100) < F(fit["tv"]) and fit["p_value"] > 0.001

    @pytest.mark.parametrize("model", [[], ["--theta", "1/2,1/3,1/4"]], ids=["sg", "theta"])
    def test_stats_runs_without_scipy(self, model):
        argv = ["verify", "--suite", "stats", "--samples", "2000", *model]
        done = helpers.run_without_scipy(f"from treegrow.cli import main\nsys.exit(main({argv!r}))")
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout, parse_constant=lambda c: pytest.fail(f"{c} in the JSON"))
        assert report["ok"] is True and all(isinstance(fit["p_value"], float) for fit in report["runs"])

    def test_stats_refuses_a_mis_fitted_law(self, monkeypatch, capsys):
        # the default chains grow 1,1,1,1,1,1 trees; fitted to the law of 1,11/10,1,1,1,1 they fail
        monkeypatch.setattr(treegrow.cli, "sg_law",
                            lambda w, d, n: sg_law(WeightSequence([1, "11/10", 1, 1, 1, 1]), d, n))
        assert run("verify", "--suite", "stats") == 3
        assert json.loads(capsys.readouterr().out)["ok"] is False

    def test_stats_single_tree_is_a_vacuous_fit(self, capsys):
        # n = d + 1 = 10 holds one tree: no chi-square degree of freedom, every sample on it
        code = run("verify", "--suite", "stats", "--w", "1" + ",0" * 8 + ",1", "--d", "9", "--samples", "10")
        report = json.loads(capsys.readouterr().out, parse_constant=lambda c: pytest.fail(f"{c} in the JSON"))
        assert code == 0 and report["ok"] is True
        (fit,) = report["runs"]
        assert (fit["categories"], fit["dof"], fit["chi_square"], fit["p_value"], fit["tv"]) == (1, 0, 0.0, 1.0, "0")

    @pytest.mark.parametrize("argv, keeps", [
        (["verify", "--suite", "ratio-chain", "--n-max", "30"], False),
        (["verify", "--suite", "ratio-chain", "--w", "1,0,2,0,1", "--d", "2"], False),
        (["verify", "--suite", "tables"], False),
        (["verify", "--suite", "tp2", "--n-max", "12"], None),
        (["verify", "--suite", "kernel-interchange", "--n-max", "4"], False),
        (["verify", "--suite", "stats", "--samples", "50"], True),
        (["verify", "--suite", "stats", "--theta", "1,1", "--samples", "50"], True),
        (["grow", "--model", "sg", "--w", "1,3,3,1", "--n", "12"], True),
        (["grow", "--model", "subtree", "--theta", "1/2,1/3", "--n", "12"], True),
    ], ids=["ratio-chain", "ratio-chain-d2", "tables", "tp2", "kernel-interchange", "stats", "stats-theta",
            "grow", "grow-subtree"])
    def test_only_chains_keep_the_peels_sums(self, argv, keeps, monkeypatch, capsys):
        # the inequality suites read a few rows or none: keeping the running sums would only cost them;
        # tp2 (keeps None) reads its forest arrays off powers of the weights and builds no tables at all
        init, built = treegrow.compositions.PartitionKernel.__init__, []

        def recording(self, *args):
            built.append(args[-1])
            init(self, *args)

        monkeypatch.setattr(treegrow.compositions.PartitionKernel, "__init__", recording)
        assert run(*argv) == 0
        capsys.readouterr()
        assert set(built) == ({keeps} if keeps is not None else set())

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
