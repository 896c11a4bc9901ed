"""The grow trace: the incremental writer and reader against whole-tree builds and checks."""

import contextlib
import copy
import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import treegrow.cli
import treegrow.sgtrees
from treegrow._rand import derive_rng
from treegrow.cli import main, parse_rational_list, validate_trace
from treegrow.errors import DomainError, ParseError
from treegrow.sgtrees import GrowthChain, grow_chain
from treegrow.subtree_model import SubtreeChain, subtree_grow_chain
from treegrow.treespace import (ROOT, GrowingText, PlaneTree, format_tree, word_from_text,
                                word_to_text)

from helpers import whole_tree_validate_trace


def grow_records(path, flags, seed):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["grow", *flags, "--seed", str(seed), "--out", str(path)]) == 0
    return [json.loads(line) for line in path.read_text().splitlines()]


THETA12 = ",".join(["1"] * 12)


@pytest.mark.parametrize("model, flags, d", [
    ("sg", ["--w", "1,3,3,1"], 1),
    ("sg-arith", ["--w", "1,0,0,1,0,0,1", "--d", "3"], 3),
    ("subtree", ["--theta", "1/2,1/3,1/4"], 1),
    ("subtree", ["--theta", THETA12], 1),
], ids=["sg", "sg-arith-d3", "subtree", "subtree-theta12"])
def test_lines_equal_format_tree(model, flags, d, tmp_path):
    seed, n = 5, 200
    records = grow_records(tmp_path / "t.jsonl", ["--model", model, *flags, "--n", str(n)], seed)
    if model == "subtree":
        theta = parse_rational_list(flags[1])
        lines = [rec["subtree"] for rec in records]
        expected = [format_tree(tau) for tau in subtree_grow_chain(theta, n, seed)]
    else:
        w = parse_rational_list(flags[1])
        lines = [rec["tree"] for rec in records]
        expected = [format_tree(tree) for tree in grow_chain(w, d, n, derive_rng(seed, "chain"))]
    assert lines == expected
    if flags[1] == THETA12:
        # a letter of two digits: text order and word order differ on this trace
        assert any(int(letter) >= 10 for word in lines[-1].split(",")[1:] for letter in word.split("."))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=60))
@example([0] * 12)
def test_growing_text_matches_format_tree(picks):
    # each pick plants the next child of one of the first five vertices, so some get ten or more
    text, kids, order = GrowingText(), {ROOT: 0}, [ROOT]
    for pick in picks:
        v = order[min(pick, len(order) - 1)]
        kids[v] += 1
        u = v + (kids[v],)
        kids[u] = 0
        order.append(u)
        text.add(u)
        assert str(text) == format_tree(PlaneTree(kids))


# (model flags, seed, SHA-256 of the trace), computed before the writer and reader became incremental
GOLDEN_TRACES_150 = {
    "sg": (["--model", "sg", "--w", "1,3,3,1", "--n", "150"], 1,
           "14c9b824e3f270f4a82d42136e21ef87fc785695c9e1edfc7661cb106c76d0ff"),
    "sg-arith": (["--model", "sg-arith", "--w", "1,0,2,0,1", "--d", "2", "--n", "151"], 1,
                 "f418829d60597ec97b99e0dfccb6912d68a250b7d1fd8e62e500981b7d3e3b57"),
    "subtree": (["--model", "subtree", "--theta", "1/2,1/3,1/4", "--n", "150"], 1,
                "30a6bb528e018d1dbe453376af79edd1f8efff55582cc9d52a5b8901a5982ef3"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_TRACES_150))
def test_golden_trace_150(case, tmp_path):
    flags, seed, digest = GOLDEN_TRACES_150[case]
    out = tmp_path / "trace.jsonl"
    grow_records(out, flags, seed)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_no_trace_text_without_out(monkeypatch, capsys):
    def no_text():
        raise AssertionError("trace text built without --out")

    monkeypatch.setattr(treegrow.cli, "GrowingText", no_text)
    assert main(["grow", "--model", "sg", "--w", "1,1,1", "--n", "20"]) == 0
    assert main(["grow", "--model", "subtree", "--theta", "1,1", "--n", "20"]) == 0
    assert "grew to 20 vertices in 19 steps" in capsys.readouterr().out


def test_chains_never_reduce_the_step_probability(monkeypatch):
    def no_reduction(step):
        raise AssertionError("a chain reduced its step probability")

    monkeypatch.setattr(treegrow.sgtrees.GrowthStep, "prob", property(no_reduction))
    chain = GrowthChain(["1", "1", "1"], horizon=30, rng=derive_rng(0, "chain"))
    steps = chain.run()
    sub = SubtreeChain(["1", "1"], horizon=30, seed=0)
    while sub.n < 30:
        sub.step()
    monkeypatch.undo()
    assert all(step.prob == Fraction(step.num, step.den) and 0 < step.prob <= 1 for step in steps)


def test_unknown_model_refused(tmp_path):
    out = tmp_path / "t.jsonl"
    grow_records(out, ["--model", "subtree", "--theta", "1,1", "--n", "6"], 0)
    validate_trace(str(out), "subtree")
    with pytest.raises(DomainError, match="unknown model"):
        validate_trace(str(out), "sg-arithmetic")


# ---------------------------------------------------------------------------
# the incremental reader accepts exactly what the whole-tree oracle accepts

MUTATION_BASES = {
    "sg": (["--model", "sg", "--w", "1,1,1", "--n", "14"], 1, "tree"),
    "sg-arith": (["--model", "sg-arith", "--w", "1,0,2,0,1", "--d", "2", "--n", "15"], 2, "tree"),
    "subtree": (["--model", "subtree", "--theta", "1/2,1/3,1/4", "--n", "14"], 1, "subtree"),
}
BAD_TOKENS = ["1.0", "x", "", " ", "0", "1..2", "01", " 1", "e", "-1"]


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Two real traces (seeds 0 and 1) per model, as lists of records, and a scratch file."""
    tmp = tmp_path_factory.mktemp("traces")
    base = {model: [grow_records(tmp / f"{model}-{seed}.jsonl", flags, seed) for seed in (0, 1)]
            for model, (flags, _, _) in MUTATION_BASES.items()}
    return base, tmp / "mutated.jsonl"


def mutate(data, records, other, field, model):
    """Apply one drawn mutation in place to the records of a trace."""
    kind = data.draw(st.sampled_from(["drop", "duplicate", "swap", "splice-other", "graft",
                                      "bad-token", "reorder", "duplicate-token", "no-root"]))
    if not records:
        return
    i = data.draw(st.integers(0, len(records) - 1))
    tokens = records[i][field].split(",")
    if kind == "drop":
        del records[i]
    elif kind == "duplicate":
        records.insert(data.draw(st.integers(0, len(records))), copy.deepcopy(records[i]))
    elif kind == "swap":
        j = data.draw(st.integers(0, len(records) - 1))
        records[i], records[j] = records[j], records[i]
    elif kind == "splice-other":
        # the same line of a trace of another seed: generally not nested
        records[i][field] = other[min(i, len(other) - 1)][field]
    elif kind == "graft":
        # a new line after line i with one or two more words, which every later line gets too:
        # leaves under a vertex of line i, right-leaning or not, or words whose parent may be missing
        try:
            words = [word_from_text(t) for t in tokens if t.strip()]
        except ParseError:
            return
        grafted = []
        for _ in range(data.draw(st.integers(1, 2))):
            v = data.draw(st.sampled_from(words))
            k = sum(1 for u in words if u and u[:-1] == v)
            letters = st.integers(1, k + 2 if model != "subtree" else 4)
            grafted.append(word_to_text(v + tuple(data.draw(st.lists(letters, min_size=1, max_size=2)))))
        records.insert(i + 1, copy.deepcopy(records[i]))
        for rec in records[i + 1:]:
            rec[field] = ",".join([rec[field]] + grafted)
    elif kind == "bad-token":
        bad = data.draw(st.sampled_from(BAD_TOKENS))
        if data.draw(st.booleans()):
            tokens[data.draw(st.integers(0, len(tokens) - 1))] = bad
        else:
            tokens.insert(data.draw(st.integers(0, len(tokens))), bad)
        records[i][field] = ",".join(tokens)
    elif kind == "reorder":
        records[i][field] = ",".join(data.draw(st.permutations(tokens)))
    elif kind == "duplicate-token":
        tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(st.sampled_from(tokens)))
        records[i][field] = ",".join(tokens)
    else:
        records[i][field] = ",".join(t for t in tokens if t != "e")


# rewrites of one line that keep its word set but not its canonical text
SAME_WORDS = {
    "swap": lambda tokens: tokens[1:2] + tokens[:1] + tokens[2:],
    "duplicate": lambda tokens: tokens + tokens[-1:],
    "empty-token": lambda tokens: tokens[:1] + [""] + tokens[1:],
    "zero-padded": lambda tokens: [t if t == "e" else "0" + t for t in tokens],
}


@pytest.mark.parametrize("mutation", sorted(SAME_WORDS))
@pytest.mark.parametrize("model", sorted(MUTATION_BASES))
def test_non_canonical_line_refused(traces, model, mutation):
    base, path = traces
    _, d, field = MUTATION_BASES[model]
    mutated = 0
    for i in (0, 2, -1):
        records = copy.deepcopy(base[model][0])
        text = ",".join(SAME_WORDS[mutation](records[i][field].split(",")))
        if text == records[i][field]:
            continue  # the root line has one token
        records[i][field] = text
        path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
        for validate in (validate_trace, whole_tree_validate_trace):
            with pytest.raises(DomainError):
                validate(str(path), model, d)
        mutated += 1
    assert mutated >= 2


def rejection(validate, path, model, d):
    try:
        validate(path, model, d)
    except DomainError as exc:
        return exc
    return None


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_incremental_reader_matches_whole_tree_oracle(traces, data):
    base, path = traces
    model = data.draw(st.sampled_from(sorted(MUTATION_BASES)))
    _, d, field = MUTATION_BASES[model]
    seed = data.draw(st.integers(0, 1))
    records = copy.deepcopy(base[model][seed])
    for _ in range(data.draw(st.integers(1, 2))):
        mutate(data, records, base[model][1 - seed], field, model)
    path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
    oracle = rejection(whole_tree_validate_trace, str(path), model, d)
    incremental = rejection(validate_trace, str(path), model, d)
    assert (oracle is None) == (incremental is None), (oracle, incremental)
