"""The grow trace: the incremental writer and reader against whole-tree builds and checks."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import treegrow.cli
import treegrow.sgtrees
import treegrow.subtree_model
from treegrow._rand import derive_rng, derive_seed
from treegrow.cli import main, parse_rational_list, validate_trace
from treegrow.compositions import PartitionKernel
from treegrow.errors import DomainError, ParseError
from treegrow.sgtrees import GrowthChain, WeightSequence, compute_tables, grow_chain
from treegrow.subtree_model import SubtreeChain, SummableTheta, subtree_grow_chain
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
    seed, n = 5, 1 + 199 // d * d  # the largest size up to 200 with trees for d
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


@pytest.mark.parametrize("flags", [
    ["--model", "sg", "--w", "1,1/2,1/6", "--n", "80", "--decimal"],
    ["--model", "sg-arith", "--w", "1,0,2,0,1", "--d", "2", "--n", "61"],
    ["--model", "subtree", "--theta", THETA12, "--n", "80"],
], ids=["sg-decimal", "sg-arith", "subtree-theta12"])
def test_lines_are_what_json_writes(flags, tmp_path):
    # the writer formats each line itself; json.dumps with sorted keys must give the same text
    path = tmp_path / "t.jsonl"
    grow_records(path, flags, 3)
    lines = path.read_text().splitlines()
    assert lines == [json.dumps(json.loads(line), sort_keys=True) for line in lines]


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
        text.add(u, word_to_text(u))
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


def warm_step_laws(tables):
    for ell in range(tables.max_a_index() - 1):
        for t in range(1, tables.N - tables.d):
            tables.step_probs(ell, t)


def sg8_steps(count):
    """Steps of sg8 chains (w = 1 x 9, n = 8) on one warm table set, seeded as the benchmark seeds them."""
    w = WeightSequence([1] * 9)
    tables = compute_tables(w, 1, N=8)
    warm_step_laws(tables)
    for i in range(count):
        chain = GrowthChain(w, horizon=8, rng=derive_rng(0, "sg8", i), tables=tables)
        while chain.n < 8:
            step = chain.step()
            num = den = 1
            for p, q in step.factors:
                num, den = num * p, den * q
            yield step.parent, step.new_vertices, num, den


def subtree20_steps(count):
    """New vertices of subtree20 chains (theta = 2,1,1, n = 20) on one warm table set, seeded likewise."""
    theta = SummableTheta(["2", "1", "1"])
    tables = compute_tables(WeightSequence(theta.e), 1, N=20)
    warm_step_laws(tables)
    for i in range(count):
        chain = SubtreeChain(theta, horizon=20, seed=derive_rng(0, "subtree20", i).getrandbits(63),
                             tables=tables)
        while chain.n < 20:
            yield chain.step()


# (step source, chains, SHA-256 of the steps' reprs); pinned before chains on supplied
# tables stopped re-checking log-concavity and bernoulli stopped building a LazyUniform
GOLDEN_SUPPLIED_TABLES = {
    "sg8": (sg8_steps, 200, "73cbdd28d596e733a23f9355ac54a80f9b49adf1fd3be692e8e78b7cc056ae19"),
    "subtree20": (subtree20_steps, 50, "8e1a6adff2693c43dbbc180e3223566a33d0ee9c2009e0e6f742cb3f2ec93e7f"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SUPPLIED_TABLES))
def test_golden_chains_on_supplied_tables(case):
    steps, count, digest = GOLDEN_SUPPLIED_TABLES[case]
    h = hashlib.sha256()
    for step in steps(count):
        h.update(repr(step).encode())
    assert h.hexdigest() == digest


# totals over the chains of GOLDEN_SUPPLIED_TABLES, counted inside chain steps: calls of the
# names perfbench wraps in the sampling walk, the misses of the decision memo (each one step_probs
# call), and the 32-bit chunks the chains' streams hand out; steps, sample_move and chunks pinned
# before bernoulli and is_below decided each chunk inline, step_probs and decision when each part
# read its decision from the memo
GOLDEN_HOOK_COUNTS = {
    "sg8": dict(steps=1400, sample_move=2972, step_probs=56, decision=56, chunks=3216),
    "subtree20": dict(steps=950, sample_move=5081, step_probs=215, decision=215, chunks=6626),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_HOOK_COUNTS))
def test_hook_counts_on_supplied_tables(case, monkeypatch):
    """No work moves between the layers perfbench times: same calls, same bits, step for step."""
    counts = Counter()
    inside = [0]  # open chain steps; the warm-up and the seed draws of the step sources fall outside

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += inside[0] > 0
            return fn(*args)
        return wrapper

    def step(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            inside[0] += 1
            try:
                return fn(*args)
            finally:
                inside[0] -= 1
        return wrapper

    class CountingRandom(random.Random):
        def getrandbits(self, k):
            if inside[0]:
                assert k == 32
                counts["chunks"] += 1
            return super().getrandbits(k)

    def counting_rng(*args):
        return CountingRandom(derive_seed(*args))

    monkeypatch.setattr(GrowthChain, "step", step(counted("steps", GrowthChain.step)))
    monkeypatch.setattr(SubtreeChain, "step", step(SubtreeChain.step))
    for name in ("sample_move", "step_probs", "decision"):
        monkeypatch.setattr(PartitionKernel, name, counted(name, getattr(PartitionKernel, name)))
    monkeypatch.setattr(treegrow.subtree_model, "derive_rng", counting_rng)
    monkeypatch.setitem(globals(), "derive_rng", counting_rng)
    steps, count, _ = GOLDEN_SUPPLIED_TABLES[case]
    for _ in steps(count):
        pass
    assert dict(counts) == GOLDEN_HOOK_COUNTS[case]


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
    assert all(step.prob == math.prod(Fraction(p, q) for p, q in step.factors) and 0 < step.prob <= 1
               for step in steps)


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


def new_words_key(field):
    return "new_vertices" if field == "tree" else "new_vertex"


def mutate(data, records, other, field, model):
    """Apply one drawn mutation in place to the records of a trace."""
    kind = data.draw(st.sampled_from(["drop", "duplicate", "swap", "splice-other", "graft", "bad-token",
                                      "reorder", "duplicate-token", "no-root", "new-token", "recorded-field"]))
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
        if not words:
            return  # a no-root mutation can leave the line without words
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
    elif kind == "new-token":
        # the token of a word new on line i rewritten, on that line alone or from it on
        rewrite = data.draw(st.sampled_from(sorted(NEW_TOKEN)))
        rewrite_new_token(records, i, field, rewrite, data.draw(st.booleans()), data.draw(st.booleans()))
    elif kind == "recorded-field":
        # n or step moved, or the new words of another line, or one word of line i among them
        key = data.draw(st.sampled_from(["n", "step", new_words_key(field)]))
        if key in ("n", "step"):
            records[i][key] += data.draw(st.sampled_from([-2, -1, 1, 2]))
        elif data.draw(st.booleans()):
            records[i][key] = copy.deepcopy(records[data.draw(st.integers(0, len(records) - 1))][key])
        else:
            label = data.draw(st.sampled_from(tokens))
            records[i][key] = label if model == "subtree" else records[i][key][:-1] + [label]
    elif kind == "duplicate-token":
        tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(st.sampled_from(tokens)))
        records[i][field] = ",".join(tokens)
    else:
        records[i][field] = ",".join(t for t in tokens if t != "e")


def restamp(records, field):
    """Rewrite each line's n, step and new words to agree with its tree text and the line before.

    So a mutated tree is judged by its words alone; a subtree line that
    gains other than one token records them joined, which parses as no word.
    """
    before = set()
    for index, rec in enumerate(records):
        tokens = rec[field].split(",")
        fresh = [t for t in tokens if t not in before]
        rec["n"], rec["step"] = len(tokens), index
        rec[new_words_key(field)] = fresh if field == "tree" else ",".join(fresh)
        before = set(tokens)


def respell(token):
    """A second spelling of a word's text: its first letter zero-padded."""
    return "0" + token


# rewrites of the token of a word new on its line, given the tokens of the line before
NEW_TOKEN = {
    "zero-padded": lambda token, before: respell(token),
    "space-padded": lambda token, before: " " + token,  # word_from_text strips the space
    "second-spelling": lambda token, before: respell(before[-1]),  # of a word present on the line before
    "missing-parent": lambda token, before: token + ".1",
    "zero-letter": lambda token, before: token[:token.rfind(".") + 1] + "0",
}


def rewrite_new_token(records, i, field, rewrite, persist, relabel=False):
    """Rewrite the first token of line i that line i - 1 lacks, on line i alone or on every line from i on.

    With ``relabel``, line i records the rewritten token as its new word
    too, so the line agrees with itself.  Does nothing when line i has no
    such token or (for a second spelling) the line before has no word but
    the root.
    """
    if i == 0:
        return
    before = records[i - 1][field].split(",")
    fresh = [t for t in records[i][field].split(",") if t not in before]
    if not fresh or (rewrite == "second-spelling" and before[-1] == "e"):
        return
    target, replacement = fresh[0], NEW_TOKEN[rewrite](fresh[0], before)
    for rec in records[i:] if persist else records[i:i + 1]:
        rec[field] = ",".join(replacement if t == target else t for t in rec[field].split(","))
    if relabel:
        key = new_words_key(field)
        new = records[i][key]
        records[i][key] = replacement if new == target else [replacement if t == target else t for t in new]


@pytest.mark.parametrize("persist, relabel", [(False, False), (True, False), (False, True), (True, True)],
                         ids=["line", "onwards", "line-and-label", "onwards-and-label"])
@pytest.mark.parametrize("rewrite", sorted(NEW_TOKEN))
@pytest.mark.parametrize("model", sorted(MUTATION_BASES))
def test_new_token_rewrite_refused(traces, model, rewrite, persist, relabel):
    base, path = traces
    _, d, field = MUTATION_BASES[model]
    for i in (1, 2, -1):
        records = copy.deepcopy(base[model][0])
        rewrite_new_token(records, i % len(records), field, rewrite, persist, relabel)
        if records == base[model][0]:
            assert i == 1 and rewrite == "second-spelling"  # line 0 holds the root alone
            continue
        path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
        for validate in (validate_trace, whole_tree_validate_trace):
            with pytest.raises(DomainError):
                validate(str(path), model, d)


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
    if data.draw(st.booleans()):
        restamp(records, field)
    path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
    oracle = rejection(whole_tree_validate_trace, str(path), model, d)
    incremental = rejection(validate_trace, str(path), model, d)
    assert (oracle is None) == (incremental is None), (oracle, incremental)


@pytest.mark.parametrize("key", ["n", "step", "new words"])
@pytest.mark.parametrize("model", sorted(MUTATION_BASES))
def test_recorded_step_disagreeing_with_the_tree_refused(traces, model, key):
    # the tree text is left as grown: only the recorded n, step or new words are wrong
    base, path = traces
    _, d, field = MUTATION_BASES[model]
    key = new_words_key(field) if key == "new words" else key
    for i in (0, 2, -1):
        records = copy.deepcopy(base[model][0])
        if key in ("n", "step"):
            records[i][key] += 1
        else:
            records[i][key] = records[i - 1 if i else 1][key]
        path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
        for validate in (validate_trace, whole_tree_validate_trace):
            with pytest.raises(DomainError):
                validate(str(path), model, d)


# line 2 of a grown trace replaced by a line that is no trace record
MALFORMED = {
    "not-json": lambda rec, field, key: '{"n": 2, "step": 1',
    "not-an-object": lambda rec, field, key: json.dumps([rec[field], rec["n"]]),
    "no-tree": lambda rec, field, key: json.dumps({k: v for k, v in rec.items() if k != field}),
    "no-n": lambda rec, field, key: json.dumps({k: v for k, v in rec.items() if k != "n"}),
    "no-step": lambda rec, field, key: json.dumps({k: v for k, v in rec.items() if k != "step"}),
    "no-new-words": lambda rec, field, key: json.dumps({k: v for k, v in rec.items() if k != key}),
    "tree-not-a-string": lambda rec, field, key: json.dumps({**rec, field: rec[field].split(",")}),
    "new-word-not-a-string": lambda rec, field, key: json.dumps({**rec, key: 1}),
    "n-not-an-integer": lambda rec, field, key: json.dumps({**rec, "n": float(rec["n"])}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("model", sorted(MUTATION_BASES))
def test_malformed_line_refused_naming_its_line(traces, model, case):
    base, path = traces
    _, d, field = MUTATION_BASES[model]
    lines = [json.dumps(rec, sort_keys=True) for rec in base[model][0]]
    lines[1] = MALFORMED[case](base[model][0][1], field, new_words_key(field))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DomainError, match=f"^{re.escape(str(path))}:2: "):
        validate_trace(str(path), model, d)


@pytest.mark.parametrize("earlier", [False, True], ids=["second-line", "after-a-malformed-line"])
@pytest.mark.parametrize("model", ["sg", "subtree"])
def test_line_not_utf8_refused_naming_its_line(traces, model, earlier, tmp_path):
    # a two-line trace whose second line holds the byte 0xff; the text is decoded ahead of the lines
    # checked, yet a fault on an earlier line is still the one named
    base, _ = traces
    _, d, field = MUTATION_BASES[model]
    lines = [json.dumps(rec, sort_keys=True).encode() for rec in base[model][0][:2]]
    lines[1] = lines[1].replace(b'"n"', b'"n\xff"')
    if earlier:
        lines.insert(1, b'{"n": 2, "step": 1')
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    message = "not a JSON line" if earlier else "not valid UTF-8 text"
    with pytest.raises(DomainError, match=f"^{re.escape(str(path))}:2: {message}$"):
        validate_trace(str(path), model, d)


@pytest.mark.parametrize("model", ["sg-arith", "subtree"])
def test_a_present_word_recorded_again_refused(traces, model):
    # line 2 re-adds a word of line 1: for subtree it is listed twice in the tree and counted in n;
    # for sg-arith the root heads the bouquet
    base, path = traces
    _, d, field = MUTATION_BASES[model]
    records = copy.deepcopy(base[model][0][:2])
    if model == "subtree":
        label = records[1]["new_vertex"]
        records.append({"n": 3, "new_vertex": label, "step": 2, "subtree": f"{records[1]['subtree']},{label}"})
    else:
        records.append({**records[1], "n": 5, "new_vertices": ["e", "1.1"], "step": 2, "tree": "e,1,1.1,2"})
    path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
    for validate in (validate_trace, whole_tree_validate_trace):
        with pytest.raises(DomainError):
            validate(str(path), model, d)
