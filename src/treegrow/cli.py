"""Command-line surface: grow chains, run verification suites, enumerate.

Exit codes: 0 success, 1 usage or configuration error, 2 growth refused
because the log-concavity hypothesis fails, 3 verification failure.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from . import __version__
from ._rand import derive_rng
from .compositions import CheckReport, as_fraction, check_ratio_chain, cleared
from .errors import DomainError, HorizonError, ParseError, Refused, TreegrowError
from .oracle import (PLANE_TREE_CAP, SUBTREE_CAP, SUBTREE_POSITION_CAP, enumerate_plane_trees,
                     enumerate_subtrees, goodness_of_fit, sg_law, sg_word_masses, st_law, subset_law,
                     kernel_interchange_check)
from .sgtrees import (WeightSequence, check_tp2_array, compute_tables, growth_kernel,
                      is_log_concave, packed_powers, require_log_concave, GrowthChain)
from .subtree_model import (SubtreeChain, SummableTheta, bij_P, bij_P_inv, nested_coupling_law,
                            nested_thresholds)
from .treespace import ROOT, GrowingText, Word, adds_bouquet, format_tree, to_dot, word_to_text

# --n-max caps not set by the enumeration caps of oracle.  On a 2-CPU Xeon:
# tp2 reads the forest arrays off n packed powers of the weights, O(n^2)
# slots, and decides each array by O(n^2) column comparisons, the scans of
# its adjacent rows, when those pass, as for log-concave weights (in process,
# medians of 7: 0.37-0.45 ms at n-max 24 for w = 1,3,3,1, 1 x 8 and
# 1/2,1/3,1/7, and 7.3-7.8, 7.7-8.5 and 11.8-12.8 ms at 120, against
# 0.7-0.8 ms and 36-42, 36-38 and 54-56 ms with the peel of the forest
# arrays); otherwise every pair of rows is scanned, and a pair that fails
# lists each failing minor, O(n^4) of them for weights far from log-concave
# (w = 1,1/1000,0,0,1 lists 35,370, a 15 MB report, in 0.78-0.84 s at 40,
# and 161,238, 104 MB, at 60), so weights whose w_0, w_d, ... is not
# log-concave keep the cap 40.
# ratio-chain compares O(n) ratios of ever longer integers (1000 takes about
# 1.2 s for w = 1,3,3,1 and 2.1 s for w = 1,0,2,0,1 at d = 2, whose tables
# reach total 2003).
TP2_CAP = 120
TP2_NOT_LOG_CONCAVE_CAP = 40
RATIO_CHAIN_CAP = 1000

# --samples cap of the stats suite, which grows a chain per sample.  On a 2-CPU Xeon, medians
# of 3 runs with interpreter start: 10,000 samples at the defaults take 0.42 s, 40,000 1.6 s and
# 100,000 4.1 s (about 40 us a chain); 10,000 take 1.4 s at --n-max 10 and 1.6 s with --theta
# 1/2,1/3,1/4 --n-max 7 (0.14 and 0.16 ms a chain): the cap holds runs under 30 s.
STATS_SAMPLES_CAP = 100_000

# Largest --theta support of the subset-coupling suite, whose nested coupling
# law holds one entry per insertion ordering: factorially many.  With all-ones
# theta on a 2-CPU Xeon, the suite takes about 0.03 s at a support of 6, 0.2 s
# at 7 and 1.8 s at 8, and each further entry multiplies that again.
SUBSET_SUPPORT_CAP = 8

# --n cap of grow.  The peel keeps, for the step laws to read, O(n^2) running sums of O(n) bits each, so
# memory grows like n^3 (and with the bit length of the weights).  On a 2-CPU Xeon, n = 600 with --out
# (seeds 0-2, two runs each, interpreter start included) peaks at 89-92 MB in 0.51-0.74 s for w = 1,3,3,1,
# 100-135 MB in 1.2-2.4 s for w = 1 x 8 and 149-152 MB in 0.75-0.84 s for the subtree model with
# theta = 1/2,1/3,1/4.
GROW_CAP = 600

ALWAYS_READ = {"command", "model", "suite", "out", "config"}   # by every model, suite and listing
# The flags each model of grow reads; a subtree trace has no probability for --decimal to render
MODELS = {"sg": {"w", "d", "n", "seed", "decimal"}, "sg-arith": {"w", "d", "n", "seed", "decimal"},
          "subtree": {"theta", "d", "n", "seed"}}


def parse_rational_list(text: str) -> List[Fraction]:
    """Comma-separated exact rationals; an empty entry, a trailing comma's included, is refused."""
    tokens = [tok.strip() for tok in text.split(",")]
    if "" in tokens:
        raise ParseError(f"entry {tokens.index('') + 1} of {text!r} is empty")
    try:
        return [as_fraction(tok) for tok in tokens]
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def positive_int(text: str) -> int:
    """An integer of at least 1: the cast of every size and count option, flag or config key."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _given(value, default):
    """The option's value, or ``default`` when it was not given (0 is a value, not a default)."""
    return default if value is None else value


def _n_max(args, default: int, cap: int) -> int:
    """The suite's ``--n-max``, refused above the largest size the suite can honour.

    A default above that cap is lowered to it.  Only ``--d`` lowers a cap
    below 1 (kernel-interchange enumerates trees of size n + d); the stats
    suite refuses a lowered default that holds no tree for its ``--d``.
    """
    if cap < 1:
        raise HorizonError(f"--d {args.d} leaves the {args.suite} suite no size to check")
    if args.n_max is None:
        return min(default, cap)
    if args.n_max > cap:
        raise HorizonError(f"--n-max {args.n_max} is above the cap {cap} of the {args.suite} suite")
    return args.n_max


def _weights(args, default: Tuple[int, ...]):
    """The suite's ``--w`` as a weight sequence, and its ``--d``.

    Without ``--w`` the entries of ``default`` sit on the multiples of d,
    with zeros between them, so that every ``--d`` has weights to check.
    A ``--w`` with w_0 or w_d zero is refused before any table is built:
    trees of some size would carry no mass.
    """
    d = _given(args.d, 1)
    if args.w is not None:
        w = WeightSequence(parse_rational_list(args.w))
        zero = next((i for i in (0, d) if w[i] == 0), None)
        if zero is not None:
            raise DomainError(f"--w has w_{zero} = 0: need w_0 w_{d} > 0 for trees of every size to carry mass")
        return w, d
    spread = [0] * ((len(default) - 1) * d + 1)
    spread[::d] = default
    return WeightSequence(spread), d


def parse_config_file(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParseError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not valid UTF-8 text") from None
    return values


def _flag_name(key: str) -> str:
    """The command-line name of the flag ``key``: ``n_max`` is ``--n-max``."""
    return "--" + key.replace("_", "-")


def flag_value(key: str, text: str):
    """``text`` as a value of the flag ``key``: the flag's ``type``, then its ``choices``.

    The one check of a value, given on the command line or in a config file.
    """
    spec = FLAGS[key]
    cast = spec.get("type", str)
    try:
        value = cast(text)
    except ValueError:
        value = None
    if value is None or ("choices" in spec and value not in spec["choices"]):
        expected = (f"one of {', '.join(spec['choices'])}" if "choices" in spec
                    else "a positive integer" if cast is positive_int else "an integer")
        raise ParseError(f"{_flag_name(key)}: expected {expected}, got {text!r}")
    return value


def _refuse_unread(given: Dict[str, object], reads, what: str):
    """Refuse a flag that ``what`` does not read, if the command line gave it.

    ``given`` holds the command line's values, copied before a config file
    fills in defaults.  ``--d 1`` passes wherever d is fixed at 1.
    """
    for key, value in given.items():
        if value is not None and key not in reads | ALWAYS_READ and (key != "d" or value != 1):
            raise ParseError(f"{what} does not read {_flag_name(key)}")


def _fill_from_config(args):
    """Give each flag of the command left unset by the command line its ``--config`` value.

    A key that no value flag of grow or verify takes is refused; one the command has no flag for stays unread.
    """
    if not args.config:
        return
    cfg = parse_config_file(args.config)
    settable = (COMMANDS["grow"][2] | COMMANDS["verify"][2]) - {"config"}
    for key in cfg:
        if key not in settable or FLAGS[key].get("switch"):   # a switch is set on the command line only
            raise ParseError(f"{args.config}: {key!r} is not a flag a config file can set")
    values = vars(args)
    for key, text in cfg.items():
        if key in values and values[key] is None:
            try:
                values[key] = flag_value(key, text)
            except ParseError:
                raise ParseError(f"{args.config}: bad value for {key}: {text!r}") from None


# ---------------------------------------------------------------------------
# grow


def cmd_grow(args) -> int:
    given = dict(vars(args))
    _fill_from_config(args)
    if args.model is None:
        raise ParseError("--model is required")
    _refuse_unread(given, MODELS[args.model], f"the {args.model} model")
    if args.decimal and not args.out:
        raise ParseError("--decimal needs --out: it renders the probabilities of the trace file")
    if args.n is None:
        raise ParseError("--n is required")
    if args.n > GROW_CAP:
        raise HorizonError(f"--n {args.n} is above the cap {GROW_CAP} of grow")
    seed = _given(args.seed, 0)
    d = _given(args.d, 1)
    if args.model in ("sg", "sg-arith"):
        if not args.w:
            raise ParseError("--w is required for tree models")
        if args.model == "sg" and d != 1:
            raise ParseError("the sg model has d = 1; use sg-arith")
        if (args.n - 1) % d:  # trees of d-arithmetic weights have 1 mod d vertices
            raise HorizonError(f"--n {args.n} holds no tree for --d {d}: tree sizes are 1 mod {d}")
        w = WeightSequence(parse_rational_list(args.w))
        chain = GrowthChain(w, d=d, horizon=args.n, rng=derive_rng(seed, "chain"))
    else:
        if not args.theta:
            raise ParseError("--theta is required for the subtree model")
        if d != 1:
            raise ParseError("the subtree model has d = 1")
        theta = SummableTheta(parse_rational_list(args.theta))
        chain = SubtreeChain(theta, horizon=args.n, seed=seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            steps = _grow(chain, args, d, handle)
        validate_trace(args.out, args.model, d)
    else:
        steps = _grow(chain, args, d, None)
    print(f"grew to {chain.n} vertices in {steps} steps (seed {seed})")
    return 0


def _grow(chain, args, d: int, handle) -> int:
    """Run the chain to ``--n``, printing each step and, given a handle, writing its trace.

    Each trace line carries the whole tree: its text is kept up to date by
    inserting the new words, so no step rebuilds or re-sorts the tree.
    Each line is the text ``json.dumps(record, sort_keys=True)`` gives for
    its record, formatted directly: every value is an int, a float or a
    text of digits, ``.``, ``,``, ``/`` and ``e``, which JSON writes as it
    is, and the encoder would spend most of its time scanning the tree text
    for characters to escape.  Returns the number of steps.
    """
    text = GrowingText() if handle else None
    if args.model == "subtree":
        if handle:
            handle.write('{"n": 1, "new_vertex": "e", "step": 0, "subtree": "e"}\n')
        while chain.n < args.n:
            new = chain.step()
            label = word_to_text(new)
            if handle:
                text.add(new, label)
                handle.write(f'{{"n": {chain.n}, "new_vertex": "{label}", "step": {chain.n - 1}, '
                             f'"subtree": "{text}"}}\n')
            print(f"step {chain.n - 1}: +{label}")
        return chain.n - 1
    if handle:
        handle.write('{"n": 1, "new_vertices": ["e"], "prob": "1", "step": 0, "tree": "e"}\n')
    while chain.n + d <= args.n:
        step = chain.step()
        labels = [word_to_text(u) for u in step.new_vertices]
        if handle:
            for u, label in zip(step.new_vertices, labels):
                text.add(u, label)
            prob = step.prob
            quoted = ", ".join(f'"{label}"' for label in labels)
            decimal = f', "prob_decimal": {float(prob)!r}' if args.decimal else ""
            handle.write(f'{{"n": {step.n}, "new_vertices": [{quoted}], "prob": "{exact_text(prob)}"{decimal}, '
                         f'"step": {step.index}, "tree": "{text}"}}\n')
        print(f"step {step.index}: +{','.join(labels)}")
    return chain.step_index


def exact_text(q: Fraction) -> str:
    """``str(q)``, also past the interpreter's limit on the decimal digits of an int.

    The limit (4300 digits by default) guards the parsing of untrusted
    text; the exact probability of a deep descent at a few hundred
    vertices can exceed it, and ``GROW_CAP`` bounds its length.
    """
    try:
        return str(q)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(q)
        finally:
            sys.set_int_max_str_digits(limit)


# The tree field and the new-words field of a trace line, by model
TRACE_FIELDS = {"sg": ("tree", "new_vertices"), "sg-arith": ("tree", "new_vertices"),
                "subtree": ("subtree", "new_vertex")}


def validate_trace(path: str, model: str, d: int = 1):
    """Re-validate a trace file line by line, each line by the step it records.

    A line records ``n``, ``step`` and its new words (``new_vertices``, or
    ``new_vertex`` for subtree): the first line step 0, the root alone, and
    each later one the next step, a right-leaning bouquet of ``d`` leaves
    (one leaf for sg) or one leaf under a present vertex (subtree), each new
    word labelled by its canonical text, ``n`` being the size after it.  The
    words join the child counts and the canonical text carried from line to
    line, which the line's tree must equal, so no tree is split or parsed.
    A line that is no JSON object of those fields, or not UTF-8 text, is
    refused at ``path:lineno``, the first such line in the file.
    """
    if model not in TRACE_FIELDS:
        raise DomainError(f"unknown model {model!r}: expected sg, sg-arith or subtree")
    # errors="surrogateescape" reads each byte that is not UTF-8 as one of U+DC80 to U+DCFF, for the check to refuse
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        if not _check_trace_lines(handle, path, model, d):
            raise ParseError(f"{path}: empty trace")


def _check_trace_lines(lines, path: str, model: str, d: int) -> int:
    """Check the lines of a trace as ``validate_trace`` does, numbered from 1; returns the steps read."""
    field, new_field = TRACE_FIELDS[model]
    read = itemgetter(field, "n", "step", new_field)
    kids: Dict[Word, int] = {}   # the child counts of the words so far
    words_of: Dict[str, Word] = {}   # the words so far but the root, by their canonical texts
    canon = GrowingText()
    step = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii() and re.search("[\udc80-\udcff]", line):
            raise DomainError(f"{path}:{lineno}: not valid UTF-8 text")
        if not line.strip():
            continue
        try:
            text, n, index, labels = read(json.loads(line))
        except ValueError:
            raise DomainError(f"{path}:{lineno}: not a JSON line") from None
        except (KeyError, TypeError):
            raise DomainError(f"{path}:{lineno}: not an object with {field}, n, step and {new_field}") from None
        if model == "subtree":
            labels = [labels]
        if type(labels) is not list or {type(text), *map(type, labels)} != {str} or {type(n), type(index)} != {int}:
            raise DomainError(f"{path}:{lineno}: the {field} and {new_field} must be text, n and step integers")
        words = [_child_word(label, words_of) for label in labels]
        if step:
            ok = not any(map(kids.__contains__, words)) and (field == "subtree" or adds_bouquet(kids, words, d))
        else:
            ok = labels == ["e"]
        if not ok or index != step or n != len(kids) + len(words):
            raise DomainError(f"{path}:{lineno}: the line records no {model} growth step from the line before")
        for u, label in zip(words, labels):
            kids[u] = 0
            if u:
                kids[u[:-1]] += 1
                words_of[label] = u
                canon.add(u, label)
        if str(canon) != text:
            raise DomainError(f"{path}:{lineno}: the {field} is not the canonical text of its words")
        step += 1
    return step


def _child_word(label: str, words_of: Dict[str, Word]) -> Word:
    """The word ``label`` is the canonical text of, a child of the root or of ``words_of``; else the root."""
    head, dot, last = label.rpartition(".")
    parent = words_of.get(head) if dot else ROOT
    try:
        letter = int(last)
    except ValueError:
        return ROOT
    return parent + (letter,) if parent is not None and letter > 0 and str(letter) == last else ROOT


# ---------------------------------------------------------------------------
# verify


def _suite_result(report: CheckReport) -> dict:
    """A suite's JSON result: the report's count, verdict and failures under the suite's name."""
    return {"suite": report.name, "checked": report.checked, "ok": report.ok, "failures": report.failures}


def _suite_tables(args) -> dict:
    w, d = _weights(args, (1,) * 8)
    n_max = _n_max(args, 7, PLANE_TREE_CAP)
    tables = compute_tables(w, d, N=n_max + d)
    # the trees of size n weigh L^n b_n on the integer weights L w_k
    scale, ints = cleared(w.progression(d))
    report = CheckReport("tables")
    for n in range(1, n_max + 1, d):
        enumerated = Fraction(sum(sg_word_masses(w, d, n).values()), scale ** n)
        b_n = tables.b_value(n)
        report.record(enumerated == b_n, n=n, recursion=b_n, enumeration=enumerated)
    # Lagrange inversion, n b_n = [y^(n-1)] w(y)^n, uses neither the peel nor the enumeration: with x = y^d,
    # slot (n - 1) / d of the n-th power of L w_0 + L w_d x + L w_2d x^2 + ...
    width, powers = packed_powers(ints, n_max + 1, n_max // d + 1)
    for n, power in enumerate(powers, start=1):
        if n % d == 1 % d:
            j = (n - 1) // d
            report.record(Fraction(int.from_bytes(power[j * width:(j + 1) * width], "little"), n * scale ** n)
                          == tables.b_value(n), n=n, kind="lagrange-identity-mismatch")
    return _suite_result(report)


def _suite_tp2(args) -> dict:
    w, d = _weights(args, (1,) * 8)
    # log-concavity of w_0, w_d, ... is TP2 of its Toeplitz matrix (Karlin), so no minor of it is checked
    lc = is_log_concave(w.progression(d))
    n_max = _n_max(args, 10, TP2_CAP if lc.ok else TP2_NOT_LOG_CONCAVE_CAP)
    array_report = check_tp2_array(w, d, n_max + 1)
    return {"suite": "tp2", "ok": lc.ok and array_report.ok, "log_concave": lc.ok, "witness": lc.witness,
            "array": array_report.as_dict()}


def _suite_ratio_chain(args) -> dict:
    w, d = _weights(args, (1, 3, 3, 1))
    n_max = _n_max(args, 10, RATIO_CHAIN_CAP)
    if w.is_d_arithmetic(d):
        # the ratios at n = 0 divide by Z_qd(0) = w_qd for every q below the radius
        progression = w.progression(d)
        gap = next((q for q in range(1, len(progression) - 1) if progression[q] == 0), None)
        if gap is not None:
            raise DomainError(f"--w has w_{gap * d} = 0 between positive weights: "
                              f"the ratio chain divides by each of w_0, w_{d}, w_{2 * d}, ... below the radius")
    tables = compute_tables(w, d, N=(n_max + 2) * d + 1)
    report = check_ratio_chain(tables, n_max=n_max)
    return {"suite": "ratio-chain", **report.as_dict()}


def _suite_kernel_interchange(args) -> dict:
    w, d = _weights(args, (1,) * 7)
    n_max = _n_max(args, 6, PLANE_TREE_CAP - d)  # the last level enumerates trees of size n + d
    require_log_concave(w, d)
    tables = compute_tables(w, d, N=n_max + d)
    rows = growth_kernel(tables)
    results = []
    ok = True
    masses_hi = sg_word_masses(w, d, 1)
    for n in range(1, n_max + 1, d):
        masses_lo, masses_hi = masses_hi, sg_word_masses(w, d, n + d)
        report = kernel_interchange_check(rows, masses_lo, masses_hi)
        ok = ok and report.ok
        results.append({"n": n, **report.as_dict()})
    return {"suite": "kernel-interchange", "ok": ok, "levels": results}


def _suite_bijection(args) -> dict:
    n_max = _n_max(args, 5, SUBTREE_CAP)
    report = CheckReport("bijection")
    for n in range(1, n_max + 1):
        for tau in enumerate_subtrees(n, dmax=3):
            report.record(bij_P_inv(*bij_P(tau)) == tau, n=n, tau=format_tree(tau))
    return _suite_result(report)


def _suite_subset_coupling(args) -> dict:
    theta = SummableTheta(parse_rational_list(_given(args.theta, "2,1")))
    if theta.n_support > SUBSET_SUPPORT_CAP:
        raise HorizonError(f"--theta has support {theta.n_support}, above the cap {SUBSET_SUPPORT_CAP} "
                           f"of the subset-coupling suite")
    law = nested_coupling_law(theta)
    report = CheckReport("subset-coupling")
    thresholds = nested_thresholds(theta)
    for a, b in zip(thresholds, thresholds[1:]):
        report.record(a <= b, kind="threshold-monotonicity", lhs=a, rhs=b)
    for k in range(0, theta.n_support + 1):
        marginal: Dict[frozenset, Fraction] = {}
        for seq, mass in law.items():
            key = frozenset(seq[:k])
            marginal[key] = marginal.get(key, Fraction(0)) + mass
        report.record(marginal == subset_law(theta, k), kind="marginal-mismatch", k=k)
    return _suite_result(report)


def _suite_stats(args) -> dict:
    """Fit the final states of independent chains on shared tables to the model's exact law at n."""
    samples = _given(args.samples, 10_000)
    if samples > STATS_SAMPLES_CAP:
        raise HorizonError(f"--samples {samples} is above the cap {STATS_SAMPLES_CAP} of the stats suite")
    if args.theta:
        if _given(args.d, 1) != 1:
            raise ParseError("the subtree model has d = 1")
        theta = SummableTheta(parse_rational_list(args.theta))
        if theta.n_support > SUBTREE_POSITION_CAP:
            raise HorizonError(f"--theta has support {theta.n_support}, above the cap {SUBTREE_POSITION_CAP} "
                               f"of the stats suite")
        model, d, n = "subtree", 1, _n_max(args, 4, SUBTREE_CAP)
        law, tables = st_law(theta, n), compute_tables(WeightSequence(theta.e), 1, N=n, _keep_sums=True)

        def make(rng):
            return SubtreeChain(theta, horizon=n, seed=rng.getrandbits(63), tables=tables)
        read = SubtreeChain.subtree
    else:
        w, d = _weights(args, (1,) * 6)
        model, n = "sg" if d == 1 else "sg-arith", _n_max(args, 5 if d == 1 else d + 1, PLANE_TREE_CAP)
        if (n - 1) % d:  # trees of d-arithmetic weights have 1 mod d vertices
            if args.n_max is None:  # the default d + 1, lowered to the cap
                raise HorizonError(f"--d {d} leaves the stats suite no size to check")
            raise HorizonError(f"--n-max {n} holds no tree for --d {d}: tree sizes are 1 mod {d}")
        require_log_concave(w, d)
        law, tables = sg_law(w, d, n), compute_tables(w, d, N=n, _keep_sums=True)

        def make(rng):
            return GrowthChain(w, d=d, horizon=n, rng=rng, tables=tables)
        read = GrowthChain.tree
    seed, counts = _given(args.seed, 0), Counter()
    for i in range(samples):
        chain = make(derive_rng(seed, "battery", i))
        while chain.n + d <= n:
            chain.step()
        counts[read(chain)] += 1
    report = goodness_of_fit(counts, law)
    # Weissman et al. (2003): the TV of an exact sampler reaches this bound with probability below 0.001
    tv_bound = math.sqrt((report.categories * math.log(2) + math.log(1000)) / (2 * report.sample_size))
    ok = report.tv < tv_bound and (report.p_value is None or report.p_value > 0.001)
    return {"suite": "stats", "ok": ok, "runs": [{"model": model, "n": n, **report.as_dict()}]}


# Each suite and the flags it reads; the size of subset-coupling is the support of --theta, not --n-max
SUITES = {
    "tables": (_suite_tables, {"w", "d", "n_max"}),
    "tp2": (_suite_tp2, {"w", "d", "n_max"}),
    "ratio-chain": (_suite_ratio_chain, {"w", "d", "n_max"}),
    "kernel-interchange": (_suite_kernel_interchange, {"w", "d", "n_max"}),
    "bijection": (_suite_bijection, {"n_max"}),
    "subset-coupling": (_suite_subset_coupling, {"theta"}),
    "stats": (_suite_stats, {"w", "theta", "d", "n_max", "seed", "samples"}),
}

# Each flag of every command, in the order -h lists them.  A command takes the entries that its selector,
# the read sets of its models, suites or listings, --out or --config name (COMMANDS); a value is checked
# by flag_value, whether the command line or a config file gives it.  A switch is True when given.
FLAGS = {
    "model": {"choices": MODELS, "help": "the chain to grow"},
    "suite": {"choices": SUITES, "help": "the suite to run"},
    "plane_trees": {"type": int, "help": "list the plane trees of this size"},
    "subtrees": {"type": int, "help": "list the subtrees of this size"},
    "w": {"help": "offspring weights, comma-separated exact rationals"},
    "theta": {"help": "type weights of the subtree model, comma-separated exact rationals"},
    "d": {"type": positive_int, "help": "bouquet size: the span of d-arithmetic weights"},
    "dmax": {"type": positive_int, "help": "largest child count of a listed subtree"},
    "n": {"type": positive_int, "help": f"target number of vertices, at most {GROW_CAP}"},
    "n_max": {"type": positive_int, "help": "largest size checked; refused above the suite's cap"},
    "seed": {"type": int, "help": "master seed"},
    "samples": {"type": positive_int, "help": "sample count for the stats suite"},
    "out": {"help": "grow's trace file (JSON lines), or a copy of verify's JSON report"},
    "decimal": {"switch": True, "help": "add lossy decimal probabilities to the trace"},
    "dot": {"switch": True, "help": "emit DOT per object"},
    "config": {"help": "key=value config file; flags win"},
}


def cmd_verify(args) -> int:
    given = dict(vars(args))
    _fill_from_config(args)
    if args.suite is None:
        raise ParseError("--suite is required")
    suite, reads = SUITES[args.suite]
    what = f"the {args.suite} suite"
    if args.suite == "stats" and args.theta:
        reads, what = reads - {"w"}, f"{what} with --theta"   # the subtree model reads theta for w
    _refuse_unread(given, reads, what)
    report = suite(args)
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0 if report.get("ok", False) else 3


# ---------------------------------------------------------------------------
# enumerate


# Each listing of enumerate, in the order one is chosen, and the flags it reads
LISTINGS = {"plane_trees": {"d", "dot"}, "subtrees": {"dmax", "dot"}}


def cmd_enumerate(args) -> int:
    listing = next((key for key in LISTINGS if getattr(args, key) is not None), None)
    if listing is None:
        raise ParseError("pass --plane-trees or --subtrees")
    flag, size = _flag_name(listing), getattr(args, listing)
    _refuse_unread(vars(args), LISTINGS[listing] | {listing}, f"enumerate {flag}")
    cap = SUBTREE_CAP if listing == "subtrees" else PLANE_TREE_CAP
    if size > cap:
        raise HorizonError(f"{flag} {size} is above the cap {cap} of enumerate {flag}")
    if listing == "subtrees":
        dmax = _given(args.dmax, 2)
        if dmax > SUBTREE_POSITION_CAP:
            raise HorizonError(f"--dmax {dmax} is above the cap {SUBTREE_POSITION_CAP} of enumerate --subtrees")
        trees = enumerate_subtrees(size, dmax=dmax)
    else:
        trees = enumerate_plane_trees(size, _given(args.d, 1))
    for tree in trees:
        print(format_tree(tree))
        if args.dot:
            print(to_dot(tree))
    print(f"count: {len(trees)}")
    return 0


# Each command: its function, its help line and the flags it takes
COMMANDS = {
    "grow": (cmd_grow, "sample one nested growth trace", {"model", "out", "config"}.union(*MODELS.values())),
    "verify": (cmd_verify, "run an exact or statistical verification suite",
               {"suite", "out", "config"}.union(*(reads for _, reads in SUITES.values()))),
    "enumerate": (cmd_enumerate, "list small trees exhaustively", set(LISTINGS).union(*LISTINGS.values())),
}


def parse_command_line(argv: List[str]):
    """The namespace of one command line, or the text that ``-h``, ``--help`` or ``--version`` asks for.

    ``argv[0]`` names the command and the rest are its flags, each by its
    full name, as ``--flag value`` or ``--flag=value``.  The namespace
    holds ``command`` and every flag of the command, None where not given.
    A usage error raises ParseError.
    """
    if not argv:
        raise ParseError(f"no command: expected one of {', '.join(COMMANDS)}")
    command = argv[0]
    if command in ("-h", "--help"):
        return _help()
    if command == "--version":
        return f"treegrow {__version__}"
    if command not in COMMANDS:
        raise ParseError(f"unknown command {command!r}: expected one of {', '.join(COMMANDS)}")
    keys = COMMANDS[command][2]
    by_name = {_flag_name(key): key for key in keys}
    values = dict.fromkeys(keys)
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return _help(command)
        name, eq, text = token.partition("=")
        key = by_name.get(name)
        if key is None:
            raise ParseError(f"{command} has no flag {name}" if token.startswith("-")
                             else f"{command} takes no argument {token!r}")
        if FLAGS[key].get("switch"):
            if eq:
                raise ParseError(f"{name} takes no value")
            values[key] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise ParseError(f"{name} needs a value")
        values[key] = flag_value(key, text)
    return SimpleNamespace(command=command, **values)


def _help(command: Optional[str] = None) -> str:
    """The text of ``-h``: the commands, or the flags of ``command`` with their help."""
    if command is None:
        lines = [f"usage: treegrow [-h] [--version] {{{','.join(COMMANDS)}}} ...", "",
                 "grow exactly-coupled random trees and verify the machinery", ""]
        lines += [f"  {name:<10} {text}" for name, (_, text, _) in COMMANDS.items()]
        lines += ["", "treegrow COMMAND -h lists the flags of a command"]
        return "\n".join(lines)
    _, text, keys = COMMANDS[command]
    lines = [f"usage: treegrow {command} [-h] [--flag value | --flag=value] ...", "", text, ""]
    for key, spec in FLAGS.items():
        if key in keys:
            value = ("" if spec.get("switch") else
                     f" {{{','.join(spec['choices'])}}}" if "choices" in spec else f" {key.upper()}")
            lines += [f"  {_flag_name(key)}{value}", f"      {spec['help']}"]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = parse_command_line(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            print(args)
            return 0
        return COMMANDS[args.command][0](args)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (TreegrowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
