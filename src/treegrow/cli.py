"""Command-line surface: grow chains, run verification suites, enumerate.

Exit codes: 0 success, 1 usage or configuration error, 2 growth refused
because the log-concavity hypothesis fails, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional

from . import __version__
from ._rand import derive_rng
from .compositions import as_fraction, check_ratio_chain
from .errors import DomainError, HorizonError, ParseError, Refused, TreegrowError
from .oracle import (PLANE_TREE_CAP, SUBTREE_CAP, enumerate_plane_trees, enumerate_subtrees,
                     goodness_of_fit, sg_law, st_law, subset_law, kernel_interchange_check, tree_mass)
from .sgtrees import (WeightSequence, check_tp2_array, compute_tables, forest_array, growth_kernel_row,
                      is_log_concave, require_log_concave, GrowthChain)
from .subtree_model import (SubtreeChain, SummableTheta, bij_P, bij_P_inv, nested_coupling_law,
                            nested_thresholds, sigma_rule, shuffle_invariance_check)
from .treespace import (GrowingText, Word, adds_bouquet, format_tree, parse_tree, to_dot,
                        word_from_text, word_to_text)

# --n-max caps not set by the enumeration caps of oracle.  On a 2-CPU Xeon:
# tp2 checks O(n^4) minors (n-max 24 takes about 0.6 s, 40 about 5 s);
# ratio-chain compares O(n) ratios of ever longer integers (1000 takes about
# 1.3 s for w = 1,3,3,1); shuffle-invariance sums over every decorated plane
# tree, with 2^n decorations each.
TP2_CAP = 40
RATIO_CHAIN_CAP = 1000
SHUFFLE_CAP = 4

# Largest --theta support of the subset-coupling suite, whose nested coupling
# law holds one entry per insertion ordering: factorially many.  With all-ones
# theta on a 2-CPU Xeon, the suite takes about 0.03 s at a support of 6, 0.2 s
# at 7 and 1.8 s at 8, and each further entry multiplies that again.
SUBSET_SUPPORT_CAP = 8

# --n cap of grow.  The compiled step laws hold O(n^2) integer pairs of O(n)
# bits each, so memory grows like n^3 (and with the bit length of the
# weights).  On a 2-CPU Xeon, n = 600 with --out peaks at 283 MB in about 5 s
# for w = 1,3,3,1, at 324 MB for w = 1,1,1,1,1,1,1,1 and at 420 MB in 12 s for
# the subtree model with theta = 1/2,1/3,1/4; n = 800 reached 758 MB and 1.1 GB
# before the trace writer and reader became incremental.
GROW_CAP = 600

MODELS = ("sg", "sg-arith", "subtree")


def parse_rational_list(text: str) -> List[Fraction]:
    try:
        return [as_fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def positive_int(text: str) -> int:
    """An integer of at least 1: the cast of every size and count option, flag or config key."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def one_of(options):
    """The cast of a config key whose flag the parser limits to ``options``."""
    def cast(text: str) -> str:
        if text not in options:
            raise ValueError(text)
        return text
    return cast


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


def _weights(args, default: str):
    """The suite's ``--w`` (``default`` when not given) as a weight sequence, and its ``--d``."""
    return WeightSequence(parse_rational_list(_given(args.w, default))), _given(args.d, 1)


def parse_config_file(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _fill_from_config(args, casts: Dict[str, object]):
    if not getattr(args, "config", None):
        return
    cfg = parse_config_file(args.config)
    for key, cast in casts.items():
        if getattr(args, key, None) is None and key in cfg:
            try:
                setattr(args, key, cast(cfg[key]))
            except (ValueError, argparse.ArgumentTypeError):
                raise ParseError(f"{args.config}: bad value for {key}: {cfg[key]!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treegrow",
                                     description="grow exactly-coupled random trees and verify the machinery")
    parser.add_argument("--version", action="version", version=f"treegrow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    grow = sub.add_parser("grow", help="sample one nested growth trace")
    grow.add_argument("--model", choices=MODELS)
    grow.add_argument("--w", help="offspring weights, comma-separated exact rationals")
    grow.add_argument("--theta", help="type weights for the subtree model")
    grow.add_argument("--d", type=positive_int, help="bouquet size (sg-arith)")
    grow.add_argument("--n", type=positive_int, help=f"target number of vertices, at most {GROW_CAP}")
    grow.add_argument("--seed", type=int, help="master seed")
    grow.add_argument("--out", help="trace file (JSON lines)")
    grow.add_argument("--decimal", action="store_true", help="add lossy decimal probabilities to the trace")
    grow.add_argument("--config", help="key=value config file; flags win")

    verify = sub.add_parser("verify", help="run an exact or statistical verification suite")
    verify.add_argument("--suite", choices=SUITES)
    verify.add_argument("--w")
    verify.add_argument("--theta")
    verify.add_argument("--d", type=positive_int)
    verify.add_argument("--n-max", dest="n_max", type=positive_int,
                        help="largest size checked; refused above the suite's cap")
    verify.add_argument("--seed", type=int)
    verify.add_argument("--samples", type=positive_int, help="sample count for the stats suite")
    verify.add_argument("--out", help="write the JSON report here as well")
    verify.add_argument("--config")

    enum = sub.add_parser("enumerate", help="list small trees exhaustively")
    enum.add_argument("--plane-trees", dest="plane_trees", type=int)
    enum.add_argument("--subtrees", type=int)
    enum.add_argument("--arith-trees", dest="arith_trees", type=int)
    enum.add_argument("--d", type=positive_int, default=1)
    enum.add_argument("--dmax", type=positive_int, default=2)
    enum.add_argument("--dot", action="store_true", help="emit DOT per object")
    return parser


# ---------------------------------------------------------------------------
# grow


def cmd_grow(args) -> int:
    _fill_from_config(args, {"model": one_of(MODELS), "w": str, "theta": str, "d": positive_int,
                             "n": positive_int, "seed": int, "out": str})
    if args.model is None:
        raise ParseError("--model is required")
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
    Returns the number of steps.
    """
    text = GrowingText() if handle else None

    def write(rec):
        handle.write(json.dumps(rec, sort_keys=True) + "\n")

    if args.model == "subtree":
        if handle:
            write({"step": 0, "n": 1, "new_vertex": "e", "subtree": "e"})
        while chain.n < args.n:
            new = chain.step()
            label = word_to_text(new)
            if handle:
                text.add(new)
                write({"step": chain.n - 1, "n": chain.n, "new_vertex": label, "subtree": str(text)})
            print(f"step {chain.n - 1}: +{label}")
        return chain.n - 1
    if handle:
        write({"step": 0, "n": 1, "new_vertices": ["e"], "tree": "e", "prob": "1"})
    while chain.n + d <= args.n:
        step = chain.step()
        labels = [word_to_text(u) for u in step.new_vertices]
        if handle:
            for u in step.new_vertices:
                text.add(u)
            prob = step.prob
            rec = {"step": step.index, "n": step.n, "new_vertices": labels,
                   "tree": str(text), "prob": exact_text(prob)}
            if args.decimal:
                rec["prob_decimal"] = float(prob)
            write(rec)
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


def validate_trace(path: str, model: str, d: int = 1):
    """Re-validate a trace file: the first tree in full, then each line as a step from the one before.

    Every line must be the canonical text (:func:`format_tree`) of its
    words, as ``grow`` writes it.  A step must add a right-leaning bouquet
    of ``d`` leaves (one leaf for sg) or, for the subtree model, one leaf
    under a present vertex.  From a valid first tree, such a step always
    gives a valid tree, so no later tree is rebuilt: each line is read as a
    set of words, every distinct token text is parsed once, and the child
    counts and the canonical text carry over from line to line.
    """
    if model in ("sg", "sg-arith"):
        field, kind = "tree", "plane"
    elif model == "subtree":
        field, kind = "subtree", "subtree"
    else:
        raise DomainError(f"unknown model {model!r}: expected sg, sg-arith or subtree")
    words: Dict[str, Word] = {}   # token text -> word
    vertices = kids = canon = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            text = json.loads(line)[field]
            if vertices is None:
                first = parse_tree(text, kind=kind)
                vertices = set(first.vertices)
                kids = {u: first.children_count(u) for u in vertices}
                canon = GrowingText()
                for u in first.sorted_vertices()[1:]:
                    canon.add(u)
            else:
                tokens = set(text.split(","))
                for token in tokens.difference(words):
                    words[token] = word_from_text(token)
                after = set(map(words.__getitem__, tokens))
                added = after - vertices
                if kind == "plane":
                    ok = vertices < after and adds_bouquet(kids, added, d)
                else:
                    ok = vertices < after and len(added) == 1 and next(iter(added))[:-1] in vertices
                if not ok:
                    raise DomainError(f"{path}:{lineno}: the {field} is not a {model} growth step "
                                      f"from the line before")
                for u in added:
                    kids[u] = 0
                    canon.add(u)
                kids[next(iter(added))[:-1]] += len(added)
                vertices = after
            if str(canon) != text:
                raise DomainError(f"{path}:{lineno}: the {field} is not the canonical text of its words")
    if vertices is None:
        raise ParseError(f"{path}: empty trace")


# ---------------------------------------------------------------------------
# verify


def _suite_tables(args) -> dict:
    w, d = _weights(args, "1,1,1,1,1,1,1,1")
    n_max = _n_max(args, 7, PLANE_TREE_CAP)
    tables = compute_tables(w, d, N=n_max + d)
    failures = []
    checked = 0
    for n in range(1, n_max + 1):
        if n % d != 1 % d:
            continue
        checked += 1
        enumerated = sum(tree_mass(w, tree) for tree in enumerate_plane_trees(n, d))
        if enumerated != tables.b_value(n):
            failures.append({"n": n, "recursion": str(tables.b_value(n)),
                             "enumeration": str(enumerated)})
    if d == 1:
        # b_{n+1} = sum_k w_k f(n, k), with f from the independent forest recursion
        f = forest_array(w, n_max)
        for n in range(0, n_max + 1):
            checked += 1
            if sum(w[k] * f[n][k] for k in range(n + 1)) != tables.b_value(n + 1):
                failures.append({"n": n + 1, "kind": "forest-identity-mismatch"})
    return {"suite": "tables", "checked": checked, "ok": not failures, "failures": failures}


def _suite_tp2(args) -> dict:
    w, d = _weights(args, "1,1,1,1,1,1,1,1")
    n_max = _n_max(args, 10, TP2_CAP)
    # log-concavity of w_0, w_d, ... is TP2 of its Toeplitz matrix (Karlin), so no minor of it is checked
    lc = is_log_concave(w.progression(d))
    array_report = check_tp2_array(compute_tables(w, d, N=n_max + 1))
    return {"suite": "tp2", "ok": lc.ok and array_report.ok, "log_concave": lc.ok, "witness": lc.witness,
            "array": array_report.as_dict()}


def _suite_ratio_chain(args) -> dict:
    w, d = _weights(args, "1,3,3,1")
    n_max = _n_max(args, 10, RATIO_CHAIN_CAP)
    tables = compute_tables(w, d, N=(n_max + 2) * d + 1)
    report = check_ratio_chain(tables, n_max=n_max)
    return {"suite": "ratio-chain", **report.as_dict()}


def _suite_kernel_interchange(args) -> dict:
    w, d = _weights(args, "1,1,1,1,1,1,1")
    n_max = _n_max(args, 6, PLANE_TREE_CAP - d)  # the last level enumerates trees of size n + d
    require_log_concave(w, d)
    tables = compute_tables(w, d, N=n_max + d)
    results = []
    ok = True
    law_hi = sg_law(w, d, 1)
    for n in range(1, n_max + 1, d):
        law_lo, law_hi = law_hi, sg_law(w, d, n + d)
        report = kernel_interchange_check(lambda t: growth_kernel_row(tables, t), law_lo, law_hi)
        ok = ok and report.ok
        results.append({"n": n, **report.as_dict()})
    return {"suite": "kernel-interchange", "ok": ok, "levels": results}


def _suite_bijection(args) -> dict:
    n_max = _n_max(args, 5, SUBTREE_CAP)
    failures = []
    checked = 0
    for n in range(1, n_max + 1):
        for tau in enumerate_subtrees(n, dmax=3):
            checked += 1
            tree, decorations = bij_P(tau)
            back = bij_P_inv(tree, decorations)
            if back != tau:
                failures.append({"n": n, "tau": format_tree(tau)})
    return {"suite": "bijection", "checked": checked, "ok": not failures, "failures": failures}


def _suite_subset_coupling(args) -> dict:
    if args.n_max is not None:
        raise DomainError("the subset-coupling suite takes no --n-max: its size is the support of --theta")
    theta = SummableTheta(parse_rational_list(_given(args.theta, "2,1")))
    if theta.n_support > SUBSET_SUPPORT_CAP:
        raise HorizonError(f"--theta has support {theta.n_support}, above the cap {SUBSET_SUPPORT_CAP} "
                           f"of the subset-coupling suite")
    law = nested_coupling_law(theta)
    failures = []
    thresholds = nested_thresholds(theta)
    for a, b in zip(thresholds, thresholds[1:]):
        if a > b:
            failures.append({"kind": "threshold-monotonicity", "lhs": str(a), "rhs": str(b)})
    for k in range(0, theta.n_support + 1):
        marginal: Dict[frozenset, Fraction] = {}
        for seq, mass in law.items():
            key = frozenset(seq[:k])
            marginal[key] = marginal.get(key, Fraction(0)) + mass
        target = subset_law(theta, k)
        if marginal != target:
            failures.append({"kind": "marginal-mismatch", "k": k})
    return {"suite": "subset-coupling", "ok": not failures, "failures": failures}


def _suite_shuffle_invariance(args) -> dict:
    n_max = _n_max(args, 4, SHUFFLE_CAP)
    w, _ = _weights(args, "1,2,1")
    nu = {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}

    def rule(tree, x, u):
        return sigma_rule(tree.children_count(u), x[u])

    report = shuffle_invariance_check(w, nu, rule, n_max)
    return {"suite": "shuffle-invariance", **report.as_dict()}


def _suite_stats(args) -> dict:
    """Fit the final states of independent chains on shared tables to the model's exact law at n."""
    if args.theta:
        theta = SummableTheta(parse_rational_list(args.theta))
        model, d, n = "subtree", 1, _n_max(args, 4, SUBTREE_CAP)
        law, tables = st_law(theta, n), compute_tables(WeightSequence(theta.e), 1, N=n)

        def make(rng):
            return SubtreeChain(theta, horizon=n, seed=rng.getrandbits(63), tables=tables)
        read = SubtreeChain.subtree
    else:
        w, d = _weights(args, "1,1,1,1,1,1")
        model, n = "sg" if d == 1 else "sg-arith", _n_max(args, 5 if d == 1 else d + 1, PLANE_TREE_CAP)
        if args.n_max is None and (n - 1) % d:  # the default d + 1, lowered to the cap, holds no tree
            raise HorizonError(f"--d {d} leaves the stats suite no size to check")
        require_log_concave(w, d)
        law, tables = sg_law(w, d, n), compute_tables(w, d, N=n)

        def make(rng):
            return GrowthChain(w, d=d, horizon=n, rng=rng, tables=tables)
        read = GrowthChain.tree
    seed, counts = _given(args.seed, 0), Counter()
    for i in range(_given(args.samples, 10_000)):
        chain = make(derive_rng(seed, "battery", i))
        while chain.n + d <= n:
            chain.step()
        counts[read(chain)] += 1
    report = goodness_of_fit(counts, law)
    ok = report.tv < Fraction(5, 100) and (report.p_value is None or report.p_value > 0.001)
    return {"suite": "stats", "ok": ok, "runs": [{"model": model, "n": n, **report.as_dict()}]}


SUITES = {
    "tables": _suite_tables,
    "tp2": _suite_tp2,
    "ratio-chain": _suite_ratio_chain,
    "kernel-interchange": _suite_kernel_interchange,
    "bijection": _suite_bijection,
    "subset-coupling": _suite_subset_coupling,
    "shuffle-invariance": _suite_shuffle_invariance,
    "stats": _suite_stats,
}


def cmd_verify(args) -> int:
    _fill_from_config(args, {"suite": one_of(SUITES), "w": str, "theta": str, "d": positive_int,
                             "n_max": positive_int, "seed": int, "samples": positive_int})
    if args.suite is None:
        raise ParseError("--suite is required")
    report = SUITES[args.suite](args)
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0 if report.get("ok", False) else 3


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> int:
    if args.plane_trees is not None:
        trees = enumerate_plane_trees(args.plane_trees, 1)
    elif args.arith_trees is not None:
        trees = enumerate_plane_trees(args.arith_trees, args.d)
    elif args.subtrees is not None:
        trees = enumerate_subtrees(args.subtrees, dmax=args.dmax)
    else:
        raise ParseError("pass --plane-trees, --subtrees or --arith-trees")
    for tree in trees:
        print(format_tree(tree))
        if args.dot:
            print(to_dot(tree))
    print(f"count: {len(trees)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; exit code 2 is reserved here for
        # refused growth hypotheses, so usage problems map to 1
        return 1 if exc.code else 0
    commands = {"grow": cmd_grow, "verify": cmd_verify, "enumerate": cmd_enumerate}
    try:
        return commands[args.command](args)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (TreegrowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
