"""Span recorder for traced benchmark runs.

The benchmark wraps public functions of each treegrow module from the
outside: nothing in the package changes.  Each wrapped call becomes a span
(name, start, end, parent span, op id) kept in memory; aggregates are
updated as spans close, and the raw spans are written out when the worker
ends.  A few high-frequency functions are only counted, not timed, so that
their cost stays inside the self time of the span that calls them.

Self time is a span's duration minus the time its direct child spans
cover.  Inclusive time (``incl``) counts only outermost spans of a name, so
recursive functions such as ``kernel_row`` are not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import random
import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter

# (span name, module, attribute path); a dotted attribute path names a method
SPANS = (
    ("cli.main", "treegrow.cli", "main"),
    ("cli.validate_trace", "treegrow.cli", "validate_trace"),
    ("treespace.format_tree", "treegrow.treespace", "format_tree"),
    ("sgtrees.compute_tables", "treegrow.sgtrees", "compute_tables"),
    ("sgtrees.GrowthChain.init", "treegrow.sgtrees", "GrowthChain.__init__"),
    ("sgtrees.GrowthChain.step", "treegrow.sgtrees", "GrowthChain.step"),
    ("sgtrees.growth_kernel_row", "treegrow.sgtrees", "growth_kernel_row"),
    ("sgtrees.check_ratio_chain", "treegrow.sgtrees", "check_ratio_chain"),
    ("sgtrees.check_tp2_array", "treegrow.sgtrees", "check_tp2_array"),
    ("compositions.step_probs", "treegrow.compositions", "PartitionKernel.step_probs"),
    ("compositions.sample_move", "treegrow.compositions", "PartitionKernel.sample_move"),
    ("compositions.kernel_row", "treegrow.compositions", "PartitionKernel.kernel_row"),
    ("subtree_model.ordering", "treegrow.subtree_model", "SubtreeChain.ordering"),
    ("oracle.enumerate_plane_trees", "treegrow.oracle", "enumerate_plane_trees"),
    ("oracle.sg_law", "treegrow.oracle", "sg_law"),
    ("oracle.kernel_interchange_check", "treegrow.oracle", "kernel_interchange_check"),
)

# counted only: called so often that a span each would swamp their callers
COUNTS = (
    ("compositions.partition_value", "treegrow.sgtrees", "PartitionTables.partition_value"),
    ("compositions.partition_value", "treegrow.compositions", "PairTables.partition_value"),
    ("rand.bernoulli", "treegrow._rand", "bernoulli"),
)


class CountingRandom(random.Random):
    """``random.Random`` that counts the bits it hands out.

    Seeded like ``random.Random`` and drawing through the same generator, so
    a chain given one samples exactly the trajectory it would otherwise.
    """

    def __init__(self, seed=None):
        self.bits = 0
        super().__init__(seed)

    def getrandbits(self, k):
        self.bits += k
        return super().getrandbits(k)


def table_max_bits(tables) -> int:
    """Largest numerator or denominator bit length over ``b_value(1..N)``."""
    top = 0
    for n in range(1, tables.N + 1):
        v = tables.b_value(n)
        top = max(top, v.numerator.bit_length(), v.denominator.bit_length())
    return top


class Recorder:
    """In-memory spans, per-name aggregates and counters of one process."""

    COLUMNS = (("id", "q"), ("parent", "q"), ("name", "H"), ("start", "d"), ("end", "d"),
               ("op", "l"), ("miss", "b"))

    def __init__(self):
        # closed spans as typed columns: a traced chains-warm pass closes ~10^6
        self.spans = {col: array(code) for col, code in self.COLUMNS}
        self.names = []          # span name table
        self.ops = []            # op id table
        self.op_index = -1
        self.stack = []          # open spans: [id, time covered by children]
        self.depth = Counter()   # open spans per name, to spot recursion
        self.next_id = 0
        self.agg = {}            # name -> [calls, incl_s, self_s, miss calls, miss self_s]
        self.counts = Counter()
        self.max_bits = 0
        self._seen_keys = weakref.WeakKeyDictionary()
        self._seen_orderings = weakref.WeakKeyDictionary()

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, miss=None, before=None, after=None):
        """Wrap ``fn`` in a span.

        ``miss(args)`` marks the span as a memo miss; ``before(args)`` runs
        ahead of the call and its value goes to ``after(value, args, result)``.
        """
        rec = self
        name_index = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            is_miss = miss(args) if miss else False
            token = before(args) if before else None
            span_id = rec.next_id
            rec.next_id += 1
            parent = rec.stack[-1][0] if rec.stack else -1
            frame = [span_id, 0.0]
            outer = rec.depth[name] == 0
            rec.stack.append(frame)
            rec.depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec.depth[name] -= 1
                rec.stack.pop()
                dur = end - start
                if rec.stack:
                    rec.stack[-1][1] += dur
                rec._close(span_id, parent, name_index, start, end, dur - frame[1], outer, is_miss)
            if after:
                after(token, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def set_op(self, op):
        """Name the op that the spans opened from now on belong to."""
        self.op_index = len(self.ops)
        self.ops.append(op)

    def _close(self, span_id, parent, name_index, start, end, self_s, outer, is_miss):
        cols = self.spans
        cols["id"].append(span_id)
        cols["parent"].append(parent)
        cols["name"].append(name_index)
        cols["start"].append(start)
        cols["end"].append(end)
        cols["op"].append(self.op_index)
        cols["miss"].append(is_miss)
        name = self.names[name_index]
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0, 0, 0.0]
        a[0] += 1
        if outer:
            a[1] += end - start
        a[2] += self_s
        if is_miss:
            a[3] += 1
            a[4] += self_s

    # -- hooks ---------------------------------------------------------------

    def _step_probs_miss(self, args) -> bool:
        tables, ell, t = args[0], args[1], args[2]
        seen = self._seen_keys.setdefault(tables, set())
        if (ell, t) in seen:
            return False
        seen.add((ell, t))
        return True

    def _ordering_new(self, args):
        chain, u = args[0], args[1]
        seen = self._seen_orderings.setdefault(chain, set())
        if u not in seen:
            seen.add(u)
            self.counts["subtree_model.ordering.new"] += 1

    def _step_before(self, args):
        return getattr(args[0].rng, "bits", None)

    def _step_after(self, bits_before, args, step):
        self.counts["steps"] += 1
        self.counts["descent_depth"] += len(step.parent)
        self.counts["info_bits"] += math.log2(step.prob.denominator) - math.log2(step.prob.numerator)
        if bits_before is not None:
            self.counts["rng_bits"] += args[0].rng.bits - bits_before
            self.counts["counted_steps"] += 1

    def note_tables(self, tables):
        self.max_bits = max(self.max_bits, table_max_bits(tables))

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace the targets in every loaded treegrow namespace; call after importing treegrow."""
        import treegrow  # noqa: F401  (loads every submodule)

        hooks = {
            "compositions.step_probs": dict(miss=self._step_probs_miss),
            "subtree_model.ordering": dict(before=self._ordering_new),
            "sgtrees.GrowthChain.step": dict(before=self._step_before, after=self._step_after),
            "sgtrees.compute_tables": dict(after=lambda _, args, tables: self.note_tables(tables)),
        }
        for name, module, attr in SPANS:
            _replace(module, attr, lambda fn, name=name: self.span(name, fn, **hooks.get(name, {})))
        for name, module, attr in COUNTS:
            _replace(module, attr, lambda fn, name=name: self.counter(name, fn))
        from treegrow._rand import derive_seed
        _replace("treegrow._rand", "derive_rng",
                 lambda fn: functools.wraps(fn)(lambda *a: CountingRandom(derive_seed(*a))))

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        return {"agg": self.agg, "counts": dict(self.counts), "max_bits": self.max_bits,
                "spans": len(self.spans["id"])}

    def reset(self):
        """Drop what was recorded so far (set-up), keeping the table bit lengths."""
        self.spans = {col: array(code) for col, code in self.COLUMNS}
        self.agg.clear()
        self.counts.clear()

    def dump(self, path):
        """Append the spans as gzip'd JSON lines [id, parent, name, start, end, op, miss]; parent -1 is none."""
        cols = self.spans
        with gzip.open(path, "at", compresslevel=1, encoding="utf-8") as out:
            for i, n, p, s, e, o, m in zip(cols["id"], cols["name"], cols["parent"], cols["start"],
                                           cols["end"], cols["op"], cols["miss"]):
                out.write(json.dumps([i, p, self.names[n], s, e, self.ops[o] if o >= 0 else None, m]) + "\n")


def _replace(module_name, attr, make_wrapper):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, meth, make_wrapper(cls.__dict__[meth]))
        return
    original = getattr(module, attr)
    wrapped = make_wrapper(original)
    # modules bind imported names at import time, so rebind every alias
    for name, mod in list(sys.modules.items()):
        if name == "treegrow" or name.startswith("treegrow."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def merge(summaries) -> dict:
    """Sum per-process summaries into one."""
    agg, counts, max_bits, spans = {}, Counter(), 0, 0
    for s in summaries:
        for name, vals in s["agg"].items():
            cur = agg.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
            for i, v in enumerate(vals):
                cur[i] += v
        counts.update(s["counts"])
        max_bits = max(max_bits, s["max_bits"])
        spans += s["spans"]
    return {"agg": agg, "counts": dict(counts), "max_bits": max_bits, "spans": spans}


PER_LAYER_UNITS = {
    "sgtrees.compute_tables.s": "s/op",
    "sgtrees.compute_tables.calls": "calls/op",
    "sgtrees.table_max_bits": "bits",
    "compositions.step_probs.miss_s": "s/op",
    "compositions.step_probs.calls": "calls/op",
    "compositions.step_probs.misses": "calls/op",
    "compositions.step_probs.hit_ratio": "ratio",
    "compositions.partition_value.calls": "calls/op",
    "compositions.sample_move.self_s": "s/op",
    "compositions.sample_move.calls": "calls/op",
    "compositions.kernel_row.calls": "calls/op",
    "sgtrees.growth_kernel_row.s": "s/op",
    "sgtrees.GrowthChain.init.s": "s/op",
    "sgtrees.GrowthChain.step.self_s": "s/op",
    "sgtrees.descent_depth.mean": "levels",
    "rand.bernoulli.calls": "calls/op",
    "rand.bits_per_step": "bits",
    "rand.info_bits_per_step": "bits",
    "rand.bits_over_info": "ratio",
    "subtree_model.ordering.s": "s/op",
    "subtree_model.ordering.calls": "calls/op",
    "subtree_model.ordering.new": "calls/op",
    "treespace.format_tree.s": "s/op",
    "cli.validate_trace.s": "s/op",
    "cli.main.self_s": "s/op",
    "cli.trace_bytes": "bytes/op",
    "oracle.enumerate_plane_trees.s": "s/op",
    "oracle.sg_law.s": "s/op",
    "oracle.kernel_interchange_check.s": "s/op",
    "sgtrees.check_ratio_chain.s": "s/op",
    "sgtrees.check_tp2_array.s": "s/op",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(summary: dict, ops: int, trace_bytes: float, overhead_ratio: float) -> dict:
    """Per-layer metrics from a merged summary; times and calls are per op of the workload."""
    agg, counts = summary["agg"], summary["counts"]

    def get(name, i):
        return agg.get(name, [0, 0.0, 0.0, 0, 0.0])[i]

    def per_op(x):
        return x / ops if ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    calls, incl, self_s, missed, missed_self = 0, 1, 2, 3, 4
    sp_calls = get("compositions.step_probs", calls)
    misses = get("compositions.step_probs", missed)
    steps = counts.get("steps", 0)
    bits = ratio(counts.get("rng_bits", 0), counts.get("counted_steps", 0))
    info = ratio(counts.get("info_bits", 0.0), steps)
    values = {
        "sgtrees.compute_tables.s": per_op(get("sgtrees.compute_tables", incl)),
        "sgtrees.compute_tables.calls": per_op(get("sgtrees.compute_tables", calls)),
        "sgtrees.table_max_bits": summary["max_bits"],
        "compositions.step_probs.miss_s": per_op(get("compositions.step_probs", missed_self)),
        "compositions.step_probs.calls": per_op(sp_calls),
        "compositions.step_probs.misses": per_op(misses),
        "compositions.step_probs.hit_ratio": ratio(sp_calls - misses, sp_calls),
        "compositions.partition_value.calls": per_op(counts.get("compositions.partition_value", 0)),
        "compositions.sample_move.self_s": per_op(get("compositions.sample_move", self_s)),
        "compositions.sample_move.calls": per_op(get("compositions.sample_move", calls)),
        "compositions.kernel_row.calls": per_op(get("compositions.kernel_row", calls)),
        "sgtrees.growth_kernel_row.s": per_op(get("sgtrees.growth_kernel_row", incl)),
        "sgtrees.GrowthChain.init.s": per_op(get("sgtrees.GrowthChain.init", incl)),
        "sgtrees.GrowthChain.step.self_s": per_op(get("sgtrees.GrowthChain.step", self_s)),
        "sgtrees.descent_depth.mean": ratio(counts.get("descent_depth", 0), steps),
        "rand.bernoulli.calls": per_op(counts.get("rand.bernoulli", 0)),
        "rand.bits_per_step": bits,
        "rand.info_bits_per_step": info,
        "rand.bits_over_info": ratio(bits, info),
        "subtree_model.ordering.s": per_op(get("subtree_model.ordering", incl)),
        "subtree_model.ordering.calls": per_op(get("subtree_model.ordering", calls)),
        "subtree_model.ordering.new": per_op(counts.get("subtree_model.ordering.new", 0)),
        "treespace.format_tree.s": per_op(get("treespace.format_tree", incl)),
        "cli.validate_trace.s": per_op(get("cli.validate_trace", incl)),
        "cli.main.self_s": per_op(get("cli.main", self_s)),
        "cli.trace_bytes": trace_bytes,
        "oracle.enumerate_plane_trees.s": per_op(get("oracle.enumerate_plane_trees", incl)),
        "oracle.sg_law.s": per_op(get("oracle.sg_law", incl)),
        "oracle.kernel_interchange_check.s": per_op(get("oracle.kernel_interchange_check", incl)),
        "sgtrees.check_ratio_chain.s": per_op(get("sgtrees.check_ratio_chain", incl)),
        "sgtrees.check_tp2_array.s": per_op(get("sgtrees.check_tp2_array", incl)),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": v, "unit": PER_LAYER_UNITS[name]} for name, v in values.items()}
