"""One benchmark process: a single CLI op, or the set-up and timed phases of chains-warm.

Run by ``run.py`` as ``python3 perfbench/worker.py '<request json>'``; prints one
JSON result line.  It imports treegrow from the ``src`` directory next to
``perfbench``, so it measures the checkout it sits in.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

from hostref import reference_loop  # noqa: E402

SG8_W = [1] * 9          # c11's direct sampler: w = 1 x 9 up to n = 8
SG8_N = 8
SUBTREE_THETA = ["2", "1", "1"]   # c10's inclusion loop and verify --suite stats
SUBTREE_N = 20
BATCH = 50               # chains timed back to back before the clock stops for checks
SLOT_S = 0.25            # seconds of timed work per kind before the phases alternate


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cli_op(req: dict) -> dict:
    """Import ``treegrow.cli`` and run ``main(argv)`` once, timing each part."""
    t0 = perf_counter()
    import treegrow.cli
    import_s = perf_counter() - t0
    recorder = None
    if req["trace"]:
        from tracing import Recorder
        recorder = Recorder()
        recorder.install()
        recorder.set_op(req["op"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t1 = perf_counter()
        rc = treegrow.cli.main(req["argv"])
        op_s = perf_counter() - t1
    result = {"import_s": import_s, "op_s": op_s, "rc": rc, "peak_rss_kb": peak_rss_kb(),
              "stdout": out.getvalue() if req["keep_stdout"] else "", "stderr": err.getvalue()[-2000:]}
    if recorder is not None:
        result["trace"] = recorder.summary()
        recorder.dump(req["spans_path"])
    return result


# ---------------------------------------------------------------------------
# chains-warm


def chains_setup():
    """Everything a battery pays once: imports, both table builds, every step law."""
    t0 = perf_counter()
    import scipy.stats  # noqa: F401  (goodness_of_fit imports it on first use)
    from treegrow.sgtrees import WeightSequence, compute_tables
    from treegrow.subtree_model import SummableTheta
    w = WeightSequence(SG8_W)
    theta = SummableTheta(SUBTREE_THETA)
    tables = {"sg8": compute_tables(w, 1, N=SG8_N),
              "subtree20": compute_tables(WeightSequence(theta.e), 1, N=SUBTREE_N)}
    for t in tables.values():
        warm_step_laws(t)
    return perf_counter() - t0, w, theta, tables


def warm_step_laws(tables):
    """Compile the step law of every (ell, t) a chain can ask for, so the timed phases only hit the memo."""
    for ell in range(tables.max_a_index() - 1):
        for t in range(1, tables.N - tables.d):
            tables.step_probs(ell, t)


class ChainRunner:
    """Times batches of sg8 and subtree20 chains in alternating phases and checks every step.

    One op is a batch of BATCH chains of one kind, timed back to back; the
    clock stops between batches while the batch's steps are checked.
    """

    def __init__(self, seed, w, theta, tables, rng_factory):
        self.seed, self.w, self.theta, self.tables = seed, w, theta, tables
        self.rng = rng_factory
        self.times = {"sg8": [], "subtree20": []}   # seconds per batch
        self.failed = []
        self.sg8_counts = {}
        self.recorder = None
        self.ref_s = []

    def run(self, seconds):
        """Alternate sg8 and subtree20 slots until each kind has seconds/2 of timed work.

        The host reference loop runs before every slot.
        """
        half = seconds / 2
        spent = {kind: 0.0 for kind in self.times}
        while min(spent.values()) < half:
            for kind in self.times:
                self.ref_s.append(reference_loop())
                target = min(half, spent[kind] + SLOT_S)
                while spent[kind] < target:
                    spent[kind] += self._batch(kind)

    def _batch(self, kind) -> float:
        from treegrow.sgtrees import GrowthChain
        from treegrow.subtree_model import SubtreeChain

        rec, rng, seed, tables = self.recorder, self.rng, self.seed, self.tables[kind]
        if kind == "sg8":
            w, n = self.w, SG8_N
            new_chain = lambda i: GrowthChain(w, horizon=n, rng=rng(seed, kind, i), tables=tables)
        else:
            theta, n = self.theta, SUBTREE_N
            new_chain = lambda i: SubtreeChain(theta, horizon=n, seed=rng(seed, kind, i).getrandbits(63),
                                               tables=tables)
        first = len(self.times[kind]) * BATCH
        records = []
        t0 = perf_counter()
        for i in range(first, first + BATCH):
            if rec is not None:
                rec.set_op(f"{kind}:{i}")
            chain = new_chain(i)
            steps = []
            while chain.n < n:
                steps.append(chain.step())
            records.append((chain, steps))
        elapsed = perf_counter() - t0
        self.times[kind].append(elapsed)
        bad = [i for i, (chain, steps) in enumerate(records, start=first)
               if not (check_sg8(chain, steps, self.sg8_counts) if kind == "sg8" else check_subtree(chain, steps))]
        self.failed += [f"{kind}:{i}" for i in bad]
        return elapsed


def check_sg8(chain, steps, counts) -> bool:
    """Each step plants one new rightmost leaf under a vertex already present; the final tree is the chain's."""
    from treegrow.treespace import ROOT
    kids = {ROOT: 0}
    for step in steps:
        (new,) = step.new_vertices
        v = step.parent
        if v not in kids or new in kids or new != v + (kids[v] + 1,):
            return False
        kids[v] += 1
        kids[new] = 0
    key = chain.tree_key()
    if len(kids) != SG8_N or key != frozenset(kids):
        return False
    counts[key] = counts.get(key, 0) + 1
    return True


def check_subtree(chain, steps) -> bool:
    """Each step adds one leaf whose parent is already present (c10's inclusion check)."""
    from treegrow.treespace import ROOT
    seen = {ROOT}
    for new in steps:
        if new in seen or new[:-1] not in seen:
            return False
        seen.add(new)
    return len(seen) == SUBTREE_N and chain.subtree_key() == frozenset(seen)


def chains(req: dict) -> dict:
    t0 = perf_counter()
    import treegrow  # noqa: F401
    import_s = perf_counter() - t0
    setup_s, w, theta, tables = chains_setup()
    setup_s += import_s
    result = {"setup_s": setup_s, "peak_rss_kb": peak_rss_kb(), "batch": BATCH}
    if req["setup_only"]:
        return result
    from treegrow import _rand
    passes = {}
    untraced_s = req["seconds"] / 2 if req["trace"] else req["seconds"]
    plain = ChainRunner(req["seed"], w, theta, tables, _rand.derive_rng)
    plain.run(untraced_s)
    result["peak_rss_kb"] = peak_rss_kb()
    # the traced pass replays the same chain seeds, so only the untraced pass is a sample
    result["gof"] = sg8_goodness_of_fit(w, plain.sg8_counts)
    passes["untraced"] = plain
    if req["trace"]:
        from tracing import Recorder
        recorder = Recorder()
        recorder.install()
        for t in tables.values():
            warm_step_laws(t)   # memo hits now; tells the recorder which step laws set-up compiled
            recorder.note_tables(t)
        recorder.reset()
        # attribute lookup at call time picks up the counting derive_rng
        traced = ChainRunner(req["seed"], w, theta, tables, lambda *a: _rand.derive_rng(*a))
        traced.recorder = recorder
        traced.run(req["seconds"] / 2)
        passes["traced"] = traced
        result["trace"] = recorder.summary()
        recorder.dump(req["spans_path"])
    result["passes"] = {name: {"times": r.times, "failed": r.failed} for name, r in passes.items()}
    result["ref_s"] = plain.ref_s
    return result


def sg8_goodness_of_fit(w, counts) -> dict:
    """Chi-square of the final sg8 trees against the exact law, as c11 requires (p > 0.001)."""
    from treegrow.oracle import goodness_of_fit, sg_law
    law = {t.vertices: m for t, m in sg_law(w, 1, SG8_N).items()}
    report = goodness_of_fit(counts, law)
    return {"chains": report.sample_size, "p_value": report.p_value,
            "undersampled": report.undersampled}


def main():
    req = json.loads(sys.argv[1])
    result = cli_op(req) if req["kind"] == "cli" else chains(req)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
