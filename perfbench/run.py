"""treegrow benchmark: cold CLI growth, warm chain batteries and exact verification.

    python3 perfbench/run.py --workload grow-cold --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Each workload runs ops against the public API or the ``treegrow`` CLI from
the ``src`` directory of the checkout it sits in, checks every output, and
prints two lines: a report (every metric by name and unit, op counts and
provenance), then the result object whose metrics are the ones
``BENCHMARK.json`` names.  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` a run that measures the same ops untraced and then traced and
gives the per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys

import hostref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 0
OP_TIMEOUT_S = 150
SETUP_RUNS = 5           # chains-warm set-ups per run; setup_s is their median
# Baseline seconds of one rotation (one op per config, interpreter start
# included).  CLI workloads run ceil(--seconds / this) whole rotations, so
# both commits of a comparison run the same ops and every rank statistic
# refers to the same config mix whatever the speed.
ROTATION_S = {"grow": 5.0, "verify": 3.0}

GROW_CONFIGS = {
    "sg-1331": ["--model", "sg", "--w", "1,3,3,1", "--n", "150"],
    "sg-111": ["--model", "sg", "--w", "1,1,1", "--n", "150"],
    "sg-arith-10201": ["--model", "sg-arith", "--w", "1,0,2,0,1", "--d", "2", "--n", "151"],
    "subtree-half-third-quarter": ["--model", "subtree", "--theta", "1/2,1/3,1/4", "--n", "150"],
}
VERIFY_CONFIGS = {
    "kernel-interchange-1111": ["--suite", "kernel-interchange", "--w", "1,1,1,1", "--n-max", "9"],
    "ratio-chain-1331": ["--suite", "ratio-chain", "--w", "1,3,3,1", "--n-max", "200"],
    "ratio-chain-10201": ["--suite", "ratio-chain", "--w", "1,0,2,0,1", "--d", "2", "--n-max", "150"],
    "tp2-1331": ["--suite", "tp2", "--w", "1,3,3,1", "--n-max", "24"],
}
# tiny sizes for --self-test, plus one op that must fail (w not log-concave: exit 2)
SELF_TEST_GROW = {
    "sg-1331": ["--model", "sg", "--w", "1,3,3,1", "--n", "12"],
    "sg-arith-10201": ["--model", "sg-arith", "--w", "1,0,2,0,1", "--d", "2", "--n", "11"],
    "subtree-half-third-quarter": ["--model", "subtree", "--theta", "1/2,1/3,1/4", "--n", "12"],
    "planted-failure": ["--model", "sg", "--w", "1,0,1", "--n", "5"],
}
SELF_TEST_VERIFY = {
    "kernel-interchange-1111": ["--suite", "kernel-interchange", "--w", "1,1,1,1", "--n-max", "4"],
    "ratio-chain-10201": ["--suite", "ratio-chain", "--w", "1,0,2,0,1", "--d", "2", "--n-max", "10"],
    "tp2-1331": ["--suite", "tp2", "--w", "1,3,3,1", "--n-max", "6"],
}

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}
# the issue's workload-specific metrics, printed in the report line
REPORT_NAMES = {"grow-cold": ("grow_s.p50", "grow_s.tail"),
                "chains-warm": ("sg_chains_per_s", "subtree_chains_per_s"),
                "verify-exact": ("verify_s.p50", "verify_s.tail")}


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """Highest order statistic with ten ops beyond it, and its percentile.

    None below 21 ops, where that order statistic is not above the median.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return None, "n/a"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f}"


def op_seed(seed, *tokens) -> int:
    digest = hashlib.sha256(repr((seed,) + tokens).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def provenance(seed) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "treegrow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "git_commit": commit, "src_sha256": src.hexdigest(), "workload_seed": seed}


# ---------------------------------------------------------------------------
# processes


def run_worker(request: dict, timeout=OP_TIMEOUT_S):
    """Run one worker process; returns (result or None, error text)."""
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(request)],
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout} s"
    if proc.returncode != 0 or not proc.stdout.strip():
        return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


# ---------------------------------------------------------------------------
# output checks (outside every timed region)


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as f:
        golden = json.load(f)
    if golden["workload_seed"] != DEFAULT_SEED:
        raise SystemExit("golden.json pins digests for another default seed")
    return golden["sha256"]


def check_grow(argv, path, target_n, golden_digest):
    """Re-read a grow trace with the public treespace parsers; returns an error or ''."""
    from treegrow.treespace import is_bouquet_addition, is_right_leaning_leaf_addition, parse_tree

    model = argv[argv.index("--model") + 1]
    d = int(argv[argv.index("--d") + 1]) if "--d" in argv else 1
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        return f"no trace: {exc}"
    if golden_digest is not None and hashlib.sha256(data).hexdigest() != golden_digest:
        return f"trace digest {hashlib.sha256(data).hexdigest()} differs from the pinned {golden_digest}"
    records = [json.loads(line) for line in data.decode().splitlines() if line.strip()]
    if not records:
        return "empty trace"
    key, kind = ("subtree", "subtree") if model == "subtree" else ("tree", "plane")
    trees = [parse_tree(rec[key], kind=kind) for rec in records]
    for i, (a, b) in enumerate(zip(trees, trees[1:]), start=1):
        if model == "subtree":
            ok = a.vertices < b.vertices and len(b) == len(a) + 1
        elif d == 1:
            ok = is_right_leaning_leaf_addition(a, b)
        else:
            ok = is_bouquet_addition(a, b, d)
        if not ok:
            return f"step {i} is not a {model} growth step"
    if len(trees[-1]) != target_n or records[-1]["n"] != target_n:
        return f"final tree has {len(trees[-1])} vertices and the trace says n={records[-1]['n']}, wanted {target_n}"
    return ""


def check_verify(result):
    try:
        report = json.loads(result["stdout"])
    except ValueError:
        return "verify printed no JSON report"
    return "" if report.get("ok") is True else "report says ok = false"


# ---------------------------------------------------------------------------
# workloads


class Run:
    """Counts, results and trace summaries of one benchmark invocation."""

    def __init__(self, args, name):
        self.args, self.name = args, name
        self.attempted = 0
        self.failures = []
        self.rss_kb = []
        self.setup_s = []
        self.ref_s = []          # host reference loop times, taken between ops
        self.spans_path = os.path.join(OUT_DIR, f"spans-{name}.jsonl.gz")

    def fail(self, op, why):
        self.failures.append({"op": op, "why": why})


def cli_workload(run: Run, sub: str, configs: dict, traced: bool, rotations: int):
    """Whole rotations over the configs, each op a fresh interpreter."""
    golden = load_golden() if sub == "grow" and not run.args.self_test else {}
    times, ops, summaries, trace_bytes = {}, 0, [], []
    for rotation in range(rotations):
        order = sorted(configs)
        random.Random(f"{run.args.seed}/{sub}/order/{rotation}").shuffle(order)
        for cfg in order:
            key = f"{cfg}#{rotation}"
            argv = [sub] + configs[cfg]
            out = None
            if sub == "grow":
                out = os.path.join(OUT_DIR, f"trace-{run.name}.jsonl")
                argv += ["--seed", str(op_seed(run.args.seed, cfg, rotation)), "--out", out]
                if os.path.exists(out):
                    os.remove(out)
            req = {"kind": "cli", "argv": argv, "trace": traced, "op": key,
                   "keep_stdout": sub == "verify", "spans_path": run.spans_path}
            run.attempted += 1
            ops += 1
            run.ref_s += [hostref.reference_loop() for _ in range(2)]
            result, err = run_worker(req)
            if result is None:
                run.fail(key, err)
                continue
            run.rss_kb.append(result["peak_rss_kb"])
            run.setup_s.append(result["import_s"])
            if traced:
                summaries.append(result["trace"])
            if result["rc"] != 0:
                run.fail(key, f"exit {result['rc']}: {result['stderr'].strip()[-300:]}")
                continue
            if sub == "grow":
                pinned = golden.get(cfg) if run.args.seed == DEFAULT_SEED and rotation == 0 else None
                err = check_grow(argv, out, int(configs[cfg][configs[cfg].index("--n") + 1]), pinned)
                if os.path.exists(out):
                    trace_bytes.append(os.path.getsize(out))
                    os.remove(out)
            else:
                err = check_verify(result)
            if err:
                run.fail(key, err)
                continue
            times[key] = result["op_s"]
    return {"times": times, "ops": ops, "summaries": summaries,
            "trace_bytes": statistics.fmean(trace_bytes) if trace_bytes else 0.0}


def run_cli(run: Run, sub: str, configs: dict):
    """End-to-end metrics, or (traced) an untraced pass and a traced pass of the same ops."""
    a = run.args
    rotations = max(1, math.ceil(a.seconds / ROTATION_S[sub]))
    if not a.trace:
        return cli_workload(run, sub, configs, False, rotations), None
    half = math.ceil(rotations / 2)
    return cli_workload(run, sub, configs, False, half), cli_workload(run, sub, configs, True, half)


def run_chains(run: Run):
    a = run.args
    base = {"kind": "chains", "seed": a.seed, "seconds": a.seconds, "trace": bool(a.trace),
            "spans_path": run.spans_path}
    for _ in range(SETUP_RUNS - 1):
        run.ref_s += [hostref.reference_loop() for _ in range(3)]
        result, err = run_worker(dict(base, setup_only=True))
        if result is None:
            raise SystemExit(f"chains-warm set-up failed: {err}")
        run.setup_s.append(result["setup_s"])
        run.rss_kb.append(result["peak_rss_kb"])
    result, err = run_worker(dict(base, setup_only=False))
    if result is None:
        raise SystemExit(f"chains-warm failed: {err}")
    run.setup_s.append(result["setup_s"])
    run.rss_kb.append(result["peak_rss_kb"])
    run.ref_s += result["ref_s"]
    for pname, p in result["passes"].items():
        run.attempted += sum(len(t) for t in p["times"].values()) * result["batch"]
        for op in p["failed"]:
            run.fail(f"{pname} {op}", "a step is not nested or the final tree is wrong")
    gof = result["gof"]
    if gof["undersampled"] and not a.self_test:
        run.fail("sg8-gof", f"only {gof['chains']} sg8 chains: too few for the chi-square test")
    elif gof["p_value"] is not None and gof["p_value"] <= 0.001:
        run.fail("sg8-gof", f"final sg8 trees fail goodness of fit: p = {gof['p_value']}")
    return result


def overhead(plain_times: dict, traced_times: dict) -> float:
    common = [k for k in traced_times if k in plain_times]
    base = sum(plain_times[k] for k in common)
    return sum(traced_times[k] for k in common) / base if base else 0.0


def geomean(rates):
    return math.exp(statistics.fmean(math.log(r) for r in rates)) if rates and min(rates) > 0 else 0.0


def workload(run: Run):
    """Run the workload; returns (end-to-end or per-layer metrics, report metrics)."""
    from tracing import layer_metrics, merge

    a = run.args
    report = {}
    layers = None
    if run.name == "chains-warm":
        result = run_chains(run)
        batch = result["batch"]
        plain = result["passes"]["untraced"]
        rates = []
        for kind, label in (("sg8", "sg_chains_per_s"), ("subtree20", "subtree_chains_per_s")):
            chains = len(plain["times"][kind]) * batch
            rates.append(chains / sum(plain["times"][kind]))
            report[label] = (rates[-1], "chains/s", chains)
        ops = sum(len(t) for t in plain["times"].values()) * batch
        report["sg8_gof_p"] = (result["gof"]["p_value"], "p", result["gof"]["chains"])
        if a.trace:
            traced = result["passes"]["traced"]
            flat = lambda p: {f"{k}:{i}": t for k, ts in p["times"].items() for i, t in enumerate(ts)}
            layers = layer_metrics(result["trace"], sum(len(t) for t in traced["times"].values()) * batch,
                                   0.0, overhead(flat(plain), flat(traced)))
    else:
        sub, configs = {"grow-cold": ("grow", GROW_CONFIGS), "verify-exact": ("verify", VERIFY_CONFIGS)}[run.name]
        if a.self_test:
            configs = SELF_TEST_GROW if sub == "grow" else SELF_TEST_VERIFY
        plain, traced = run_cli(run, sub, configs)
        label = "grow_s" if sub == "grow" else "verify_s"
        rates = []
        for cfg in configs:
            mine = [t for k, t in plain["times"].items() if k.split("#")[0] == cfg]
            rates.append(len(mine) / sum(mine) if mine else 0.0)
            if mine:
                report[f"{label}.p50.{cfg}"] = (statistics.median(mine), "s", len(mine))
        times = list(plain["times"].values())
        ops = len(times)
        tail_v, tail_pct = tail(times)
        report[f"{label}.p50"] = (statistics.median(times) if times else None, "s", ops)
        report[f"{label}.tail"] = (tail_v, "s", ops, tail_pct)
        if traced is not None:
            layers = layer_metrics(merge(traced["summaries"]), traced["ops"], traced["trace_bytes"],
                                   overhead(plain["times"], traced["times"]))
    if not ops:
        run.fail("run", "no op succeeded")
    host = hostref.speed(run.ref_s)
    setup_raw = statistics.median(run.setup_s) if run.setup_s else 0.0
    ops_raw = geomean(rates)
    end_to_end = {
        "setup_s": setup_raw * host,
        "peak_rss_mb": max(run.rss_kb) / 1024 if run.rss_kb else 0.0,
        "ops_per_s": ops_raw / host,
    }
    report.update({
        "setup_s": (end_to_end["setup_s"], "s", len(run.setup_s)),
        "setup_s.raw": (setup_raw, "s", len(run.setup_s)),
        "peak_rss_mb": (end_to_end["peak_rss_mb"], "MB", len(run.rss_kb)),
        "failed_frac": (len(run.failures) / run.attempted if run.attempted else 1.0, "ratio", run.attempted),
        "ops_per_s": (end_to_end["ops_per_s"], "1/s", ops),
        "ops_per_s.raw": (ops_raw, "1/s", ops),
        "host_speed": (host, "ratio", len(run.ref_s)),
    })
    metrics = layers if a.trace else {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    return metrics, report


def run_workload(args) -> tuple:
    os.makedirs(OUT_DIR, exist_ok=True)
    run = Run(args, args.workload)
    if os.path.exists(run.spans_path):
        os.remove(run.spans_path)
    metrics, report = workload(run)
    named = {}
    for k, v in report.items():
        entry = {"value": v[0], "unit": v[1], "count": v[2]}
        if len(v) > 3:
            entry["percentile"] = v[3]
        named[k] = entry
    if args.trace:
        named.update({k: dict(v) for k, v in metrics.items()})
    full = {"workload": args.workload, "trace": bool(args.trace), "seconds": args.seconds,
            "provenance": provenance(args.seed), "metrics": named,
            "failures": run.failures[:20], "spans_file": os.path.relpath(run.spans_path, ROOT) if args.trace else None}
    result = {"correct": not run.failures, "attempted": max(run.attempted, 1),
              "failed": len(run.failures), "metrics": metrics}
    return full, result


# ---------------------------------------------------------------------------
# self-test


def self_test() -> int:
    """Run every workload at tiny sizes, traced and untraced; check metric names, units and the planted failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    problems = []
    for wl in bench["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=wl["name"], seed=DEFAULT_SEED, seconds=1.0, trace=trace,
                                      self_test=True)
            full, result = run_workload(args)
            spec = bench["per_layer" if trace else "end_to_end"]
            want = {m["name"]: m["unit"] for m in spec}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{wl['name']} trace={trace}: metrics {sorted(got)} != {sorted(want)}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{wl['name']}: {name} is not a number")
            names = ("setup_s", "peak_rss_mb", "failed_frac") + REPORT_NAMES[wl["name"]]
            problems += [f"{wl['name']}: report lacks {n}" for n in names if n not in full["metrics"]]
            planted = sum(1 for f in full["failures"] if f["op"].startswith("planted-failure"))
            if wl["name"] == "grow-cold" and (planted == 0 or full["metrics"]["failed_frac"]["value"] <= 0):
                problems.append("the planted failing grow op was not counted in failed_frac")
            if result["failed"] != planted:
                problems.append(f"{wl['name']}: unexpected failures {full['failures']}")
            print(f"self-test {wl['name']} trace={trace}: {result['attempted']} ops, {result['failed']} failed",
                  file=sys.stderr)
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("grow-cold", "chains-warm", "verify-exact"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treegrow", "cli.py")):
        print(f"error: no treegrow sources under {SRC}; run from a treegrow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    full, result = run_workload(args)
    print(json.dumps(full))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
