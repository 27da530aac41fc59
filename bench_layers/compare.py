#!/usr/bin/env python3
"""Compares two sets of bench_layers runs (standard library only).

  python3 bench_layers/compare.py BASE_DIR NEW_DIR [--claim METRIC@WORKLOAD]
  python3 bench_layers/compare.py --summarize DIR [--out FILE]

Each DIR holds run files written by `run.py --out DIR`. For every
(metric, workload) pair the comparison prints both sides' median and
quartiles and a verdict against a bound:

  worse       the new median is worse than the base median by more than
              the bound;
  same        it is not;
  unresolved  a side's spread (quartile distance / median) is wider than
              the bound, unless every run of one side beats every run of
              the other.

The pairs are the end-to-end metrics of BENCHMARK.json on every workload
(BENCHMARK.json's, then any other that both sides ran), and the per-op
percentiles of the detail line (OP_METRICS) on the workloads that issue
that op. Every pair is judged at REGRESSION (10 %,
set-up time with a 50 ms floor), the regression this benchmark exists to
catch; on a noisy host many pairs then read `unresolved`, which is the
honest answer. End-to-end pairs are also judged at BENCHMARK.json's own
bound (the `gate` column): that bound is set at or above each metric's
measured run-to-run spread, so that noise alone never reads `worse`. A
workload whose new runs fail a larger share of their operations than the
base runs is `worse` on its `failed` row.

A --claim applies the rule for claiming a gain: the new side wins at least
9 in 10 of the runs paired by seed (the i-th base run of a seed with the
i-th new run of that seed), the medians differ by more than the base side's
quartile distance, and the new side fails no larger share of operations.
--summarize writes the per-run values, medians and quartiles of one
directory (the committed baseline format). Per-layer metrics from traced
runs are listed, never judged: they have no bound.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REGRESSION = 0.10
SETUP_FLOOR_S = 0.050

# Per-op percentiles judged from the detail line, all lower-is-better.
# BENCHMARK.json's end-to-end metrics must exist on every workload, but an
# op's latency exists only where the workload issues that op, so they are
# judged here. A percentile is judged only where every run has at least
# MIN_TAIL samples beyond it.
OP_METRICS = {
    "so": ("p50_ms", "p99_ms"),
    "topk": ("p50_ms", "p90_ms"),
    "cover": ("p50_ms",),
    "update": ("p50_ms", "p95_ms"),
}
MIN_TAIL = 10


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    return spec, e2e, layer


def run_order(path):
    """run.py names files <workload>-trace<t>-seed<s>-<n>.json."""
    try:
        return int(path.stem.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return 0


def load_runs(directory):
    """{(workload, trace): [record, ...]} sorted by seed, then run order."""
    runs = {}
    for path in Path(directory).glob("*.json"):
        with open(path) as f:
            record = json.load(f)
        record["order"] = run_order(path)
        d = record["detail"]
        runs.setdefault((d["workload"], d["trace"]), []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: (r["detail"]["seed"], r["order"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def op_metric(name):
    """('update', 'p95_ms', 0.95) for 'update_p95_ms', else None."""
    op, _, stat = name.partition("_")
    if stat not in OP_METRICS.get(op, ()):
        return None
    return op, stat, float(stat[1:stat.index("_")]) / 100.0


def value_of(record, name):
    """A metric of one run: from the result line, or an op percentile from
    the detail line; None when the run does not have it."""
    metrics = record["result"]["metrics"]
    if name in metrics:
        return metrics[name]["value"]
    parsed = op_metric(name)
    if parsed is None:
        return None
    op, stat, q = parsed
    s = record["detail"].get("ops", {}).get(op)
    if s is None or s["n"] * (1.0 - q) < MIN_TAIL:
        return None
    return s[stat]


def values_of(records, name):
    """Every run's value, or [] unless every run has one."""
    values = [value_of(r, name) for r in records]
    return values if values and None not in values else []


def failure_rate(records):
    attempted = sum(r["result"]["attempted"] for r in records)
    failed = sum(r["result"]["failed"] for r in records)
    return failed / attempted if attempted else 0.0


def verdict(base, new, bound, better):
    sign = 1.0 if better == "lower" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    # When every run of one side beats every run of the other, the spread
    # does not hide the direction.
    separated = all(sign * n < sign * b for n in new for b in base) or \
        all(sign * b < sign * n for n in new for b in base)
    if not separated and max(spread(base), spread(new)) > bound:
        return "unresolved"
    worse_by = sign * (mn - mb) / abs(mb) if mb else 0.0
    return "worse" if worse_by > bound else "same"


def paired(base_records, new_records):
    """(base, new) run pairs: the i-th run of a seed on each side."""
    by_seed = {}
    for r in base_records:
        by_seed.setdefault(r["detail"]["seed"], []).append(r)
    pairs, used = [], {}
    for r in new_records:
        seed = r["detail"]["seed"]
        i = used.get(seed, 0)
        if i < len(by_seed.get(seed, [])):
            pairs.append((by_seed[seed][i], r))
            used[seed] = i + 1
    return pairs


def claim(base_records, new_records, metric, better):
    """The gain rule: >= 9/10 paired wins, a median gap above the base
    quartile distance, and no larger share of failed operations."""
    sign = 1.0 if better == "lower" else -1.0
    wins = pairs = 0
    for b, n in paired(base_records, new_records):
        bv, nv = value_of(b, metric), value_of(n, metric)
        if bv is None or nv is None:
            continue
        pairs += 1
        wins += sign * nv < sign * bv
    base = values_of(base_records, metric)
    new = values_of(new_records, metric)
    if pairs == 0 or not base or not new:
        return False, "no paired runs"
    q1, mb, q3 = quartiles(base)
    gap = abs(statistics.median(new) - mb)
    fb, fn = failure_rate(base_records), failure_rate(new_records)
    met = wins >= 0.9 * pairs and gap > q3 - q1 and \
        sign * statistics.median(new) < sign * mb and fn <= fb
    return met, (f"{wins}/{pairs} paired wins, median gap {gap:.6g} vs base "
                 f"quartile distance {q3 - q1:.6g}, failed share "
                 f"{fb:.3g} -> {fn:.3g}")


def judged_metrics(e2e):
    """(name, better, BENCHMARK.json bound or None) of every judged metric,
    end-to-end first."""
    out = [(n, m["better"], m["bound"]) for n, m in e2e.items()]
    for op, stats in OP_METRICS.items():
        out += [(f"{op}_{stat}", "lower", None) for stat in stats]
    return out


def regression_bound(name, base):
    """REGRESSION, or for set-up time the 50 ms floor when it is larger."""
    if name == "setup_s":
        return max(REGRESSION, SETUP_FLOOR_S / statistics.median(base))
    return REGRESSION


def compare(args):
    spec, e2e, layer = load_spec()
    base, new = load_runs(args.base), load_runs(args.new)
    rank = {"same": 0, "unresolved": 1, "worse": 2}
    worst = 0
    print(f"{'workload':13s} {'metric':16s} {'base median [q1, q3]':36s} "
          f"{'new median [q1, q3]':36s} {'bound':>6s}  {'verdict':10s}  "
          f"gate")
    for w in workloads(spec, base, new):
        b_runs, n_runs = base.get((w, 0), []), new.get((w, 0), [])
        if not b_runs or not n_runs:
            print(f"{w:13s} no untraced runs on one side")
            worst = max(worst, rank["unresolved"])
            continue
        for name, better, gate_bound in judged_metrics(e2e):
            bv, nv = values_of(b_runs, name), values_of(n_runs, name)
            if not bv and not nv:
                continue  # an op this workload does not issue
            if not bv or not nv:
                print(f"{w:13s} {name:16s} missing on one side")
                worst = max(worst, rank["unresolved"])
                continue
            bound = regression_bound(name, bv)
            v = verdict(bv, nv, bound, better)
            worst = max(worst, rank[v])
            gate = "" if gate_bound is None else \
                f"{verdict(bv, nv, gate_bound, better)} at {gate_bound:.2f}"
            print(f"{w:13s} {name:16s} {fmt(bv):36s} {fmt(nv):36s} "
                  f"{bound:6.2f}  {v:10s}  {gate}".rstrip())
        fb, fn = failure_rate(b_runs), failure_rate(n_runs)
        v = "worse" if fn > fb else "same"
        worst = max(worst, rank[v])
        print(f"{w:13s} {'failed':16s} {f'{fb:.6g} of attempted':36s} "
              f"{f'{fn:.6g} of attempted':36s} {0:6.2f}  {v:10s}  {v}")
    if args.layers:
        for w in workloads(spec, base, new):
            b_runs, n_runs = base.get((w, 1), []), new.get((w, 1), [])
            for name in layer:
                bv, nv = values_of(b_runs, name), values_of(n_runs, name)
                if bv and nv:
                    print(f"{w:13s} {name:40s} {fmt(bv):34s} {fmt(nv)}")
    for c in args.claim or []:
        metric, _, workload = c.partition("@")
        judged = {n: better for n, better, _ in judged_metrics(e2e)}
        if metric in judged:
            better, trace = judged[metric], 0
        elif metric in layer:
            better, trace = layer[metric]["better"], 1  # traced runs
        else:
            print(f"claim {c}: unknown metric")
            continue
        met, why = claim(base.get((workload, trace), []),
                         new.get((workload, trace), []), metric, better)
        print(f"claim {c}: {'met' if met else 'not met'} ({why})")
    return worst


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def workloads(spec, *run_sets):
    """BENCHMARK.json's workloads, then any other workload (a demoted one,
    such as cluster_topk) that every given set of runs holds."""
    names = [w["name"] for w in spec["workloads"]]
    extra = set.intersection(*({w for w, _ in runs} for runs in run_sets))
    return names + sorted(extra - set(names))


def summarize(args):
    spec, e2e, layer = load_spec()
    runs = load_runs(args.summarize)
    out = {"benchmark": spec["command"], "workloads": {}}
    info = None
    for w in workloads(spec, runs):
        entry = {"end_to_end": {}, "op_metrics": {}, "sample_counts": {},
                 "per_layer": {}}
        untraced, traced = runs.get((w, 0), []), runs.get((w, 1), [])
        for name, _, _ in judged_metrics(e2e):
            v = values_of(untraced, name)
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            unit = e2e[name]["unit"] if name in e2e else "ms"
            section = "end_to_end" if name in e2e else "op_metrics"
            entry[section][name] = {
                "unit": unit, "runs": v, "median": med, "q1": q1,
                "q3": q3, "spread": spread(v)}
        entry["attempted"] = [r["result"]["attempted"] for r in untraced]
        entry["failed"] = [r["result"]["failed"] for r in untraced]
        op_stats = {}
        for r in untraced:
            info = info or dict(r.get("info") or {},
                                compiler=r["detail"].get("compiler"))
            for op, s in r["detail"].get("ops", {}).items():
                entry["sample_counts"].setdefault(op, []).append(s["n"])
                stats = op_stats.setdefault(op, {})
                for stat, v in s.items():
                    if stat != "n":
                        stats.setdefault(stat, []).append(v)
        # Every op type's latency, median over the runs.
        entry["op_latency_ms"] = {
            op: {stat: statistics.median(v) for stat, v in stats.items()}
            for op, stats in op_stats.items()}
        for name, m in layer.items():
            v = values_of(traced, name)
            if v:
                entry["per_layer"][name] = {"unit": m["unit"], "runs": v,
                                            "median": statistics.median(v)}
        so_untraced = [r["detail"]["ops"]["so"]["p50_ms"] for r in untraced]
        so_traced = [r["detail"]["ops"]["so"]["p50_ms"] for r in traced]
        if so_untraced and so_traced:
            entry["trace_vs_untraced_so_p50_pct"] = 100.0 * (
                statistics.median(so_traced) /
                statistics.median(so_untraced) - 1.0)
        out["workloads"][w] = entry
    out["informational"] = info or {}
    text = json.dumps(out, indent=1)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base", nargs="?", type=Path)
    p.add_argument("new", nargs="?", type=Path)
    p.add_argument("--claim", action="append",
                   help="METRIC@WORKLOAD the new side claims to improve")
    p.add_argument("--layers", action="store_true",
                   help="also list per-layer metrics of traced runs")
    p.add_argument("--summarize", type=Path, help="summarize one directory")
    p.add_argument("--out", type=Path, help="--summarize: write here")
    args = p.parse_args()
    if args.summarize:
        return summarize(args)
    if args.base is None or args.new is None:
        p.error("give BASE_DIR and NEW_DIR, or --summarize DIR")
    # Exit 2 when any pair is worse, 1 when any is unresolved.
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
