#!/usr/bin/env python3
"""Compare two sets of e2e.exe result files, one row per workload x metric.

    compare.py PARENT_DIR CHANGE_DIR     parent commit against a change
    compare.py --self DIR_A DIR_B        two sets of runs of the same code

Each directory holds the objects e2e.exe writes with --json (one run per
file).  Runs are paired in file-name order, so name them in the order
they were made and alternate which side runs first.

Verdicts, per metric:
  unresolved  the parent's interquartile range, as a share of its median,
              is wider than the metric's bound, and not every change run
              beats every parent run;
  better      the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the bound (for metrics without a bound: the parent wins by
              the rule for "better");
  same        otherwise.
When every run used one seed, count metrics and mae must repeat exactly:
they are "same" only if every run on both sides reads the same value.

With --self the exit status is 1 if any end-to-end metric reads "worse" or
"unresolved", or any exact metric differs.  Python standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
# Metrics e2e.exe prints beyond BENCHMARK.json; all lower-is-better but one.
EXTRA_HIGHER = {"hub.parallel_efficiency"}


def load_runs(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        obj = json.loads(path.read_text().strip().splitlines()[-1])
        if "workload" not in obj:
            sys.exit(f"{path}: not an e2e.exe result (no workload key)")
        runs.append(obj)
    if not runs:
        sys.exit(f"{directory}: no *.json result files")
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def beats(a, b, higher):
    return a > b if higher else a < b


def verdict(parent, change, higher, bound, exact):
    if exact:
        if len(set(parent)) > 1 or len(set(change)) > 1:
            return "unresolved"
        if parent[0] == change[0]:
            return "same"
        return "better" if beats(change[0], parent[0], higher) else "worse"
    p_med, p_q1, p_q3 = summary(parent)
    c_med, c_q1, c_q3 = summary(change)
    p_iqr, c_iqr = p_q3 - p_q1, c_q3 - c_q1
    pairs = list(zip(parent, change))
    wins = sum(beats(c, p, higher) for p, c in pairs)
    losses = sum(beats(p, c, higher) for p, c in pairs)
    all_better = all(beats(c, p, higher) for c in change for p in parent)
    if bound is not None and p_med and p_iqr / abs(p_med) > bound and not all_better:
        return "unresolved"
    if (wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_iqr
            and beats(c_med, p_med, higher)):
        return "better"
    if bound is not None:
        worse_by = (c_med - p_med) / abs(p_med) if p_med else 0.0
        if higher:
            worse_by = -worse_by
        return "worse" if worse_by > bound else "same"
    if (losses >= 0.9 * len(pairs) and abs(c_med - p_med) > c_iqr
            and beats(p_med, c_med, higher)):
        return "worse"
    return "same"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    ap.add_argument("--self", dest="self_check", action="store_true",
                    help="both directories hold runs of the same code")
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()

    bench = json.loads(BENCHMARK.read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    parent, change = load_runs(args.parent), load_runs(args.change)

    for side, runs in (("parent", parent), ("change", change)):
        for r in runs:
            host = r["host"]
            if host["jobs"] > host["nproc"]:
                print(f"warning: a {side} run of {r['workload']} used "
                      f"{host['jobs']} jobs on {host['nproc']} cores")

    print(f"{'workload':8} {'metric':26} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'bound':>6}  verdict")
    failures = []
    for workload in sorted({r["workload"] for r in parent + change}):
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not p_runs or not c_runs:
            print(f"{workload:8} (runs on one side only)")
            continue
        one_seed = len({r["seed"] for r in p_runs + c_runs}) == 1
        names = [n for n in p_runs[0]["metrics"] if n in c_runs[0]["metrics"]]
        names.sort(key=lambda n: list(spec).index(n) if n in spec else len(spec))
        for name in names:
            p_vals = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            unit = p_runs[0]["metrics"][name]["unit"]
            higher = (spec[name]["better"] == "higher" if name in spec
                      else name in EXTRA_HIGHER)
            bound = spec.get(name, {}).get("bound")
            exact = one_seed and (unit == "count" or name == "mae")
            v = verdict(p_vals, c_vals, higher, bound, exact)
            p_med, p_q1, p_q3 = summary(p_vals)
            c_med, c_q1, c_q3 = summary(c_vals)
            delta = (c_med - p_med) / abs(p_med) if p_med else 0.0
            print(f"{workload:8} {name:26} "
                  f"{p_med:12.6g} [{p_q1:9.4g}, {p_q3:9.4g}] "
                  f"{c_med:12.6g} [{c_q1:9.4g}, {c_q3:9.4g}] "
                  f"{delta:+8.2%} {'' if bound is None else f'{bound:.0%}':>6}  {v}")
            if args.self_check and (
                    (exact and v != "same")
                    or (name in end_to_end and v in ("worse", "unresolved"))):
                failures.append(f"{workload} {name}: {v}")

    if args.self_check:
        if failures:
            print("self-check FAILED: " + "; ".join(failures))
            sys.exit(1)
        print("self-check passed: the two sets agree within the bounds")


if __name__ == "__main__":
    main()
