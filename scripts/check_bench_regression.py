#!/usr/bin/env python3
"""Fail if kernel benchmark rows regressed vs the committed baseline.

Usage: check_bench_regression.py bench/BASELINE_perf.json BENCH_perf.json

Absolute ns/call is machine-dependent, so comparing raw numbers against a
baseline measured elsewhere would fail on any runner change.  Instead each
kernel row's new/old ratio is normalized by the median ratio across all
kernel rows (the machine-speed factor); a row whose normalized ratio
exceeds the threshold got slower relative to its peers — a real, local
regression rather than a slow runner.
"""
import json
import sys

THRESHOLD = 1.25  # >25% speed-normalized regression fails the job
PREFIX = "tomo kernel/"


SPEEDUP_FLOOR = 0.8  # -j4 sim speedup may not drop below 80% of baseline
SPEEDUP_DOMAINS = 4  # speedup_j4 runs the simulator on this many domains


def load(path):
    with open(path) as f:
        return json.load(f)


def kernel_rows(doc):
    return {
        b["name"]: b["ns_per_call"]
        for b in doc["benchmarks"]
        if b["name"].startswith(PREFIX) and b["ns_per_call"]
    }


def check_sim_speedup(base_doc, new_doc):
    """Compare sim_run_paper.speedup_j4, but only on like hardware.

    The -j4/-j1 ratio is a property of the core count, not of the code:
    a 2-core runner cannot reproduce a 4-domain speedup measured on 8
    cores.  Skip the comparison unless both files record a host
    cpu_cores and they match (older baselines predate the host block),
    and skip it when the 4 domains exceed those cores: the ratio then
    measures oversubscription, not parallel speedup.
    """
    base_sim = base_doc.get("sim_run_paper")
    new_sim = new_doc.get("sim_run_paper")
    if not base_sim or not new_sim:
        print("sim speedup gate: skipped (sim_run_paper missing)")
        return True
    base_cores = (base_doc.get("host") or {}).get("cpu_cores")
    new_cores = (new_doc.get("host") or {}).get("cpu_cores")
    if base_cores is None or new_cores is None:
        print("sim speedup gate: skipped (host cpu_cores not recorded)")
        return True
    if base_cores != new_cores:
        print(
            "sim speedup gate: skipped (cpu_cores differ: baseline %d, new %d)"
            % (base_cores, new_cores)
        )
        return True
    if base_cores < SPEEDUP_DOMAINS:
        print(
            "sim speedup gate: skipped (%d domains exceed the host's %d cores:"
            " speedup_j4 measures oversubscription)"
            % (SPEEDUP_DOMAINS, base_cores)
        )
        return True
    old, new = base_sim.get("speedup_j4"), new_sim.get("speedup_j4")
    if not old or not new:
        print("sim speedup gate: skipped (speedup_j4 missing)")
        return True
    ok = new >= old * SPEEDUP_FLOOR
    print(
        "sim speedup gate: speedup_j4 %.2fx vs baseline %.2fx (floor %.2fx)%s"
        % (new, old, old * SPEEDUP_FLOOR, "" if ok else "  REGRESSED")
    )
    return ok


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip())
        return 2
    base_path, new_path = sys.argv[1], sys.argv[2]
    base_doc, new_doc = load(base_path), load(new_path)
    base, new = kernel_rows(base_doc), kernel_rows(new_doc)
    missing = sorted(set(base) - set(new))
    if missing:
        # a kernel row silently dropped from the bench dodges the gate
        print("kernel rows missing from %s:" % new_path)
        for name in missing:
            print("  " + name)
        return 1
    common = sorted(set(base) & set(new))
    if not common:
        print("no common kernel rows between %s and %s" % (base_path, new_path))
        return 1
    ratios = {name: new[name] / base[name] for name in common}
    speed = sorted(ratios.values())[len(ratios) // 2]
    print("machine-speed factor (median new/old): %.3f" % speed)
    print("%-50s%12s%12s%12s" % ("kernel row", "old ns", "new ns", "norm"))
    failed = []
    for name in common:
        norm = ratios[name] / speed
        flag = "  REGRESSED" if norm > THRESHOLD else ""
        print("%-50s%12.0f%12.0f%12.2f%s" % (name, base[name], new[name], norm, flag))
        if norm > THRESHOLD:
            failed.append(name)
    print()
    sim_ok = check_sim_speedup(base_doc, new_doc)
    if failed or not sim_ok:
        print()
        if failed:
            print(
                "%d kernel row(s) regressed >%d%% vs %s (speed-normalized)"
                % (len(failed), round((THRESHOLD - 1) * 100), base_path)
            )
        if not sim_ok:
            print("sim_run_paper.speedup_j4 regressed vs %s" % base_path)
        return 1
    print()
    print(
        "all kernel rows within %d%% of baseline (speed-normalized)"
        % round((THRESHOLD - 1) * 100)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
