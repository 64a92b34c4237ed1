#!/usr/bin/env python3
"""Diff two BENCH_*.json trajectory records and fail on perf regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]
                     [--records name1,name2,...] [--stable name1,name2,...]
                     [--fields dotted.path1,dotted.path2,...]

Both files are the records emitted by the micro bench harnesses
(bench_json.hpp): a top-level object with a "results" array of
{"name", "ns_per_op", ...} entries. For every benchmark present in either
record (or the --records subset), the relative ns_per_op change is computed;
a record present on only one side is a reported discrepancy, never a silent
skip.

Failure rules:
  * default (no --stable): any regression above --threshold fails, as does
    any one-sided record (missing from baseline OR from current) and a
    current record with "all_ok": false;
  * --stable name1,...: the named records form the curated gated subset —
    one-sided presence or an above-threshold regression among them fails
    the run. Everything else is advisory: printed and summarized, but
    runner jitter on the noisy records cannot fail a merge. This is the
    mode the CI gate runs in.

Host: each record's "host" block (CPU model, nproc, compiler, build type,
quick flag; bench_json.hpp) is printed first. When the blocks differ, or
either record has none (the committed baselines predate it), the comparison
is labelled ACROSS HOSTS: its ns/op deltas mix the change with the machine.
The label is information only; the failure rules above apply unchanged.

--fields diffs non-benchmark scalars by dotted path into the raw documents
(e.g. probe.attach_pool.allocated) between baseline and current. Always
advisory: the values are printed side by side so probe counters
are visible in the trajectory, but they never gate the exit code (the
binary's own all_ok probes gate correctness).
"""

import argparse
import json
import sys


def load_results(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {r["name"]: r for r in doc.get("results", [])}
    return doc, rows


HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type", "quick")


def describe_host(doc):
    host = doc.get("host")
    if not isinstance(host, dict):
        return None, "not recorded"
    return host, ", ".join(f"{k}={host.get(k)}" for k in HOST_KEYS)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max allowed relative ns_per_op regression (default 0.15)")
    ap.add_argument("--records", default="",
                    help="comma-separated benchmark names to compare "
                         "(default: union of both records)")
    ap.add_argument("--stable", default="",
                    help="curated stable-record subset: only these records "
                         "gate the exit code; the rest are advisory")
    ap.add_argument("--fields", default="",
                    help="comma-separated dotted paths into the raw records "
                         "(e.g. probe.attach_pool.allocated) to print side "
                         "by side; advisory only")
    args = ap.parse_args()

    base_doc, base = load_results(args.baseline)
    cur_doc, cur = load_results(args.current)

    base_host, base_desc = describe_host(base_doc)
    cur_host, cur_desc = describe_host(cur_doc)
    print(f"baseline host: {base_desc}")
    print(f"current host:  {cur_desc}")
    if base_host is None or cur_host is None:
        across = "a host block is missing"
    else:
        differ = [k for k in HOST_KEYS if base_host.get(k) != cur_host.get(k)]
        across = "differs in " + ", ".join(differ) if differ else ""
    host_label = f" [ACROSS HOSTS: {across}]" if across else ""
    print(f"comparison: {'ACROSS HOSTS (' + across + ')' if across else 'same host'}\n")

    # The union, not just the baseline: a record that appears on one side
    # only is a discrepancy to report, not something to silently skip.
    names = [n for n in args.records.split(",") if n] or sorted(set(base) | set(cur))
    stable = {n for n in args.stable.split(",") if n}
    for n in sorted(stable - set(names)):
        names.append(n)

    failures = []
    advisories = []

    def problem(name, message):
        if stable and name not in stable:
            advisories.append(message)
        else:
            failures.append(message)

    width = max((len(n) for n in names), default=4)
    print(f"{'benchmark':<{width}}  {'base ns/op':>12}  {'cur ns/op':>12}  {'delta':>8}")
    for name in names:
        gate_tag = " [gated]" if name in stable else ""
        if name not in base and name not in cur:
            problem(name, f"{name}: in neither {args.baseline} nor {args.current}")
            print(f"{name:<{width}}  {'MISSING':>12}  {'MISSING':>12}{gate_tag}")
            continue
        if name not in base:
            problem(name, f"{name}: missing from baseline {args.baseline} "
                          f"(present in current — baseline needs a refresh)")
            print(f"{name:<{width}}  {'MISSING':>12}  {cur[name]['ns_per_op']:>12.1f}{gate_tag}")
            continue
        if name not in cur:
            problem(name, f"{name}: present in baseline but missing from "
                          f"current record {args.current}")
            print(f"{name:<{width}}  {base[name]['ns_per_op']:>12.1f}  {'MISSING':>12}{gate_tag}")
            continue
        b = base[name]["ns_per_op"]
        c = cur[name]["ns_per_op"]
        delta = (c - b) / b if b > 0 else 0.0
        flag = ""
        if delta > args.threshold:
            problem(name, f"{name}: {delta:+.1%} ns_per_op regression "
                          f"({b:.1f} -> {c:.1f})")
            flag = "  << REGRESSION"
        print(f"{name:<{width}}  {b:>12.1f}  {c:>12.1f}  {delta:>+7.1%}{flag}{gate_tag}")

    if args.fields:
        def lookup(doc, path):
            node = doc
            for part in path.split("."):
                if not isinstance(node, dict) or part not in node:
                    return None
                node = node[part]
            return node

        paths = [p for p in args.fields.split(",") if p]
        fwidth = max((len(p) for p in paths), default=5)
        print(f"\n{'field':<{fwidth}}  {'base':>14}  {'cur':>14}")
        for path in paths:
            bval, cval = lookup(base_doc, path), lookup(cur_doc, path)
            bstr = "MISSING" if bval is None else str(bval)
            cstr = "MISSING" if cval is None else str(cval)
            changed = "  (changed)" if bstr != cstr else ""
            print(f"{path:<{fwidth}}  {bstr:>14}  {cstr:>14}{changed}")

    # all_ok=false means a correctness probe failed: always fatal, in every
    # mode — it is not a perf-noise question.
    if cur_doc.get("all_ok") is False:
        failures.append("current record reports all_ok=false "
                        "(correctness probe failed)")

    if advisories:
        print(f"\nadvisory (non-gated records; not failing the run):")
        for a in advisories:
            print(f"  {a}")

    if failures:
        print(f"\nFAIL ({args.current} vs {args.baseline}){host_label}:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    gated = f"{len(stable)} gated of " if stable else ""
    print(f"OK: no gated regression over {args.threshold:.0%} "
          f"({gated}{len(names)} records checked){host_label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
