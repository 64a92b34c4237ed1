#!/usr/bin/env python3
"""Tabulate the committed micro-bench records across git history.

Usage:
    bench_trajectory.py

For every bench/baselines/BENCH_*.json that any commit touched (deleted
files included), reads each committed version with
`git show <rev>:<path>` and prints, oldest first:

  * one line per revision: short hash, date, subject, and the record's
    "host" block (CPU model, nproc, compiler, build type, quick flag;
    bench_json.hpp), or "none" when the record has none;
  * one table, a row per benchmark record and a column per revision, of
    its ns_per_op ("-" where that revision has no such record).

Numbers from different hosts sit side by side here; the host lines say
which. The script only reads: it gates nothing and needs only the
standard library and git.
"""

import argparse
import json
import os
import subprocess
import sys

BASELINE_DIR = "bench/baselines"
HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type", "quick")


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def record_paths():
    """Every BENCH_*.json under the baseline directory in any commit."""
    names = git("log", "--format=", "--name-only", "--", BASELINE_DIR)
    return sorted({n for n in names.split()
                   if n.rsplit("/", 1)[-1].startswith("BENCH_")
                   and n.endswith(".json")})


def revisions(path):
    """(hash, date, subject) of each commit that changed `path`, oldest
    first. A commit that deleted it shows no record and is skipped."""
    out = git("log", "--reverse", "--date=short", "--format=%h%x09%ad%x09%s",
              "--", path)
    return [tuple(line.split("\t", 2)) for line in out.splitlines() if line]


def load(rev, path):
    try:
        return json.loads(git("show", f"{rev}:{path}"))
    except subprocess.CalledProcessError:
        return None  # deleted in this revision
    except json.JSONDecodeError as e:
        print(f"  {rev}: unreadable record ({e})", file=sys.stderr)
        return None


def describe_host(doc):
    host = doc.get("host")
    if not isinstance(host, dict):
        return "none"
    return ", ".join(f"{k}={host.get(k)}" for k in HOST_KEYS)


def fmt(v):
    if not isinstance(v, (int, float)):
        return "-"
    return f"{v:.1f}" if abs(v) < 1e6 else f"{v:.4g}"


def tabulate(path):
    cols = []  # (rev, {record name: value})
    print(f"== {path}")
    for rev, date, subject in revisions(path):
        doc = load(rev, path)
        if doc is None:
            continue
        rows = {r.get("name"): r.get("ns_per_op")
                for r in doc.get("results", [])}
        cols.append((rev, rows))
        print(f"  {rev} {date} {subject[:60]}")
        print(f"      host: {describe_host(doc)}")
    if not cols:
        print("  (no readable revision)\n")
        return
    names = sorted({n for _, rows in cols for n in rows if n})
    if not names:
        print('  (no "results" records)\n')
        return
    width = max(len(n) for n in names)
    print("\n  ns_per_op")
    print("  " + "record".ljust(width) +
          "".join(f"{rev:>12}" for rev, _ in cols))
    for n in names:
        print("  " + n.ljust(width) +
              "".join(f"{fmt(rows.get(n)):>12}" for _, rows in cols))
    print()


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    try:
        root = git("rev-parse", "--show-toplevel").strip()
    except (OSError, subprocess.CalledProcessError):
        sys.exit("bench_trajectory.py: not inside a git checkout")
    os.chdir(root)
    for path in record_paths():
        tabulate(path)


if __name__ == "__main__":
    main()
