"""Summarizes perf_ledger runs into ledger lines and a JSON ledger file.

Usage: summarize.py --out FILE RUN.txt [RUN.txt ...]

Each RUN.txt is the stdout of one perf_ledger process: `host <key> <value>`
lines, `<workload> <metric> <value> <unit>` lines and a final JSON result.
Prints `<workload> <metric> <median> <unit> q1=<q1> q3=<q3> n=<n>` for every
metric over the runs of each workload (traced runs as `<workload>/traced`),
with quartiles as statistics.quantiles(values, n=4) gives them. Exits 1 if
any run is missing its result or reports a failure.
"""

import argparse
import json
import pathlib
import statistics
import sys


def parse(path):
    host, lines, result = {}, [], None
    for raw in path.read_text().splitlines():
        if raw.startswith("{"):
            result = json.loads(raw)
        elif raw.startswith("host "):
            _, key, value = raw.split(" ", 2)
            host[key] = value
        else:
            parts = raw.split(" ")
            if len(parts) == 4:
                try:
                    lines.append((parts[0], parts[1], float(parts[2]), parts[3]))
                except ValueError:
                    pass
    return host, lines, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("runs", nargs="+")
    args = parser.parse_args()

    ok = True
    fingerprint, runs, values = {}, [], {}
    for name in args.runs:
        path = pathlib.Path(name)
        host, lines, result = parse(path)
        fingerprint = fingerprint or {k: v for k, v in host.items() if k != "seed"}
        traced = path.stem.endswith("trace1")
        runs.append({"file": path.name, "seed": host.get("seed"), "trace": traced,
                     "result": result})
        if result is None or not result["correct"] or result["failed"] > 0:
            print(f"run {path.name} failed", file=sys.stderr)
            ok = False
        for workload, metric, value, unit in lines:
            key = workload + ("/traced" if traced else "")
            values.setdefault((key, metric, unit), []).append(value)

    summary = {}
    for (workload, metric, unit), v in sorted(values.items()):
        q1, median, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        summary.setdefault(workload, {})[metric] = {
            "unit": unit, "median": median, "q1": q1, "q3": q3, "n": len(v)}
        print(f"{workload} {metric} {median:.6g} {unit} q1={q1:.6g} q3={q3:.6g} n={len(v)}")

    pathlib.Path(args.out).write_text(json.dumps(
        {"fingerprint": fingerprint, "summary": summary, "runs": runs}, indent=1) + "\n")
    print(f"ledger written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
