#!/usr/bin/env python3
"""Compare two sets of e2ebench results, metric by metric and workload by workload.

    python3 e2ebench/compare.py BASE [NEW]

BASE and NEW are results.jsonl files written by e2ebench/run.py, or
directories holding one. Untraced runs (--trace 0) supply the end-to-end
metrics, traced runs the per-layer ones. For every workload x metric the
tool prints each side's median and quartiles (statistics.quantiles, n=4) and
the change of the median. An end-to-end metric is marked

  unresolved  when either side's quartile spread, as a share of its median,
              is wider than the metric's bound in BENCHMARK.json (unless
              every NEW run beats every BASE run: then "better"),
  REGRESSED   when NEW's median is worse than BASE's by more than the bound,
  improved    when it is better by more than the bound,
  ok          otherwise.

Per-layer metrics have no bound and only show the change. With one
argument the tool summarises that set. Exits 1 when anything regressed.
"""

import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load(path):
    p = pathlib.Path(path)
    if p.is_dir():
        p = p / "results.jsonl"
    runs = {}  # (workload, trace) -> {metric: [values]}
    with open(p) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            if not r.get("correct") or r.get("exit", 0) != 0:
                continue
            per = runs.setdefault((r["workload"], r["trace"]), {})
            for name, m in r["metrics"].items():
                if m["value"] is not None:
                    per.setdefault(name, []).append(m["value"])
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def status(base, new, bound, lower_is_better):
    def worse(a, b):  # is a worse than b
        return a > b if lower_is_better else a < b

    mb, mn = statistics.median(base), statistics.median(new)
    if max(spread(base), spread(new)) > bound:
        if all(worse(b, n) for b in base for n in new):
            return "better"
        return "unresolved"
    if mb == 0:
        return "ok"
    change = (mn - mb) / abs(mb)
    if (change > bound) if lower_is_better else (change < -bound):
        return "REGRESSED"
    if (change < -bound) if lower_is_better else (change > bound):
        return "improved"
    return "ok"


def fmt(v):
    return f"{v:.4g}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    base = load(argv[1])
    new = load(argv[2]) if len(argv) == 3 else None
    regressed = False

    # BENCHMARK.json's workloads first, then any other workload in the data
    # (e.g. rebalance_hotspot, which the command runs but the file omits).
    names = [w["name"] for w in spec["workloads"]]
    for runs in (base, new or {}):
        names += sorted({wl for wl, _ in runs} - set(names))
    for wl in names:
        for trace, metrics in ((0, e2e), (1, layer)):
            b = base.get((wl, trace), {})
            n = new.get((wl, trace), {}) if new is not None else {}
            if not b and not n:
                continue
            kind = "end-to-end" if trace == 0 else "per-layer"
            runs_b = max((len(v) for v in b.values()), default=0)
            head = f"{wl} ({kind}; base {runs_b} runs"
            if new is not None:
                head += f", new {max((len(v) for v in n.values()), default=0)} runs"
            print(head + ")")
            for name, m in metrics.items():
                vb, vn = b.get(name), n.get(name)
                if not vb and not vn:
                    continue
                row = f"  {name:28s} {m['unit']:8s}"
                if vb:
                    mb, q1, q3 = summary(vb)
                    row += f" base {fmt(mb):>10s} [{fmt(q1)}, {fmt(q3)}]"
                if new is None:
                    if vb:
                        row += f" spread {spread(vb):.3f}"
                        if "bound" in m:
                            row += " (unresolved)" if spread(vb) > m["bound"] else ""
                    print(row)
                    continue
                if vn:
                    mn, q1, q3 = summary(vn)
                    row += f"  new {fmt(mn):>10s} [{fmt(q1)}, {fmt(q3)}]"
                if vb and vn:
                    mb = statistics.median(vb)
                    row += f"  {'%+.1f%%' % (100 * (mn - mb) / abs(mb)) if mb else 'n/a':>8s}"
                    if "bound" in m:
                        st = status(vb, vn, m["bound"], m["better"] == "lower")
                        regressed |= st == "REGRESSED"
                        row += f"  {st}"
                print(row)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
