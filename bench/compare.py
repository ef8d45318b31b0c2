#!/usr/bin/env python3
"""Compare two benchmark summaries: the parent (A) and a change (B).

    python3 bench/compare.py A.json B.json

``A.json`` and ``B.json`` are ``bench/run.py --reps N --out FILE`` outputs
made with identical benchmark settings. For every metric and workload it
prints both medians, the change, the parent's spread and the pairs won,
and one verdict per end-to-end metric:

* ``REGRESSION``: B's median is worse than A's by more than the metric's
  bound in BENCHMARK.json;
* ``unresolved``: the run-to-run spread of either side exceeds the bound,
  unless every run of B beats every run of A;
* ``gain``: B wins at least 9 in 10 pairs (at least 10 pairs, ties count
  for neither) and the medians differ by more than A's interquartile range;
* ``same``: none of the above.

Per-layer metrics have no bound; they are listed for attribution only.
Exit status 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import ROOT, spread

#: Pairs needed before a gain can be claimed.
MIN_PAIRS = 10
#: Share of pairs the change must win for a gain.
WIN_SHARE = 0.9


def wins(a: list[float], b: list[float], better: str) -> int:
    """Pairs ``(a[i], b[i])`` in which B is strictly better."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> str:
    """The verdict for one metric on one workload."""
    if bound is None:
        return "layer"
    sign = 1.0 if better == "lower" else -1.0
    sa, sb = spread(a), spread(b)
    base = sa["median"]
    worse = sign * (sb["median"] - base)
    rel = lambda s: (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0  # noqa: E731
    b_dominates = all(sign * (y - x) < 0 for x in a for y in b)
    if max(rel(sa), rel(sb)) > bound and not b_dominates:
        return "unresolved"
    if worse > bound * abs(base):
        return "REGRESSION"
    pairs = min(len(a), len(b))
    if pairs >= MIN_PAIRS and wins(a, b, better) >= WIN_SHARE * pairs and -worse > sa["q3"] - sa["q1"]:
        return "gain"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    for key in ("seed", "scale", "seconds", "trace"):
        if a.get(key) != b.get(key):
            print(f"warning: {key} differs ({a.get(key)} vs {b.get(key)})", file=sys.stderr)
    regressions = 0
    print(f"{'workload':<11} {'metric':<28} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'A iqr':>7} {'wins':>6}  verdict")
    for workload, metrics in a["summary"].items():
        for name, stats in metrics.items():
            other = b["summary"].get(workload, {}).get(name)
            if other is None:
                continue
            info = meta.get(name, {"better": "lower"})
            va, vb = stats["values"], other["values"]
            result = verdict(va, vb, info["better"], info.get("bound"))
            regressions += result == "REGRESSION"
            sa, sb = spread(va), spread(vb)
            base = sa["median"]
            change = f"{(sb['median'] - base) / abs(base):+.1%}" if base else "-"
            iqr = f"{(sa['q3'] - sa['q1']) / abs(base):.1%}" if base else "-"
            won = wins(va, vb, info["better"])
            print(f"{workload:<11} {name:<28} {base:>12.6g} {sb['median']:>12.6g} "
                  f"{change:>8} {iqr:>7} {won:>2}/{min(len(va), len(vb)):<3}  {result}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
