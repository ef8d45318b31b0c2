#!/usr/bin/env python3
"""Record the expected output digests in ``bench/expected.json``.

    python3 bench/expected.py [--seeds 32]

Runs every workload once per seed (once in all, for a workload the seed
does not change) at both scales and writes the digests that
``bench/run.py`` checks its outputs against. Re-record only for a change
that is meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
#: Key under which a workload the seed does not change keeps its digest.
ANY_SEED = "*"


def seed_key(workload: str, seed: int) -> str:
    """The key a workload's digest for ``seed`` is stored under."""
    return str(seed) if workloads.WORKLOADS[workload].seeded else ANY_SEED


def record(seeds: int) -> dict:
    expected: dict = {}
    counts = {"full": seeds, "smoke": 2}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cls in workloads.WORKLOADS.items():
            for scale, count in counts.items():
                digests = expected.setdefault(name, {}).setdefault(scale, {})
                for seed in range(count if cls.seeded else 1):
                    workload = cls(seed, scale, Path(tmp))
                    workload.prepare()
                    outcome = workload.run(workload.build())
                    digests[seed_key(name, seed)] = outcome.digest
                    print(f"{name} {scale} {seed} {outcome.digest}", flush=True)
    return expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=32,
                        help="record seeds 0..N-1 at full scale")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    expected = record(args.seeds)
    (BENCH / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
