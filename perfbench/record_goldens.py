"""Record the seed-0 outputs that the benchmark's gate compares against.

    python3 perfbench/record_goldens.py

The goldens pin the outputs of the commit that introduced the benchmark;
re-recording them on a later commit would let a changed output pass the
gate, so run this only to extend the benchmark with new items.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    workloads.load_goldens = lambda name, seed: None
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, build in workloads.WORKLOADS.items():
        workload = build(0, out_dir)
        outcomes = []
        for item in workload.items:
            try:
                outcome = workloads.Outcome(item, item.call())
                outcome.text = item.render(outcome.result)
            except (ValueError, OverflowError) as exc:
                outcome = workloads.Outcome(item, error=exc)
                outcome.text = f"error: {type(exc).__name__}: {exc}"
            outcomes.append(outcome)
        problems, failed = workloads.gate(workload, outcomes)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        goldens = {out.item.name: out.text for out in outcomes}
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"{name}: {len(goldens)} items, {len(failed)} past float range")
    return 0


if __name__ == "__main__":
    sys.exit(main())
