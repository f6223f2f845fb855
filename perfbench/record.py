"""Record references for the given seeds into references/<workload>.jsonl.

    python3 perfbench/record.py --seeds 0-31 [--workload NAME ...]

Runs each workload once per seed and stores one line per seed: the
seed, a digest of the job inputs, for relations and lifts the drawn
instances themselves (later runs of that seed reuse them instead of
drawing again), and per job the digest of its mathematical content
(checks.content).  A seed is recorded only when every job passed the
independent checks; a seed already recorded is left alone (delete its
line to record it again, for instance after a deliberate change of
results or of the workload definitions).
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, type=_seeds, help="a seed or a range like 0-31")
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    (run.HERE / "references").mkdir(exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        path = run.HERE / "references" / f"{name}.jsonl"
        refs = run.load_references(name)
        for seed in args.seeds:
            if seed in refs:
                continue
            r = run.run_workload(name, seed, 0, False)
            if r["failed"] or not r["correct"]:
                print(f"{name} seed {seed}: not recorded, {r['failed']} failures", file=sys.stderr)
                for note in r["notes"][:10]:
                    print("  " + note, file=sys.stderr)
                continue
            refs[seed] = {"seed": seed, "inputs": r["inputs"], "results": " ".join(r["contents"])}
            if r["instances"] is not None:
                refs[seed]["instances"] = r["instances"]
            lines = (json.dumps(refs[k], sort_keys=True, separators=(",", ":")) for k in sorted(refs))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            print(f"{name} seed {seed}: {len(r['contents'])} jobs recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
