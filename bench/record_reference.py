"""Record reference outputs of the benchmark's workloads into references.json.

    python3 bench/record_reference.py --seed 42 --seed 1009

Each workload runs one untimed pass per seed; its artifacts must pass the
oracle checks before they are recorded. Record only from a commit whose
outputs are known to be right: later runs of these seeds are held to them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import check
import run


def reference_entry(name: str, outdir: Path, facts: dict) -> dict:
    if name == "postprocess":
        grids = {k: {s: g[s] for s in ("defined", "sum", "l2", "sha256")}
                 for k, g in facts["grids_detail"].items()}
        return {"grids": grids, "diagnose_sha256": facts["digests"]["diagnose.json"]}
    _, summary = check.read_csv(outdir / "summary.csv")
    return {"digests": facts["digests"], "histogram": facts["histogram"], "summary": summary}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args()
    run._import_package()
    refs = check.load_references()
    run.OUT.mkdir(exist_ok=True)
    for seed in args.seed:
        for name, cls in run.WORKLOADS.items():
            work = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.OUT))
            try:
                workload = cls(seed, work)
                workload.prepare()
                stdout: dict = {}
                p = run.run_one_pass(workload, work / "pass0", stdout)
                result = workload.check(work / "pass0", stdout, {}, refs["tolerance"])
                if p.failed or not result.ok:
                    raise SystemExit(f"{name} seed {seed}: {p.failed} failed items, {result.problems}")
                refs.setdefault(name, {})[str(seed)] = reference_entry(name, work / "pass0", result.facts)
                print(f"recorded {name} seed {seed}")
            finally:
                shutil.rmtree(work, ignore_errors=True)
    check.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
