"""Record the correctness gate's reference values from the code in this checkout.

    python3 perfbench/record_reference.py

Runs each bundled command of `certify_bundled` and `compare_baselines` once
and writes perfbench/reference.json.  The committed file was recorded from
ptcor 0.1.0 before any optimisation; re-record it only in a change that
alters the benchmark, never in one that claims a speed-up.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> None:
    wl = run.import_ptcor()
    import ptcor
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK))
    entries = {}
    try:
        for workload in ("certify_bundled", "compare_baselines"):
            for op in wl.build(workload, 0, workdir):
                out = workdir / op.key.replace(" ", "_")
                out.mkdir()
                rc, _, wall = run.run_op(op, out)
                if rc != 0:
                    sys.exit(f"{op.key}: exit code {rc}")
                entries[op.key] = wl.reference_entry(op, out)
                print(f"{op.key}: {wall:.2f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"ptcor_version": ptcor.__version__, "ops": dict(sorted(entries.items()))}
    run.REFERENCE.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
