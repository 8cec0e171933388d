"""Tiny self-test of the benchmark: metric names and units, and the gate.

    python3 perfbench/selftest.py

Runs `scale_followers` with N = 3 and 4 for a fraction of a second, traced
and untraced, and checks that every metric of BENCHMARK.json is printed
with its unit.  Then runs one `certify_bundled` op against a reference with
a wrong `e_at_T` and checks that the op counts as failed.  Takes about ten
seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run


def check(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {message}")


def quiet_run(argv, **kwargs):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.main(argv, **kwargs)
    return result, buf.getvalue()


def check_metrics(result: dict, printed: str, declared: list, label: str) -> None:
    check(json.loads(printed.strip().splitlines()[-1]) == result, f"{label}: last line is not the result")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: expected a correct run, got {result['attempted']} attempted, {result['failed']} failed")
    names = [m["name"] for m in declared]
    check(sorted(result["metrics"]) == sorted(names),
          f"{label}: metrics {sorted(result['metrics'])} != declared {sorted(names)}")
    for m in declared:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{label}: {m['name']} has unit {got['unit']!r}, not {m['unit']!r}")
        check(isinstance(got["value"], float), f"{label}: {m['name']} value {got['value']!r} is not a number")
        check(f"  {m['name']} = " in printed and f" {m['unit']} (" in printed,
              f"{label}: {m['name']} not printed with its unit")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tiny = ["--workload", "scale_followers", "--seed", "7", "--seconds", "0.5"]
    result, printed = quiet_run(tiny + ["--trace", "0"], sizes=(3, 4))
    check_metrics(result, printed, spec["end_to_end"], "trace 0")
    result, printed = quiet_run(tiny + ["--trace", "1"], sizes=(3, 4))
    check_metrics(result, printed, spec["per_layer"], "trace 1")

    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    for key, entry in reference["ops"].items():
        if key.startswith("certify "):
            entry["e_at_T"] += 1e-6 * entry["e_initial"]
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        wrong = Path(tmp) / "reference.json"
        wrong.write_text(json.dumps(reference), encoding="utf-8")
        result, printed = quiet_run(["--workload", "certify_bundled", "--seed", "7", "--seconds", "0",
                                     "--trace", "0"], reference=wrong, max_ops=1)
    check(result["attempted"] == 1 and result["failed"] == 1 and not result["correct"],
          f"wrong reference: expected 1 failed op of 1, got {result}")
    check("e_at_T" in printed, "wrong reference: the failure does not name e_at_T")
    print("selftest passed")


if __name__ == "__main__":
    main()
