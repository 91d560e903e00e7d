"""Record the reference outputs of the nominal scenario (seed 0).

Usage (from the root of a checkout):

    python3 perfbench/record_reference.py [workload ...]

Runs one untraced pass of each named workload (default: all) and writes every
output column, plus the validation verdicts, to ``reference/<workload>.npz``.
Refuses to record a pass in which an op raised or a conservation gate broke.
Later runs compare against these files at the nominal seed.
"""

from __future__ import annotations

import importlib
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from check import check_pass, load_reference, save_reference  # noqa: E402
from workloads import NOMINAL_SEED, WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    qfel = importlib.import_module("qfel")
    for module in ("cli", "core", "highgain", "lowgain", "specfun", "validate"):
        importlib.import_module(f"qfel.{module}")
    for name in names or sorted(WORKLOADS):
        make_inputs, run_pass = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=HERE) as outdir:
            result = run_pass(qfel, make_inputs(NOMINAL_SEED), Path(outdir))
        failures, _ = check_pass(result, None)
        if failures:
            print(f"{name}: not recorded, {len(failures)} failed ops, first: {failures[0]}", file=sys.stderr)
            return 1
        verdicts = {op.name: op.verdict for op in result.ops if op.verdict is not None}
        path = save_reference(name, result.tables, verdicts)
        failures, _ = check_pass(result, load_reference(name))
        if failures:
            raise RuntimeError(f"{name}: recorded reference does not reproduce: {failures[0]}")
        print(f"{name}: {len(result.ops)} ops, {len(result.tables)} tables -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
