"""Correctness checker: which ops of a pass failed, and how close the gates came.

An op fails when it raised or exited unexpectedly, when a validation verdict
differs from the recorded one, when a collective trace it produced or used
breaks the conservation gate, when a column it must fill is not finite or a
sweep row carries error text, or, where a reference applies, when one of its
output columns leaves the reference bar.

References live in ``reference/<workload>.npz``: every output column of the
nominal scenario under the key ``<table>::<column>``, and the validation
verdicts under ``verdict::<check name>``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: Largest deviation from the reference, relative to the column's largest
#: magnitude (the project's bar for "same result").
REFERENCE_BAR = 1e-10
#: Largest norm drift, and energy drift relative to max(1, max |E|), that a
#: collective trace may show.
CONSERVATION_GATE = 1e-8

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.npz"


def save_reference(workload: str, tables: dict, verdicts: dict[str, str]) -> Path:
    arrays = {f"{t}::{c}": np.asarray(v) for t, cols in tables.items() for c, v in cols.items()}
    arrays.update({f"verdict::{name}": np.array(v) for name, v in verdicts.items()})
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def load_reference(workload: str) -> tuple[dict, dict[str, str]]:
    """(tables, verdicts) recorded for ``workload``."""
    tables: dict[str, dict[str, np.ndarray]] = {}
    verdicts: dict[str, str] = {}
    with np.load(reference_path(workload)) as data:
        for key in data.files:
            group, _, name = key.partition("::")
            if group == "verdict":
                verdicts[name] = str(data[key])
            else:
                tables.setdefault(group, {})[name] = data[key]
    return tables, verdicts


class _Faults:
    """Faults found in the output tables, whole-table or per row."""

    def __init__(self) -> None:
        self.whole: dict[str, str] = {}
        self.rows: dict[str, dict[int, str]] = {}
        self.worst = 0.0  # largest deviation seen, as a share of its gate

    def table(self, name: str, reason: str) -> None:
        self.whole.setdefault(name, reason)

    def row(self, name: str, row: int, reason: str) -> None:
        self.rows.setdefault(name, {}).setdefault(row, reason)

    def gate(self, share: float) -> None:
        self.worst = max(self.worst, share)

    def of(self, name: str, row: int | None) -> str | None:
        if name in self.whole:
            return self.whole[name]
        rows = self.rows.get(name, {})
        if row is None:
            return next(iter(rows.values()), None)
        return rows.get(row)


def _compare(faults: _Faults, name: str, got: dict, want: dict) -> None:
    for column, ref in want.items():
        value = got.get(column)
        if value is None or value.shape != ref.shape:
            faults.table(name, f"column {column} missing or reshaped")
        elif ref.dtype.kind in "US":
            for row in np.flatnonzero(value != ref):
                faults.row(name, int(row), f"{column} reads {value[row]!r}, reference {ref[row]!r}")
        else:
            finite = np.isfinite(ref)
            scale = float(np.max(np.abs(ref[finite]), initial=0.0)) or 1.0
            dev = np.where(finite, np.abs(value - ref) / scale, 0.0)
            dev[np.isfinite(value) != finite] = np.inf
            faults.gate(float(np.max(dev, initial=0.0)) / REFERENCE_BAR)
            for row in np.flatnonzero(~(dev <= REFERENCE_BAR)):
                faults.row(name, int(row), f"{column} off the reference by {dev[row]:.1e} of its scale")
    for extra in set(got) - set(want):
        faults.table(name, f"unexpected column {extra}")


def _conservation(faults: _Faults, name: str, table: dict) -> None:
    norm_drift = float(np.max(np.abs(table["norm"] - 1.0)))
    energy = table["energy"]
    energy_drift = float(np.max(np.abs(energy - energy[0]))) / max(1.0, float(np.max(np.abs(energy))))
    drift = max(norm_drift, energy_drift)
    faults.gate(drift / CONSERVATION_GATE)
    if not drift <= CONSERVATION_GATE:
        faults.table(name, f"conservation: norm drift {norm_drift:.1e}, energy drift {energy_drift:.1e}")


def check_pass(result, reference: tuple[dict, dict[str, str]] | None) -> tuple[list[str], float]:
    """Failure messages, one per failed op, and the worst gate share of the pass.

    ``reference`` is ``None`` where the inputs are not the recorded nominal
    scenario; then only the gates that hold at every seed apply.
    """
    faults = _Faults()
    for name, table in result.tables.items():
        if "norm" in table and "energy" in table:  # a collective trace
            _conservation(faults, name, table)
    ref_tables, ref_verdicts = reference if reference is not None else ({}, None)
    for name, want in ref_tables.items():
        if name in result.tables:
            _compare(faults, name, result.tables[name], want)
        else:
            faults.table(name, "output missing")
    if reference is not None:
        for name in set(result.tables) - set(ref_tables):
            faults.table(name, "output not in the reference")

    failures = []
    for op in result.ops:
        reason = _op_fault(op, result.tables, faults, ref_verdicts)
        if reason is not None:
            failures.append(f"{op.name}: {reason}")
    return failures, faults.worst


def _op_fault(op, tables: dict, faults: _Faults, ref_verdicts: dict[str, str] | None) -> str | None:
    """Why ``op`` failed, or ``None`` when it passed every gate that applies."""
    if op.error is not None:
        return op.error
    if ref_verdicts is not None and ref_verdicts.get(op.name) != op.verdict:
        return f"verdict {op.verdict}, reference {ref_verdicts.get(op.name)}"
    for name in op.tables:
        table = tables.get(name)
        if table is None:
            return f"{name}: output missing"
        rows = slice(None) if op.row is None else op.row
        for column in op.finite:
            if not np.all(np.isfinite(table[column][rows])):
                return f"{name}: {column} not finite"
        if op.row is not None and "error" in table and table["error"][op.row]:
            return f"{name}: error cell {table['error'][op.row]!r}"
        fault = faults.of(name, op.row)
        if fault is not None:
            return f"{name}: {fault}"
    return None
