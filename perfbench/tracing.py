"""Traced run: spans around calls into each qfel layer, and per-layer metrics.

The tracer wraps the public functions of every ``qfel`` module (plus the
SciPy kernels ``highgain`` and ``validate`` call) and rebinds each module
global that names one of them, so every call a module resolves at call time
goes through a wrapper.  ``qfel`` itself is not modified, and ``uninstall``
puts every original back.

Each span is recorded as (name, start, end, parent, run id) and kept in
memory until ``write_spans``.  A span's self time is its duration minus the
durations of its child spans.  Wrapper bookkeeping is timed too, so the
tracer can report its own share of the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

#: Span name -> (module under ``qfel``, attribute) of every wrapped callable.
#: Checks of ``qfel.validate`` are added from its ``CHECKS`` tuple.
TARGETS = {
    "cli.main": ("cli", "main"),
    "cli.run_fig2": ("cli", "run_fig2"),
    "cli.run_fig3": ("cli", "run_fig3"),
    "cli.run_fig4": ("cli", "run_fig4"),
    "cli.run_sweep": ("cli", "run_sweep"),
    "cli.run_validate": ("cli", "run_validate"),
    "validate.run_all": ("validate", "run_all"),
    "validate.expm": ("validate", "expm"),
    "highgain.propagate_dicke": ("highgain", "propagate_dicke"),
    "highgain.eigh_tridiagonal": ("highgain", "eigh_tridiagonal"),
    "highgain.jv": ("highgain", "jv"),
    "highgain.analytic_n_first": ("highgain", "analytic_n_first"),
    "highgain.analytic_n_second": ("highgain", "analytic_n_second"),
    "highgain.lmax_exact": ("highgain", "lmax_exact"),
    "highgain.lmax_ratio": ("highgain", "lmax_ratio"),
    "highgain.integrate_semiclassical": ("highgain", "integrate_semiclassical"),
    "lowgain.propagate": ("lowgain", "propagate"),
    "lowgain.build_full_hamiltonian": ("lowgain", "build_full_hamiltonian"),
    "lowgain.rotating_frame_hamiltonian": ("lowgain", "rotating_frame_hamiltonian"),
    "lowgain.build_effective_hamiltonian": ("lowgain", "build_effective_hamiltonian"),
    "lowgain.ripple_period": ("lowgain", "ripple_period"),
    "lowgain.fit_rabi_frequency": ("lowgain", "fit_rabi_frequency"),
    "lowgain.analytic_dn": ("lowgain", "analytic_dn"),
    "lowgain.gain_frequency": ("lowgain", "gain_frequency"),
    "lowgain.analytic_populations_second": ("lowgain", "analytic_populations_second"),
    "lowgain.analytic_populations_third": ("lowgain", "analytic_populations_third"),
    "core.first_maximum": ("core", "first_maximum"),
    "core.boxcar_smooth": ("core", "boxcar_smooth"),
    "specfun.jacobi_cn": ("specfun", "jacobi_cn"),
    "specfun.elliptic_K": ("specfun", "elliptic_K"),
}

CLI_SPANS = {name for name in TARGETS if name.startswith("cli.")}
HIGHGAIN_CLOSED_FORMS = {
    "highgain.analytic_n_first", "highgain.analytic_n_second", "highgain.lmax_exact", "highgain.lmax_ratio",
}
LOWGAIN_BUILDS = {
    "lowgain.build_full_hamiltonian", "lowgain.rotating_frame_hamiltonian", "lowgain.build_effective_hamiltonian",
}
LOWGAIN_CLOSED_FORMS = {
    "lowgain.analytic_dn", "lowgain.gain_frequency",
    "lowgain.analytic_populations_second", "lowgain.analytic_populations_third",
}


class Tracer:
    """Span recorder that installs itself on the qfel modules of this process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.peak_bytes: dict[str, int] = {}
        self.own_s = 0.0
        self.checks: list[str] = []  # names of qfel.validate.CHECKS without "check_"
        self._bindings: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, track_memory: bool = False):
        tracer = self
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            index = len(tracer.spans)
            span = [name, t0, t0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(index)
            if track_memory:
                tracemalloc.start()
            t1 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = time.perf_counter()
                span[1], span[2] = t1, t2
                tracer._stack.pop()
                if track_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_bytes[name] = max(peak, tracer.peak_bytes.get(name, 0))
            if after is not None:
                after(tracer, signature.bind(*args, **kwargs), result)
            tracer.own_s += (t1 - t0) + (time.perf_counter() - t2)
            return result

        return wrapper

    def install(self, qfel) -> None:
        """Rebind every qfel module global (and method) that names a target."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "qfel" or n.startswith("qfel.")]
        wrappers: dict[int, object] = {}
        for name, (module, attr) in TARGETS.items():
            fn = getattr(getattr(qfel, module), attr)
            wrappers[id(fn)] = self._wrap(name, fn, _AFTER.get(name), name == "highgain.propagate_dicke")
        checks = qfel.validate.CHECKS
        self.checks = [check.__name__.removeprefix("check_") for check in checks]
        for check, name in zip(checks, self.checks):
            wrappers[id(check)] = self._wrap(f"validate.{name}", check)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._rebind(module, attr, wrappers[id(value)])
        self._rebind(qfel.validate, "CHECKS", tuple(wrappers[id(c)] for c in checks))
        dense = qfel.core.BandedHermitianOperator.dense
        self._rebind(qfel.core.BandedHermitianOperator, "dense", self._wrap("core.dense", dense))

    def _rebind(self, owner, attr: str, value) -> None:
        self._bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every rebound name; raise if any is not the original again."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        wrong = [f"{getattr(o, '__name__', o)}.{a}" for o, a, v in self._bindings if getattr(o, a) is not v]
        self._bindings.clear()
        if wrong:
            raise RuntimeError(f"names not restored: {', '.join(wrong)}")

    # -- results ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        lines = ["run_id,index,name,start,end,parent"]
        lines += [f"{self.run_id},{i},{n},{s!r},{e!r},{p}" for i, (n, s, e, p) in enumerate(self.spans)]
        path.write_text("\n".join(lines) + "\n", encoding="ascii")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for index, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += durations[index]

        def outermost(names: set[str]) -> list[int]:
            """Spans in ``names`` with no ancestor in ``names`` (no double count)."""
            picked = []
            for index, span in enumerate(self.spans):
                if span[0] not in names:
                    continue
                parent = span[3]
                while parent >= 0 and self.spans[parent][0] not in names:
                    parent = self.spans[parent][3]
                if parent < 0:
                    picked.append(index)
            return picked

        def time_s(*names: str) -> tuple[float, str]:
            return sum(durations[i] for i in outermost(set(names))), "s"

        def self_s(names: set[str]) -> tuple[float, str]:
            return sum(durations[i] - child_time[i] for i, s in enumerate(self.spans) if s[0] in names), "s"

        def calls(*names: str) -> tuple[float, str]:
            return sum(1 for s in self.spans if s[0] in names), "count"

        validate_spans = {"validate.run_all"} | {f"validate.{c}" for c in self.checks}
        out = {
            "cli.self_s": self_s(CLI_SPANS),
            "cli.calls": calls("cli.main"),
            "cli.csv_bytes": (self.counts["cli.csv_bytes"], "bytes"),
        }
        for check in self.checks:
            out[f"validate.{check}_s"] = time_s(f"validate.{check}")
        out.update({
            "validate.self_s": self_s(validate_spans),
            "validate.expm_s": time_s("validate.expm"),
            "validate.expm_calls": calls("validate.expm"),
            "highgain.propagate_dicke_s": time_s("highgain.propagate_dicke"),
            "highgain.propagate_dicke_calls": calls("highgain.propagate_dicke"),
            "highgain.propagate_dicke_self_s": self_s({"highgain.propagate_dicke"}),
            "highgain.eigh_tridiagonal_s": time_s("highgain.eigh_tridiagonal"),
            "highgain.eigh_tridiagonal_calls": calls("highgain.eigh_tridiagonal"),
            "highgain.eigvec_bytes": (self.counts["highgain.eigvec_bytes"], "bytes"),
            "highgain.propagate_dicke_peak_mb": (
                self.peak_bytes.get("highgain.propagate_dicke", 0) / 2**20, "MB"),
            "highgain.jv_calls": calls("highgain.jv"),
            "highgain.level_samples": (self.counts["highgain.level_samples"], "count"),
            "highgain.closed_form_s": time_s(*HIGHGAIN_CLOSED_FORMS),
            "highgain.closed_form_calls": calls(*HIGHGAIN_CLOSED_FORMS),
            "highgain.integrate_semiclassical_s": time_s("highgain.integrate_semiclassical"),
            "lowgain.propagate_s": time_s("lowgain.propagate"),
            "lowgain.propagate_calls": calls("lowgain.propagate"),
            "lowgain.propagate_self_s": self_s({"lowgain.propagate"}),
            "lowgain.hamiltonian_build_s": time_s(*LOWGAIN_BUILDS),
            "lowgain.ripple_period_s": time_s("lowgain.ripple_period"),
            "lowgain.fit_rabi_frequency_s": time_s("lowgain.fit_rabi_frequency"),
            "lowgain.closed_form_s": time_s(*LOWGAIN_CLOSED_FORMS),
            "lowgain.level_samples": (self.counts["lowgain.level_samples"], "count"),
            "core.first_maximum_s": time_s("core.first_maximum"),
            "core.first_maximum_calls": calls("core.first_maximum"),
            "core.boxcar_smooth_s": time_s("core.boxcar_smooth"),
            "core.dense_s": time_s("core.dense"),
            "core.dense_calls": calls("core.dense"),
            "specfun.jacobi_cn_s": time_s("specfun.jacobi_cn"),
            "specfun.jacobi_cn_calls": calls("specfun.jacobi_cn"),
            "specfun.elliptic_K_calls": calls("specfun.elliptic_K"),
        })
        return out


def _csv_bytes(tracer: Tracer, call, result) -> None:
    argv = list(call.arguments.get("argv") or ())
    if result == 0 and "--out" in argv:
        tracer.counts["cli.csv_bytes"] += Path(argv[argv.index("--out") + 1]).stat().st_size


def _eigvec_bytes(tracer: Tracer, call, result) -> None:
    if isinstance(result, tuple):
        tracer.counts["highgain.eigvec_bytes"] += result[1].nbytes


def _dicke_levels(tracer: Tracer, call, result) -> None:
    call.apply_defaults()
    levels = call.arguments["model"].params.N + 1
    tracer.counts["highgain.level_samples"] += levels * call.arguments["sample_count"]


def _ladder_levels(tracer: Tracer, call, result) -> None:
    call.apply_defaults()
    levels = call.arguments["state"].amplitudes.size
    tracer.counts["lowgain.level_samples"] += levels * call.arguments["sample_count"]


#: Counters updated after a successful call, from its bound arguments and result.
_AFTER = {
    "cli.main": _csv_bytes,
    "highgain.eigh_tridiagonal": _eigvec_bytes,
    "highgain.propagate_dicke": _dicke_levels,
    "lowgain.propagate": _ladder_levels,
}


def import_breakdown(python: str, env: dict) -> dict[str, tuple[float, str]]:
    """``import.*`` metrics from one ``python -X importtime -c "import qfel.cli"``.

    ``import.qfel_s`` sums the cumulative time of the top-level qfel entries;
    the SciPy entries give the cumulative time of their first import.
    """
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import qfel.cli"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    cumulative: dict[str, float] = {}
    qfel_us = 0.0
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not match:
            continue
        micros, indent, module = float(match.group(1)), match.group(2), match.group(3)
        cumulative.setdefault(module, micros)
        if module.split(".")[0] == "qfel" and len(indent) == 1:
            qfel_us += micros
    return {
        "import.qfel_s": (qfel_us / 1e6, "s"),
        "import.scipy_integrate_s": (cumulative.get("scipy.integrate", 0.0) / 1e6, "s"),
        "import.scipy_linalg_s": (cumulative.get("scipy.linalg", 0.0) / 1e6, "s"),
    }
