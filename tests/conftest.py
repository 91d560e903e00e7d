"""Suite-wide hooks: the run's peak resident size in its summary, and in CI's step summary."""

import os
import resource
import sys


def pytest_terminal_summary(terminalreporter):
    # ru_maxrss counts kB on Linux and bytes on macOS; child processes are not counted.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak / 2**20 if sys.platform == "darwin" else peak / 1024
    line = f"peak RSS of the pytest process: {peak_mb:.1f} MB"
    terminalreporter.write_line(line)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:  # set by GitHub Actions: the line then shows on the run's page
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
