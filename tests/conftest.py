"""Suite-wide hooks: the run's peak resident size in its summary."""

import resource
import sys


def pytest_terminal_summary(terminalreporter):
    # ru_maxrss counts kB on Linux and bytes on macOS; child processes are not counted.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak / 2**20 if sys.platform == "darwin" else peak / 1024
    terminalreporter.write_line(f"peak RSS of the pytest process: {peak_mb:.1f} MB")
