"""Run `python -m bernprim ARGV...` and check its exit code and peak RSS.

Usage: python .github/scripts/child_peak_rss.py MAX_MB ARGV...

Prints the child's exit code and peak resident set size, and exits 1
unless the child exited 0 with a peak RSS under MAX_MB megabytes.
"""

from __future__ import annotations

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    max_mb, bernprim_argv = float(argv[0]), argv[1:]
    child = [sys.executable, "-m", "bernprim", *bernprim_argv]
    code = subprocess.run(child, stdout=subprocess.DEVNULL).returncode
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"exit {code}, child peak RSS {rss_mb:.1f} MB")
    return int(code != 0 or rss_mb >= max_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
