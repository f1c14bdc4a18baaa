"""Time the cold start of the command line: `import localex.cli` in fresh
interpreters.

    python3 scripts/import_time.py [-n N]

Prints the minimum wall time of the import over N fresh interpreters
(default 7); then the same minimum over N more with numpy imported before
the clock starts, so that a change to the package alone shows past numpy's
own spread; then the memory the import adds once numpy is loaded, the peak
resident set (ru_maxrss) after `import localex.cli` minus that after
`import numpy`, as the least and most over N more interpreters; then the ten
largest cumulative entries of one further run under `python -X importtime`,
in milliseconds.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
TIMED = ("import time; t = time.perf_counter(); import localex.cli; "
         "print(time.perf_counter() - t)")
AFTER_NUMPY = ("import time, numpy; t = time.perf_counter(); import localex.cli; "
               "print(time.perf_counter() - t)")
RSS = ("import resource, numpy; kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
       "import localex.cli; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - kib)")


def _python(args: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)


def cumulative_us(stderr: str) -> list[tuple[int, str]]:
    """(cumulative microseconds, module) for each line of -X importtime output."""
    rows = []
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            _, cumulative, module = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                rows.append((int(cumulative), module.strip()))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=7, help="fresh interpreters to time")
    n = parser.parse_args().n
    if n < 1:
        parser.error("-n must be at least 1")
    best = min(float(_python(["-c", TIMED]).stdout) for _ in range(n))
    print(f"import localex.cli: {best:.3f} s (min of {n} interpreters)")
    best = min(float(_python(["-c", AFTER_NUMPY]).stdout) for _ in range(n))
    print(f"import localex.cli after import numpy: {best * 1000:.1f} ms "
          f"(min of {n} interpreters)")
    added = sorted(int(_python(["-c", RSS]).stdout) / 1024 for _ in range(n))
    print(f"ru_maxrss of import localex.cli over import numpy: {added[0]:.2f}-{added[-1]:.2f} "
          f"MiB ({n} interpreters)")
    rows = cumulative_us(_python(["-X", "importtime", "-c", "import localex.cli"]).stderr)
    print("largest cumulative -X importtime entries (one run):")
    for us, module in sorted(rows, reverse=True)[:10]:
        print(f"{us / 1000:9.1f} ms  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
