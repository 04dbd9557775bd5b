"""Run one `parkhopf` command under the tracer, as a fresh interpreter.

Usage: python3 perfbench/cli_child.py OUT.json CLI-ARGS...

Stdout and the exit code are the CLI's own.  OUT.json receives the import
time, the tracer summary and the cache counters of this process.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import cache_snapshot, load_package, package_caches  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = perf_counter()
    mods = load_package()
    import_ms = (perf_counter() - t0) * 1000
    caches = package_caches(mods)
    tracer = Tracer(mods, max_spans=0)
    tracer.install()
    try:
        code = mods["cli"].main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_ms": import_ms, "trace": tracer.summary(),
                   "caches": cache_snapshot(caches)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
