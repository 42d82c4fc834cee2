"""Entry point: ``python -m benchmarks.e2e`` or ``python benchmarks/e2e/__main__.py``.

Run as a script, ``sys.path[0]`` is this directory; the package and
``repro`` are found from the checkout root instead, so the benchmark
needs no ``PYTHONPATH`` and fails cleanly where there is no program to
measure.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"benchmarks.e2e: no program to measure: {ROOT}/src/repro is missing")
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.e2e.cli import main

    sys.exit(main(sys.argv[1:]))
