"""detmc benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload library --seed 1 --seconds 50 --trace 0

Workloads: library (phase and table ops) and cli (complete-blind and
theory-lps ops); see workloads.py and record.json.  The program is imported
from ``src/`` of the checkout; BLAS is pinned to one thread before numpy
loads.  Ops run closed-loop, one after another, in rounds: a round is the
workload's fixed list of ops built from ``--seed``.  A run makes as many
rounds as fit ``--seconds`` at the workload's nominal round time, so that
the work, and every count, is the same on every run of one seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` splits the
rounds into an untraced pass and a traced pass and prints the per-layer
metrics of the traced pass, per round of ops.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# before numpy is first imported, whatever the caller's environment says
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(_SRC, "detmc", "__init__.py")):
        print(f"error: no detmc package under {_SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [_SRC, _HERE]
    import harness

    sys.exit(harness.main(sys.argv[1:], _T_START))
