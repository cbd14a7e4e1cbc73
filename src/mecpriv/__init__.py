"""Privacy-aware task-offloading laboratory.

Simulates a single device offloading compute tasks to an edge server over
a two-state wireless channel, scores privacy as windowed entropy of the
observable offloading pattern, trains feed-forward and recurrent
Q-learning agents on the combined cost/privacy reward, and evaluates how
well a compromised-server adversary can invert the observed volumes.
"""

import os

# One BLAS thread unless the caller set otherwise: the lab's matmuls are
# small, and BLAS threads woken for them cost time and memory. The
# variables are read when numpy loads, so this runs before numpy is
# imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
