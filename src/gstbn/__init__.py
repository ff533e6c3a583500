"""Geo-spatiotemporal bipartite networks for observing-system analysis.

Build a temporal bipartite network from gridded field snapshots and a
sensor catalog, score how closely the network observes its regions of
interest, and search for new sensor placements with Monte Carlo trials.
Synthetic scenarios come from `gstbn.synth`, which this package does not import.
"""

__version__ = "0.1.0"

import os
import sys

# gstbn does no float BLAS (its two `@` are integer bitmask products), so the
# pool numpy's OpenBLAS starts at import only spins, burning a second core.
# Cap it before the first import of numpy, unless the caller already chose a
# thread count or numpy is loaded.
if "numpy" not in sys.modules and not any(
    v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
del os, sys

from . import errors, field, geo, ingest, metrics, network, placement
from .errors import *
from .geo import *
from .field import *
from .network import *
from .metrics import *
from .placement import *
from .ingest import *

__all__ = [
    "__version__",
    *errors.__all__,
    *geo.__all__,
    *field.__all__,
    *network.__all__,
    *metrics.__all__,
    *placement.__all__,
    *ingest.__all__,
]
