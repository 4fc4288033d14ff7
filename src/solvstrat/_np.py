"""The one place that imports numpy.

Exact work (labels, certificates, the Ricci numerator, the standardness
audit) runs on ints and Fractions, so a process that does only exact work
need not pay for importing numpy.  Every module takes its numpy as

    from ._np import np

which is the real module when numpy is already imported, and otherwise a
module that importlib.util.LazyLoader loads on first attribute access.
Once loaded it is a plain module, so later attribute lookups cost what they
cost on an eagerly imported numpy.  CPython releases before 3.12.3 do not
lock that first load: two threads that first touch np at the same moment
may both run numpy's import.

The float flow calls two of numpy's compiled entry points through np
directly, not the Python wrappers around them: np._core.multiarray.c_einsum
(in bracket.rep_array and flow.ric_array) and the LAPACK gufunc
np.linalg._umath_linalg.eigh_lo (in flow._eigh).  On the tensors the flow
moves (n <= 10) each call's arithmetic costs less than the wrapper's
dispatch.  The floats are the same bit for bit: np.einsum with
optimize=False returns what c_einsum returns, and np.linalg.eigh on a
float64 matrix returns what eigh_lo with signature "d->dd" returns, having
only checked its argument and caught LAPACK's failure flag.  np._core exists
from numpy 2.0 on, the version the package requires.
"""

from __future__ import annotations

import importlib.util
import sys
import types


def _lazy_numpy() -> types.ModuleType:
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("solvstrat needs numpy", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()
