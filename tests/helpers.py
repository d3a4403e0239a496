"""Shared helper functions for the test suite."""

from __future__ import annotations

import numpy as np

from repro.ir import KernelBuilder
from repro.tsvc import Dims

#: Small suite dimensions: fast functional execution, still large
#: enough for every kernel's derived strides/offsets (n//2, n//5, ...).
SMALL = Dims(n=240, n2=16)


def build(name: str, body_fn, **kwargs):
    """Build a kernel from a function ``body_fn(k)``."""
    k = KernelBuilder(name, **kwargs)
    body_fn(k)
    return k.build()


def copy_buffers(bufs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr in bufs.items()}


def assert_buffers_close(a, b, rtol=2e-4, atol=1e-5, context=""):
    assert set(a) == set(b), f"{context}: buffer sets differ"
    for name in a:
        np.testing.assert_allclose(
            a[name],
            b[name],
            rtol=rtol,
            atol=atol,
            err_msg=f"{context}: array {name!r} diverged",
        )


#: A process that searches the first ``argv[1]`` suite kernels with the
#: ``verified`` driver and prints, as JSON, how many searches it ran
#: (``_search_once`` calls) and every result's ``to_dict()``.
SEARCH_SCRIPT = r"""
import json, sys
from repro.costmodel.speedup import SpeedupModel
from repro.dse import engine, search_kernel
from repro.fitting.nnls import NonNegativeLeastSquares
from repro.serve.chaos import suite_payloads
from repro.targets import ARMV8_NEON
from repro.tsvc import all_kernels

computed = []
_search_once = engine._search_once

def counted(kernel, *args):
    computed.append(kernel.name)
    return _search_once(kernel, *args)

engine._search_once = counted
model = SpeedupModel(NonNegativeLeastSquares()).fit([s for _, _, s in suite_payloads(12)])
kernels = list(all_kernels())[: int(sys.argv[1])]
results = [search_kernel(k, ARMV8_NEON, model, driver="verified").to_dict() for k in kernels]
print(json.dumps({"computed": len(computed), "results": results}))
"""
