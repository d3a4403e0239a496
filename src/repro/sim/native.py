"""Name of the removed native C tier's batch pre-build, kept as a no-op.

The tree-walking interpreter in :mod:`.executor` is the only executor.
The end-to-end benchmark (``e2ebench/tracer.py``) wraps
:func:`prebuild_native` by name, so the name stays; nothing in the
package calls it.
"""

from __future__ import annotations


def prebuild_native(kernels) -> dict:
    """Build nothing; returns an empty ``{kernel name: status}`` map."""
    return {}
