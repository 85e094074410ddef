"""Name of the compute path behind the Eq. 4-6 hot-path kernels.

There is one path: the fused, cache-blocked numpy kernels of
:mod:`repro.core._kernels_numpy`, which the estimator and the engine call
directly.  Outside its own test, :func:`backend_name` has one caller:
the machine fingerprint of ``bench/workloads.py``, which records it as
the ``backend`` field.  It goes when the benchmark drops that field.
"""

from __future__ import annotations

__all__ = ["backend_name"]


def backend_name() -> str:
    """Name of the compute path (always ``"numpy"``)."""
    return "numpy"
