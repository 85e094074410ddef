"""Pluggable compute backends for the Eq. 4-6 hot-path kernels.

The detection loop spends most of its time evaluating kernel CDF
differences over many (query, kernel-centre) pairs.  That arithmetic is
isolated behind a small :class:`Backend` record so it can be served
either by the fused, cache-blocked numpy implementation
(:mod:`repro.core._kernels_numpy`) or by the optional numba-compiled one
(:mod:`repro.core._kernels_numba`, installed via the ``repro[fast]``
extra).

Selection is driven by the ``REPRO_BACKEND`` environment variable:

``numpy``
    the portable baseline; bit-identical to the historical estimator
    expressions.
``numba``
    the compiled backend; falls back to numpy *silently* when numba is
    not importable (the extra is strictly optional).
``auto`` (default)
    numba when importable, numpy otherwise.

Programmatic selection via :func:`set_backend` is strict by default so
tests know which backend they exercised; :func:`use_backend` scopes a
selection to a ``with`` block.  ``REPRO_KERNEL_BLOCK`` tunes the number
of (query, centre, dimension) cells each fused block materialises
(default 262 144 cells = 2 MB of float64 scratch, sized so a block's
working set streams through L2).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro._exceptions import ParameterError

__all__ = [
    "Backend",
    "available_backends",
    "backend_name",
    "block_cells",
    "get_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
]

_ENV_BACKEND = "REPRO_BACKEND"
_ENV_BLOCK = "REPRO_KERNEL_BLOCK"
_DEFAULT_BLOCK_CELLS = 262_144
_CHOICES = ("auto", "numpy", "numba")


@dataclass(frozen=True)
class Backend:
    """A set of compiled/vectorised kernels the estimator dispatches to.

    ``range_batch``/``pdf_batch``/``cdf_diff_rows`` cover the Eq. 4-6
    evaluation paths (``range_batch_stacked`` serves many models of equal
    sample size in one call); ``eh_compress`` optionally compiles the EH
    sketch bucket merge (``None`` means the pure-Python merge stays in
    charge).
    """

    name: str
    range_batch: Callable[..., None]
    range_batch_stacked: Callable[..., None]
    pdf_batch: Callable[..., None]
    cdf_diff_rows: Callable[..., np.ndarray]
    eh_compress: "Callable[..., Any] | None" = None


_ACTIVE: "Backend | None" = None
_CACHE: "dict[str, Backend]" = {}


def _numpy_backend() -> Backend:
    if "numpy" not in _CACHE:
        from repro.core import _kernels_numpy as mod
        _CACHE["numpy"] = Backend(
            name="numpy",
            range_batch=mod.range_batch,
            range_batch_stacked=mod.range_batch_stacked,
            pdf_batch=mod.pdf_batch,
            cdf_diff_rows=mod.cdf_diff_rows,
            eh_compress=None)
    return _CACHE["numpy"]


def _numba_backend() -> "Backend | None":
    if "numba" not in _CACHE:
        try:
            from repro.core import _kernels_numba as mod
        except ImportError:
            return None
        _CACHE["numba"] = Backend(
            name="numba",
            range_batch=mod.range_batch,
            range_batch_stacked=mod.range_batch_stacked,
            pdf_batch=mod.pdf_batch,
            cdf_diff_rows=mod.cdf_diff_rows,
            eh_compress=mod.eh_compress)
    return _CACHE["numba"]


def available_backends() -> "tuple[str, ...]":
    """Names of the backends that can actually be loaded, numpy first."""
    names = ["numpy"]
    if _numba_backend() is not None:
        names.append("numba")
    return tuple(names)


def resolve_backend(name: "str | None" = None, *, strict: bool = False) -> Backend:
    """Resolve a backend name (or ``REPRO_BACKEND``) to a loaded backend.

    ``auto`` and -- unless ``strict`` -- ``numba`` fall back to numpy when
    numba cannot be imported; ``strict`` raises instead so callers that
    explicitly requested the compiled backend learn it is unavailable.
    """
    requested = name if name is not None else os.environ.get(_ENV_BACKEND, "auto")
    requested = requested.strip().lower() or "auto"
    if requested not in _CHOICES:
        source = f"{_ENV_BACKEND}=" if name is None else ""
        raise ParameterError(
            f"unknown backend {source}{requested!r}; "
            f"expected one of {', '.join(_CHOICES)}")
    if requested in ("auto", "numba"):
        numba = _numba_backend()
        if numba is not None:
            return numba
        if requested == "numba" and strict:
            raise ParameterError(
                "the numba backend is unavailable (install the "
                "'repro[fast]' extra); set REPRO_BACKEND=auto or numpy "
                "to fall back")
    return _numpy_backend()


def get_backend() -> Backend:
    """The active backend (resolving ``REPRO_BACKEND`` on first use)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = resolve_backend()
    return _ACTIVE


def set_backend(name: "str | None", *, strict: bool = True) -> Backend:
    """Select the active backend programmatically.

    ``None`` re-resolves from the environment (the start-up default).
    Unlike environment resolution, an explicit unavailable ``numba``
    raises unless ``strict=False``.
    """
    global _ACTIVE
    _ACTIVE = resolve_backend(name, strict=strict) if name is not None else None
    return get_backend()


@contextmanager
def use_backend(name: str, *, strict: bool = True) -> Iterator[Backend]:
    """Scope a backend selection to a ``with`` block (restores on exit)."""
    global _ACTIVE
    previous = _ACTIVE
    try:
        yield set_backend(name, strict=strict)
    finally:
        _ACTIVE = previous


def backend_name() -> str:
    """Name of the active backend (``"numpy"`` or ``"numba"``)."""
    return get_backend().name


def block_cells() -> int:
    """Cells per fused evaluation block (``REPRO_KERNEL_BLOCK``)."""
    raw = os.environ.get(_ENV_BLOCK)
    if not raw:
        return _DEFAULT_BLOCK_CELLS
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(
            f"REPRO_KERNEL_BLOCK must be an integer, got {raw!r}") from None
    if value < 1:
        raise ParameterError(
            f"REPRO_KERNEL_BLOCK must be >= 1, got {value}")
    return value
