"""Closed-form disk geometry: the domain check and the Mobius automorphisms.

Everything in this module is an exact formula evaluated in double
precision.  The open unit disk D carries the normalized area measure
(total mass 1); points are plain complex numbers wrapped in
:class:`DiskPoint` at API boundaries.

Conventions:

    phi_z(w)  = (z - w) / (1 - conj(z) w)      involutive automorphism
    phi_z'(w) = (|z|^2 - 1) / (1 - conj(z) w)^2
    K_z(w)    = 1 / (1 - conj(z) w)^2          reproducing kernel
    k_z(w)    = (1 - |z|^2) K_z(w)             normalized kernel, ||k_z|| = 1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Every kernel and automorphism formula has a (1 - |z|^2) singularity at the
# boundary; points are kept a safe distance inside so all values stay finite.
DISK_RADIUS_MAX = 1.0 - 1e-12


class DiskDomainError(ValueError):
    """Raised when a point required to lie inside the unit disk does not."""


@dataclass(frozen=True)
class DiskPoint:
    """A point strictly inside the unit disk.

    Construction rejects |value| > 1 - 1e-12 so that downstream kernel
    evaluations remain finite.
    """

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if not np.isfinite(v.real) or not np.isfinite(v.imag):
            raise DiskDomainError(f"disk point must be finite, got {v!r}")
        if abs(v) > DISK_RADIUS_MAX:
            raise DiskDomainError(
                f"|z| = {abs(v):.17g} exceeds the allowed disk radius {DISK_RADIUS_MAX}"
            )
        object.__setattr__(self, "value", v)

    def __complex__(self) -> complex:
        return self.value

    def __abs__(self) -> float:
        return abs(self.value)


def disk_value(z) -> complex:
    """Validate and unwrap a DiskPoint or raw complex number."""
    if isinstance(z, DiskPoint):
        return z.value
    return DiskPoint(z).value


def mobius_eval(z, w) -> complex:
    """Evaluate the disk automorphism phi_z at w.

    phi_z interchanges 0 and z and is its own compositional inverse.
    """
    zv, wv = disk_value(z), disk_value(w)
    return (zv - wv) / (1.0 - zv.conjugate() * wv)
