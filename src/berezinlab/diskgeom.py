"""Closed-form disk geometry: the domain check and the Mobius automorphisms.

Everything in this module is an exact formula evaluated in double
precision.  The open unit disk D carries the normalized area measure
(total mass 1); points are plain complex numbers, checked by
:func:`disk_value` at API boundaries.

Conventions:

    phi_z(w)  = (z - w) / (1 - conj(z) w)      involutive automorphism
    phi_z'(w) = (|z|^2 - 1) / (1 - conj(z) w)^2
    K_z(w)    = 1 / (1 - conj(z) w)^2          reproducing kernel
    k_z(w)    = (1 - |z|^2) K_z(w)             normalized kernel, ||k_z|| = 1
    1 - |z|^2 = disk_gap(z)                    rim gap, correctly rounded
"""

from __future__ import annotations

import math

# Every kernel and automorphism formula has a (1 - |z|^2) singularity at the
# boundary; points are kept a safe distance inside so all values stay finite.
DISK_RADIUS_MAX = 1.0 - 1e-12


class DiskDomainError(ValueError):
    """Raised when a point required to lie inside the unit disk does not."""


def disk_value(z) -> complex:
    """z as a complex number, refused unless finite with |z| <= DISK_RADIUS_MAX."""
    v = complex(z)
    if not math.isfinite(v.real) or not math.isfinite(v.imag):
        raise DiskDomainError(f"disk point must be finite, got {v!r}")
    if abs(v) > DISK_RADIUS_MAX:
        raise DiskDomainError(
            f"|z| = {abs(v):.17g} exceeds the allowed disk radius {DISK_RADIUS_MAX}"
        )
    return v


def disk_gap(z) -> float:
    """1 - |z|^2 of the validated point, correctly rounded.

    Each coordinate's square splits exactly into its rounded value and
    error term (Veltkamp), and math.fsum adds the five parts exactly.
    """
    return _gap(disk_value(z))


def _gap(zv: complex) -> float:
    """disk_gap of a point disk_value has already checked."""
    parts = [1.0]
    for a in (zv.real, zv.imag):
        square, split = a * a, a * 134217729.0  # 2^27 + 1
        high = split - (split - a)
        low = a - high
        parts += (-square, -(((high * high - square) + 2.0 * high * low) + low * low))
    return math.fsum(parts)


def mobius_eval(z, w) -> complex:
    """Evaluate the disk automorphism phi_z at w.

    phi_z interchanges 0 and z and is its own compositional inverse.
    """
    zv, wv = disk_value(z), disk_value(w)
    return (zv - wv) / (1.0 - zv.conjugate() * wv)
