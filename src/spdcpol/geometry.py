"""Lab-frame geometry: external (lab) <-> internal scattering angle.

A point displaced by ``offset`` in the focal plane of the collection lens
sees the external angle theta_ext = offset / f, so a pinhole of diameter d
subtends the external width d / f. Refraction at the crystal exit face maps
external angles to the internal ones used by the physics,

    theta_int = theta_ext * n_ambient / n_o(lambda_deg),

in the small-angle regime (the H photon, ordinary polarized, defines the
detected direction in the scan plane). Both conversions take the source and
read n_o of its production crystal at its degenerate wavelength,
``SourceConfig.ordinary_index``, which is evaluated once when the source is
built, so this module is the one place the rule lives. NOTE: the conversion
rescales every angular position by a factor of about n_o ~ 1.66 for BBO;
emitted tables carry both columns so there is no ambiguity about which angle
is which.
"""

from __future__ import annotations

from dataclasses import dataclass

from .biphoton import SourceConfig


@dataclass(frozen=True)
class GeometryConfig:
    lens_focal_length: float   # m
    pinhole_diameter: float = 0.0  # m, 0 = ideal point detector
    ambient_index: float = 1.0

    def __post_init__(self):
        if not self.lens_focal_length > 0.0:
            raise ValueError("focal length must be > 0")
        if not self.pinhole_diameter >= 0.0:
            raise ValueError("pinhole diameter must be >= 0")
        if not self.ambient_index > 0.0:
            raise ValueError("ambient index must be > 0")


def external_to_internal_angle(theta_ext: float, geometry: GeometryConfig,
                               source: SourceConfig) -> float:
    return theta_ext * geometry.ambient_index / source.ordinary_index


def internal_to_external_angle(theta_int: float, geometry: GeometryConfig,
                               source: SourceConfig) -> float:
    return theta_int * source.ordinary_index / geometry.ambient_index
