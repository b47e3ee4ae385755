"""Deterministic simulator of type-II collinear SPDC polarization entanglement.

The angular line-shape of a collinear type-II source carries a continuum of
maximally entangled states (|HV> + e^{i phi(theta)} |VH>)/sqrt(2) whose phase
grows linearly with the scattering angle through the transverse walk-off of
the production crystal. Downstream birefringent crystals reshape that phase
law: a half-length 180-degree-rotated compensator flattens it (uniform Psi+),
the aligned orientation doubles it and packs several Bell states into one
line-shape. This package computes the dispersion inputs from Sellmeier data,
the per-angle state, coincidence-rate curves behind polarizers,
aperture-averaged density matrices, visibility and entanglement measures,
and emits CSV/JSON tables from scenario files via the ``spdcpol`` CLI.

Angles: the physics runs on internal (in-crystal) angles; lab-facing I/O uses
external angles, related by theta_ext = n_o(lambda_deg) * theta_int in the
small-angle regime. Units are SI everywhere inside the library.
"""

from .biphoton import (BASIS, BellAngle, BellAngleSet, BellState,
                       CompensatorPlacement, Orientation, SourceConfig,
                       TwoPhotonState, angular_envelope, bell_angles,
                       bell_state, relative_phase, sinc, state_at_angle)
from .crystal import (SellmeierCoefficients, UniaxialCrystal, WalkoffReport,
                      dne_dtheta, group_mismatch_D, index_extraordinary,
                      index_ordinary, longitudinal_walkoff_check,
                      phase_matching_cut_angle, phase_matching_mismatch,
                      transverse_walkoff_B)
from .errors import (ConfigError, OutOfBandError, PhaseMatchingError,
                     QuadratureError, SpdcpolError, StateInvariantError,
                     UndefinedVisibilityError)
from .geometry import (GeometryConfig, external_to_internal_angle,
                       internal_to_external_angle)
from .materials import (MaterialRecord, builtin_materials, get_material,
                        load_materials, parse_materials)
from .measurement import (AngularWindow, DensityMatrix4, PolarizerSettings,
                          aperture_density_matrix, coincidence_rate,
                          concurrence, simulate_counts, visibility,
                          window_coincidences)
from .output import Table, from_csv, to_csv, to_json, write_table
from .quadrature import adaptive_simpson
from .scenario import (PRESETS, CountsSpec, ScanSpec, ScenarioSpec,
                       VisibilitySpec, list_bell_angles, load_scenario,
                       run_scenario)

__version__ = "0.1.0"
