"""Magnetic Schrodinger operator with a flux line on a flat product cone.

Exact spectrum, heat / Schrodinger / half-wave propagator kernels in
independent representations, Littlewood-Paley norms, and a certification
harness for the decay estimates they satisfy.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    DomainError,
    GammaOutOfRangeError,
    MagconeError,
    NonconvergenceError,
    QuadratureError,
    SingularTimeError,
    WindowTooSmallError,
)
from .geometry import (
    ConeConfig,
    ConePoint,
    angular_difference,
    cone_distance,
    flux_distance,
    make_point,
)
from .spectrum import (
    ModeWindow,
    QuadratureSpec,
    SpectralField,
    eigenvalue,
    eigenvalue_table,
    expand,
    field_on_grid,
    random_field,
    spectral_apply,
)
from .kernels import (
    KernelValue,
    heat_kernel_closed,
    heat_kernel_series,
    reduced_kernel,
    schrodinger_kernel_closed,
    schrodinger_kernel_series,
    spectral_kernel,
)
from .lpbesov import DyadicCutoff, bernstein_ratio, besov_norm, make_cutoff, sobolev_norm
from .verify import REFERENCE_CONFIGS, SweepGrids, SweepReport, run_suite

__version__ = "0.1.0"

# the public names above; the submodules that importing them binds here are not exports
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
