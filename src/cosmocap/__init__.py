"""cosmocap: dimension-checked, overflow-proof limits of computation.

The library answers questions of the form "how many operations and how
many bits does physics allow this system" for anything from a laptop to
the observable universe, keeping every intermediate number in signed
log10 form with exact rational dimension exponents.
"""

from .baseline import FleetSpec, default_fleet, fleet_bits, fleet_ops, historical_ops
from .bounds import (
    BekensteinResult,
    SystemLimits,
    SystemSpec,
    bekenstein_ratio,
    holographic_bits,
    max_bits,
    max_io_rate,
    max_ops_per_sec,
    min_flip_time,
    system_limits,
)
from .constants import (
    CODATA,
    PAPER,
    ConstantsProfile,
    builtin_profile,
    fine_structure_inverse,
    load_profile,
    mass_ratio,
    planck_length,
    planck_time,
)
from .cosmo import (
    GUT_THRESHOLD_GEV,
    PHOTONS_ONLY,
    CapacityReport,
    InflationBounds,
    RadiationBits,
    Scenario,
    Species,
    SpeciesTable,
    apply_gravity,
    bits_holographic,
    bits_matter,
    bits_radiation,
    blackbody_temperature,
    critical_density,
    d_factor,
    entropy_density,
    entropy_in_volume,
    full_report,
    horizon_volume,
    inflation_bounds,
    inflation_total_ops,
    ops_critical,
    ops_matter,
    ops_radiation,
    paper_scenario,
    radiation_energy_at,
)
from .dimq import (
    AREA,
    CHARGE2,
    DEFAULT_TOLERANCE_DECADES,
    DIMENSIONLESS,
    ENERGY,
    ENTROPY,
    LENGTH,
    MASS,
    MASS_DENSITY,
    RATE,
    TEMPERATURE,
    TIME,
    VOLUME,
    Dimension,
    DimensionError,
    LogInterval,
    Quantity,
    add,
    approx_eq,
    div,
    make,
    mul,
    pow_rational,
    scalar,
    sub,
    zero,
)
from .largenum import LargeNumberReport, alpha, beta, gamma, identities

__version__ = "0.1.0"
