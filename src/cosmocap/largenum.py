"""The three famous dimensionless ~10^40 coincidences and what ties them
to the universe's op count.

    alpha = e²/(G m_e m_p)      electromagnetic/gravitational force ratio
    beta  = c t m_e c²/e²       horizon size over classical electron radius
    gamma = √(ρc³t³/m_p)        square root of the baryon count

Two combinations are exact algebra, not coincidence:

    βγ²  = (ρc⁵t⁴/ħ)(ħc/e²)(m_e/m_p)   for every ρ and t
    αβ²  = (t/t_P)²(ħc/e²)(m_e/m_p)    for every t; no ρ enters

Their right-hand sides agree at critical density ρ = 1/(Gt²), where the
op count ρc⁵t⁴/ħ is (t/t_P)².  αβ ≈ γ² is the classic statement that
the coincidences are one coincidence, exact precisely at critical
density.  ``identities`` reports each as a residual that equals 1 when
the identity holds.
"""

from __future__ import annotations

from fractions import Fraction

from .constants import PAPER, ConstantsProfile, fine_structure_inverse, get, mass_ratio
from .cosmo import ops_critical, ops_matter
from .dimq import MASS_DENSITY, TIME, Quantity, Record, require

__all__ = ["LargeNumberReport", "alpha", "beta", "gamma", "identities"]

_HALF = Fraction(1, 2)


def alpha(profile: ConstantsProfile = PAPER) -> Quantity:
    """e²/(G m_e m_p), about 2.3e39 for modern constants."""
    e2 = get(profile, "e2")
    return e2 / (get(profile, "G") * get(profile, "m_e") * get(profile, "m_p"))


def beta(t: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """c t divided by the classical electron radius e²/(m_e c²)."""
    require(t, TIME, "t")
    c, m_e, e2 = get(profile, "c"), get(profile, "m_e"), get(profile, "e2")
    return c * t * m_e * c**2 / e2


def gamma(rho: Quantity, t: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """√(ρc³t³/m_p): square root of the baryons inside the horizon."""
    require(rho, MASS_DENSITY, "rho")
    require(t, TIME, "t")
    c, m_p = get(profile, "c"), get(profile, "m_p")
    return (rho * c**3 * t**3 / m_p) ** _HALF


class LargeNumberReport(Record):
    # every field is a Quantity:
    #   r1 = αβ/γ²: 1 exactly at critical density
    #   r2 = βγ² over ops(ρ,t)·(ħc/e²)(m_e/m_p): 1 for every input
    #   r3 = αβ² over ops_critical(t)·(ħc/e²)(m_e/m_p): 1 for every input
    __slots__ = ("alpha", "beta", "gamma", "r1", "r2", "r3")


def identities(
    rho: Quantity, t: Quantity, profile: ConstantsProfile = PAPER
) -> LargeNumberReport:
    """Evaluate α, β, γ and the three residuals at (ρ, t)."""
    a = alpha(profile)
    b = beta(t, profile)
    g = gamma(rho, t, profile)
    # the conversion factor linking ops to βγ²: (ħc/e²)·(m_e/m_p) ≈ 137/1836
    factor = fine_structure_inverse(profile) / mass_ratio(profile)
    r1 = a * b / g**2
    r2 = b * g**2 / (ops_matter(rho, t, profile) * factor)
    r3 = a * b**2 / (ops_critical(t, profile) * factor)
    return LargeNumberReport(a, b, g, r1, r2, r3)
