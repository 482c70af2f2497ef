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
the identity holds.  α, β and γ are rows of the table in ``formulas``;
each residual is a ratio of separately evaluated rows, never one row
whose exponents would cancel.
"""

from __future__ import annotations

from . import formulas as f
from .constants import PAPER, ConstantsProfile
from .dimq import DIMENSIONLESS, Quantity, Record, _new

__all__ = ["LargeNumberReport", "alpha", "beta", "gamma", "identities"]

_IDENTITIES = f.plan(f.BETA, f.GAMMA, f.OPS_MATTER, f.OPS_CRITICAL)  # the rows identities reads


def alpha(profile: ConstantsProfile = PAPER) -> Quantity:
    """e²/(G m_e m_p), about 2.3e39 for modern constants."""
    return f.ALPHA.read(profile._log10s)


def beta(t: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """c t divided by the classical electron radius e²/(m_e c²)."""
    return f.BETA.quantity(f.environment(profile, t=t))


def gamma(rho: Quantity, t: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """√(ρc³t³/m_p): square root of the baryons inside the horizon."""
    return f.GAMMA.quantity(f.environment(profile, rho=rho, t=t))


class LargeNumberReport(Record):
    # every field is a Quantity:
    #   r1 = αβ/γ²: 1 exactly at critical density
    #   r2 = βγ² over ops(ρ,t)·(ħc/e²)(m_e/m_p): 1 for every input
    #   r3 = αβ² over ops_critical(t)·(ħc/e²)(m_e/m_p): 1 for every input
    __slots__ = ("alpha", "beta", "gamma", "r1", "r2", "r3")


def identities(
    rho: Quantity, t: Quantity, profile: ConstantsProfile = PAPER
) -> LargeNumberReport:
    """Evaluate α, β, γ and the three residuals at (ρ, t), checking t first, as beta does."""
    return _identities(f.evaluate(_IDENTITIES, f.environment(profile, t=t, rho=rho)))


def _identities(env: dict[object, float]) -> LargeNumberReport:
    # env holds _IDENTITIES; α, ħc/e² and m_p/m_e are rows of constants alone, from the profile
    a, b, g = env[f.ALPHA], env[f.BETA], env[f.GAMMA]
    # the conversion factor linking ops to βγ²: (ħc/e²)·(m_e/m_p) ≈ 137/1836
    factor = env[f.FINE_STRUCTURE_INVERSE] - env[f.MASS_RATIO]
    r1 = a + b - g * 2.0
    r2 = b + g * 2.0 - (env[f.OPS_MATTER] + factor)
    r3 = a + b * 2.0 - (env[f.OPS_CRITICAL] + factor)
    return LargeNumberReport(*[_new(Quantity, 1, x, DIMENSIONLESS) for x in (a, b, g, r1, r2, r3)])
