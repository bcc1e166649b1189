"""Legitimate-party parameter recovery and reference algebra.

A party who knows its own (R, T) reduces the measured wire triple
(s_u, s_i, p_ab) to three dimensionless numbers

    gamma = s_u / (4 k T R)        = a (a + b) / (1 + a)^2
    phi   = p_ab / (4 k T df)      = a (b - 1) / (1 + a)^2
    delta = s_i R / (4 k T)        = (1 + a b) / (1 + a)^2

where a, b are the partner-to-own resistance and temperature ratios.
Exact observables satisfy the identity gamma + delta - 2 phi = 1, and
subtracting pairs of equations eliminates b:

    gamma - phi = a / (1 + a),     delta - phi = 1 / (1 + a).

Two recovery routes are implemented.  The elimination route solves the
linear relations above directly, over arrays:
:func:`recover_partner_arrays` is the session route, and
``recover_partner(..., "elimination")`` is one lane of it.  The paper's
quadratic route, kept as its cross-check, eliminates `a` between pairs
of the three equations (resultant of the two quadratics in `a`),
yielding a quadratic in `b` whose roots are {b, 1}; the spurious unit
root is rejected by back-substitution.  The routes must agree wherever
the quadratic yields a unique physical root.

Also here: the temperature-matching solve for the four-resistor binary
scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousRecovery,
    ConfigError,
    InadmissibleTemperatures,
    InconsistentObservables,
    NoPositiveRoot,
    SingularSystem,
)
from .physics import (
    SI,
    PhysicalConstants,
    WireObservables,
    analytic_observable_arrays,
    relative_errors,
)

#: Two candidate roots are treated as one joint solution within this
#: relative tolerance; genuinely distinct survivors raise instead.
ROOT_JOINT_RTOL = 1e-6


@dataclass(frozen=True)
class ReducedObservables:
    """Dimensionless triple (gamma, phi, delta) a party computes from
    its own parameters and the wire measurements."""

    gamma: float
    phi: float
    delta: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.gamma, self.phi, self.delta)):
            raise ValueError("reduced observables must be finite")

    def identity_residual(self) -> float:
        """gamma + delta - 2*phi - 1; zero for exact (noise-free) inputs."""
        return self.gamma + self.delta - 2.0 * self.phi - 1.0


@dataclass(frozen=True)
class RecoveredPartner:
    """Partner ratios recovered from reduced observables."""

    alpha: float
    beta: float
    method: str  # "quadratic" or "elimination"
    residual: float  # max relative mismatch of the three equations

    def __post_init__(self):
        if not self.alpha > 0 or not self.beta > 0:
            raise ValueError(f"recovered ratios must be positive, got "
                             f"({self.alpha}, {self.beta})")
        if self.residual < 0:
            raise ValueError("residual must be non-negative")


@dataclass(frozen=True)
class VmgTemperatures:
    """Temperatures making the LH and HL wire triples coincide, given T_AL."""

    t_ah: float
    t_bl: float
    t_bh: float


def reduce_observables(observables: WireObservables, own_r: float, own_t: float,
                       bandwidth_hz: float,
                       constants: PhysicalConstants = SI) -> ReducedObservables:
    """Reduce a measured wire triple by the party's own parameters."""
    if not (own_r > 0 and own_t > 0 and bandwidth_hz > 0):
        raise ValueError("own_r, own_t and bandwidth_hz must be positive")
    return ReducedObservables(*reduce_observable_arrays(
        *observables, own_r, own_t, bandwidth_hz, constants.k))


def reduce_observable_arrays(s_u, s_i, p_ab, own_r, own_t, bandwidth_hz, k):
    """(gamma, phi, delta) of measured triples, reduced by the party's own
    (R, T); floats or arrays of one shape."""
    scale = 4.0 * k * own_t
    return s_u / (scale * own_r), p_ab / (scale * bandwidth_hz), s_i * own_r / scale


def _equation_errors(alpha, beta, gamma, phi, delta) -> list:
    """Relative mismatch of each reduced equation at (alpha, beta), for
    floats or arrays.  phi is the difference of alpha beta and alpha over
    (1 + alpha)^2, so its mismatch is measured against the size of those
    terms rather than against phi, which near beta = 1 is rounding noise."""
    denom = (1.0 + alpha) ** 2
    return relative_errors((alpha * (alpha + beta) / denom,
                            alpha * (beta - 1.0) / denom,
                            (1.0 + alpha * beta) / denom), (gamma, phi, delta),
                           floors=(0.0, alpha * (beta + 1.0) / denom, 0.0))


def equation_residual(reduced: ReducedObservables, alpha: float, beta: float) -> float:
    """Max relative mismatch of the three reduced equations at (alpha, beta)."""
    return max(0.0, *_equation_errors(alpha, beta, reduced.gamma, reduced.phi,
                                      reduced.delta))


def solve_quadratic_stable(a: float, b: float, c: float) -> tuple[float, float]:
    """Roots of a x^2 + b x + c = 0 in Vieta form.

    Avoids catastrophic cancellation for widely separated roots; raises
    NoPositiveRoot on negative discriminant (callers treat complex roots
    as unphysical measurements).
    """
    if a == 0.0:
        if b == 0.0:
            raise NoPositiveRoot("degenerate quadratic with no roots")
        root = -c / b
        return root, root
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NoPositiveRoot(f"negative discriminant {disc}")
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0.0 else 1.0))
    if q == 0.0:
        return 0.0, 0.0
    return q / a, c / q


def _beta_quadratic_primary(g: float, f: float) -> tuple[float, float, float]:
    """Quadratic in beta from the voltage-PSD and power equations.

    Resultant of the two quadratics in alpha implied by gamma and phi;
    its roots are {beta, 1} on exact data.  (The published closed form
    for this quadratic does not reproduce known solutions and is
    replaced by this derivation; see the test suite.)
    """
    big_a = 1.0 - g + f
    big_b = g - 2.0 * f - 1.0
    big_c = g - f
    return (big_a * big_c,
            big_b * big_c - big_a * g,
            -(f * f + big_b * g))


def _beta_quadratic_alternative(f: float, d: float) -> tuple[float, float, float]:
    """Quadratic in beta from the power and current-PSD equations."""
    p = d - f
    q = 1.0 + f - d
    r = d - 2.0 * f - 1.0
    return (-p * q, -(p * r - d * q), f * f + d * r)


def _positive_roots(coeffs: tuple[float, float, float]) -> list[float]:
    try:
        roots = solve_quadratic_stable(*coeffs)
    except NoPositiveRoot:
        return []
    return [r for r in roots if r > 0.0 and math.isfinite(r)]


def _alpha_candidates(beta: float, g: float, f: float, d: float) -> list[float]:
    """Alpha roots consistent with a candidate beta, from each equation."""
    candidates: list[float] = []
    # gamma eq: (g-1) a^2 + (2g - b) a + g = 0
    candidates.extend(_positive_roots((g - 1.0, 2.0 * g - beta, g)))
    # phi eq: f a^2 + (2f + 1 - b) a + f = 0
    candidates.extend(_positive_roots((f, 2.0 * f + 1.0 - beta, f)))
    # delta eq: d a^2 + (2d - b) a + (d - 1) = 0
    candidates.extend(_positive_roots((d, 2.0 * d - beta, d - 1.0)))
    return candidates


def _recover_by_quadratic(reduced: ReducedObservables,
                          tolerance: float) -> RecoveredPartner:
    g, f, d = reduced.gamma, reduced.phi, reduced.delta
    primary = _positive_roots(_beta_quadratic_primary(g, f))
    if not primary:
        raise NoPositiveRoot(
            f"no positive temperature-ratio root for "
            f"(gamma, phi, delta) = ({g}, {f}, {d})")
    betas = primary
    if len(primary) > 1:
        # both roots physical: require joint consistency with the
        # alternative quadratic built from the power and current equations
        alternative = _positive_roots(_beta_quadratic_alternative(f, d))
        joint = [b for b in primary
                 if any(abs(b - b2) <= ROOT_JOINT_RTOL * max(abs(b), abs(b2))
                        for b2 in alternative)]
        betas = joint or primary

    survivors: list[tuple[float, float, float]] = []
    for beta in betas:
        for alpha in _alpha_candidates(beta, g, f, d):
            residual = equation_residual(reduced, alpha, beta)
            if residual <= tolerance:
                survivors.append((alpha, beta, residual))
    if not survivors:
        raise NoPositiveRoot(
            f"no (alpha, beta) pair satisfies all three equations within "
            f"{tolerance} for (gamma, phi, delta) = ({g}, {f}, {d})")
    best = min(survivors, key=lambda t: t[2])
    # a residual tolerance of `tolerance` cannot distinguish parameters
    # closer than roughly that, so scale the ambiguity threshold with it
    joint_rtol = max(ROOT_JOINT_RTOL, 10.0 * tolerance)
    for alpha, beta, _ in survivors:
        if (abs(alpha - best[0]) > joint_rtol * max(abs(alpha), abs(best[0]))
                or abs(beta - best[1]) > joint_rtol * max(abs(beta), abs(best[1]))):
            raise AmbiguousRecovery(
                f"distinct joint solutions ({best[0]}, {best[1]}) and "
                f"({alpha}, {beta}) both satisfy the equations within {tolerance}")
    return RecoveredPartner(alpha=best[0], beta=best[1], method="quadratic",
                            residual=best[2])


def recover_partner(reduced: ReducedObservables, tolerance: float,
                    method: str = "quadratic") -> RecoveredPartner:
    """Recover the partner's (alpha, beta) from reduced observables.

    ``method="quadratic"`` follows the closed-form route (quadratic in
    the temperature ratio, alternative quadratic for disambiguation,
    then the resistance ratio); ``method="elimination"`` is one lane of
    :func:`recover_partner_arrays`, raising its failure code's error.
    Both must satisfy all three equations within `tolerance`.
    """
    if method == "elimination":
        alpha, beta, residual, failure = (values[0].item() for values in recover_partner_arrays(
            *np.array([[reduced.gamma], [reduced.phi], [reduced.delta]], dtype=float), tolerance))
        if failure:
            error_class, reason = RECOVERY_FAILURES[failure]
            raise error_class(f"{reason} for {reduced} (tolerance {tolerance})")
        return RecoveredPartner(alpha=alpha, beta=beta, method=method, residual=residual)
    if method != "quadratic":
        raise ValueError(f"unknown recovery method {method!r}")
    residual = abs(reduced.identity_residual())
    if residual > tolerance:
        raise InconsistentObservables(
            f"consistency identity violated by {residual} "
            f"(tolerance {tolerance}); observables are not from a valid loop")
    return _recover_by_quadratic(reduced, tolerance)


#: Why :func:`recover_partner_arrays` fails a lane, by code (0: recovered),
#: in check order.
RECOVERY_FAILURES = (
    None,
    (InconsistentObservables, "consistency identity violated"),
    (NoPositiveRoot, "non-positive resistance or temperature ratio"),
    (InconsistentObservables, "elimination residual exceeds the tolerance"),
)


def recover_partner_arrays(gamma, phi, delta, tolerance: float):
    """The elimination route over arrays of reduced observables: (alpha,
    beta, residual, failure), where residual is the max relative mismatch
    of the three equations and failure is 0 or the
    :data:`RECOVERY_FAILURES` code of the first check the lane fails."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = (gamma - phi) / (delta - phi)
        beta = 1.0 + phi * (1.0 + alpha) ** 2 / alpha
        residual = np.max(_equation_errors(alpha, beta, gamma, phi, delta), axis=0)
    failure = np.select([~(np.abs(gamma + delta - 2.0 * phi - 1.0) <= tolerance),
                         (delta - phi <= 0.0) | (gamma - phi <= 0.0) | ~(beta > 0.0),
                         ~(residual <= tolerance)], [1, 2, 3], 0)
    return alpha, beta, residual, failure


def vmg_matching_residual(r_al: float, r_ah: float, r_bl: float, r_bh: float,
                          t_al: float, temps: VmgTemperatures,
                          constants: PhysicalConstants = SI) -> float:
    """Max relative mismatch of the LH vs HL observable triples."""
    lh = analytic_observable_arrays(r_al, t_al, r_bh, temps.t_bh, 1.0, constants.k)
    hl = analytic_observable_arrays(r_ah, temps.t_ah, r_bl, temps.t_bl, 1.0, constants.k)
    return float(np.max(relative_errors(lh, hl)))  # np.max keeps a NaN mismatch


@np.errstate(all="ignore")  # a system past the float range solves to inf or NaN
def solve_vmg_temperatures(r_al: float, r_ah: float, r_bl: float, r_bh: float,
                           t_al: float,
                           constants: PhysicalConstants = SI) -> VmgTemperatures:
    """Temperatures equating the LH and HL wire triples, given T_AL.

    Every observable is linear in the generator temperatures, so the
    three matching conditions form a 3x3 linear system in
    (T_AH, T_BL, T_BH).  The LH pair is (R_AL, R_BH), the HL pair is
    (R_AH, R_BL).  The Boltzmann factor cancels from every equation.
    A system past the float range raises `ConfigError`: one with an
    entry that underflowed to zero or a subnormal, or one with no finite
    solution.
    """
    for name, r in (("r_al", r_al), ("r_ah", r_ah), ("r_bl", r_bl), ("r_bh", r_bh)):
        if not r > 0:
            raise ValueError(f"{name} must be positive, got {r}")
    if not t_al > 0:
        raise ValueError(f"t_al must be positive, got {t_al}")
    # numpy scalars square with the same `pow` as Python floats, but past
    # the float range give inf or NaN where a Python float's ** raises
    r_al, r_ah, r_bl, r_bh, t_al = map(np.float64, (r_al, r_ah, r_bl, r_bh, t_al))
    s_lh = (r_al + r_bh) ** 2
    s_hl = (r_ah + r_bl) ** 2
    # unknown order: (t_ah, t_bl, t_bh); rows: s_u, s_i, p matching
    matrix = np.array([
        [-r_ah * r_bl ** 2 / s_hl, -r_bl * r_ah ** 2 / s_hl, r_bh * r_al ** 2 / s_lh],
        [-r_ah / s_hl, -r_bl / s_hl, r_bh / s_lh],
        [r_ah * r_bl / s_hl, -r_ah * r_bl / s_hl, r_al * r_bh / s_lh],
    ])
    rhs = np.array([
        -t_al * r_al * r_bh ** 2 / s_lh,
        -t_al * r_al / s_lh,
        t_al * r_al * r_bh / s_lh,
    ])
    out_of_range = ConfigError(
        f"resistor configuration ({r_al}, {r_ah}, {r_bl}, {r_bh}) at t_al={t_al} "
        f"puts the temperature matching out of float range")
    # every exact entry is nonzero, so a zero or subnormal one underflowed
    if (np.abs(np.append(matrix, rhs)) < np.finfo(np.float64).tiny).any():
        raise out_of_range

    def mismatch(candidate: np.ndarray) -> float:
        temps = VmgTemperatures(*(float(v) for v in candidate))
        return vmg_matching_residual(r_al, r_ah, r_bl, r_bh, t_al, temps,
                                     constants)

    try:
        solution = np.linalg.solve(matrix, rhs)
        # one step of iterative refinement keeps ill-conditioned
        # quadruples near machine precision; keep whichever candidate
        # actually equalizes the two observable triples better
        refined = solution + np.linalg.solve(matrix, rhs - matrix @ solution)
        if mismatch(refined) < mismatch(solution):
            solution = refined
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"resistor configuration ({r_al}, {r_ah}, {r_bl}, {r_bh}) admits "
            f"no unique temperature solution") from exc
    t_ah, t_bl, t_bh = (float(v) for v in solution)
    if not all(map(math.isfinite, (t_ah, t_bl, t_bh))):
        raise out_of_range
    if min(t_ah, t_bl, t_bh) <= 0.0:
        raise InadmissibleTemperatures(
            f"matching requires non-positive temperatures "
            f"(t_ah={t_ah}, t_bl={t_bl}, t_bh={t_bh}) for configuration "
            f"({r_al}, {r_ah}, {r_bl}, {r_bh}) at t_al={t_al}",
            temperatures=(t_ah, t_bl, t_bh))
    return VmgTemperatures(t_ah=t_ah, t_bl=t_bl, t_bh=t_bh)
