"""Eve's measurement and inference toolkit.

Eve sees the wire triple (s_u, s_i, p_ab) and the public protocol
parameters, never the per-period private draws.  What that buys her
differs sharply by variant:

* classic / vmg: she can classify LL and HH exactly, but the LH and HL
  triples coincide by construction, so secure bits stay hidden;
* rr: she can extract the unordered resistor *values* (Vieta pair) but
  not which party holds which;
* rrrt: she faces four unknowns (R_A, T_A, R_B, T_B) with three
  equations.  :func:`eve_rrrt_solution_family` makes that constructive:
  sweeping an assumed R_A produces a one-parameter family of exactly
  consistent configurations whose implied bit assignments disagree.

Guess accuracy over secure bits, with a Wilson confidence interval, is
the quantitative stand-in for "zero information gain".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import NamedTuple, Optional

import numpy as np

from .errors import InconsistentObservables, ModelMismatch
from .physics import (
    SI,
    PhysicalConstants,
    WireObservables,
    analytic_observable_arrays,
    analytic_observables,
    relative_errors,
    squared_relative_error,
)
from .protocol import (
    BINARY_VARIANTS,
    ProtocolConfig,
    SessionReport,
    party_states,
    run_session,
)

STRATEGIES = ("random", "nearest-class")


@dataclass(frozen=True)
class EveView:
    """Everything the wire hands to Eve for one bit period.

    Kerckhoffs assumption: the protocol configuration (variant, ranges,
    public sets, bandwidth) is known; the per-period private draws are
    not, and this type carries none of them.
    """

    observables: WireObservables
    bandwidth_hz: float
    public_config: Optional[ProtocolConfig] = None


@dataclass(frozen=True)
class SolutionFamilyPoint:
    """One member of Eve's consistent-configuration family."""

    assumed_r_a: float
    implied_t_a: float
    implied_alpha: float
    implied_beta: float
    residual: float

    def implied_alice_bit(self) -> Optional[str]:
        """Alice's bit if this family member were the truth; None at a tie."""
        if self.implied_alpha == 1.0:
            return None
        return "L" if self.implied_alpha > 1.0 else "H"


@dataclass
class GuessRecord:
    """Eve's per-bit key guesses over the secure bits of a session."""

    strategy: str
    bit_indices: list[int] = field(default_factory=list)
    guesses: list[int] = field(default_factory=list)
    truths: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.guesses)

    @property
    def n_correct(self) -> int:
        return sum(g == t for g, t in zip(self.guesses, self.truths))

    @property
    def accuracy(self) -> Optional[float]:
        return self.n_correct / self.n if self.n else None

    def wilson_interval(self, confidence: float = 0.99) -> Optional[tuple[float, float]]:
        if not self.n:
            return None
        return wilson_interval(self.n_correct, self.n, confidence)


def wilson_interval(successes: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= successes <= n:
        raise ValueError(f"successes {successes} outside [0, {n}]")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


#: Eve's classes of a binary variant's draws.  LH and HL coincide
#: (exactly for classic, by temperature design for the four-resistor
#: scheme), so they form a single irreducible class.
_CLASSES = ("LL", "HH", "LH-or-HL")


def eve_nearest_classes(config: ProtocolConfig, observables) -> list[str]:
    """Eve's class of each triple of the (s_u, s_i, p_ab) columns
    `observables` of a binary variant, in one array pass: the nearest
    analytic class centre by :func:`squared_relative_error`; of equals,
    the first in `_CLASSES` order."""
    (a_low, a_high), (b_low, b_high) = party_states(config)
    columns = [np.asarray(column, dtype=float) for column in observables]
    distances = [squared_relative_error(columns, analytic_observables(
        a, b, config.band, config.constants))
        for a, b in ((a_low, b_low), (a_high, b_high), (a_low, b_high))]
    return [_CLASSES[k] for k in np.argmin(distances, axis=0).tolist()]


class ResistorPair(NamedTuple):
    """Unordered resistor pair: values leak, the party assignment does not."""

    low: float
    high: float
    degenerate: bool


#: Why :func:`eve_pair_extractions` fails a triple, by code (0:
#: extracted), in check order.
PAIR_FAILURES = (
    None,
    (ModelMismatch, "power flow inconsistent with the equal-temperature model"),
    (InconsistentObservables, "spectra must be positive"),
    (InconsistentObservables, "negative discriminant: no two resistors at that temperature"),
    (InconsistentObservables, "extracted a non-positive resistance"),
)


def eve_pair_extractions(observables, bandwidth_hz: float, t_eff: float,
                         constants: PhysicalConstants = SI,
                         mismatch_tolerance: float = 1e-6) -> tuple[np.ndarray, ...]:
    """Extract the unordered resistor pair under the equal-temperature
    model from every triple of the (s_u, s_i, p_ab) columns
    `observables`, in one array pass: columns (low, high, degenerate,
    failure), where failure is 0 or the :data:`PAIR_FAILURES` code of the
    first check the triple fails.

    Real leak for the equal-temperature variants: the two resistance
    values are recoverable from (s_u, s_i), though their locations are
    not.  A normalized power flow over `mismatch_tolerance` betrays
    unequal temperatures (code 1), which is exactly why the pair leak
    disappears in the random-temperature scheme.  The pair is solved in
    Vieta form, R1 + R2 = 4kT/s_i and R1*R2 = s_u/s_i, stable for widely
    separated resistors.
    """
    s_u, s_i, p_ab = (np.asarray(column, dtype=float) for column in observables)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pair_sum = 4.0 * constants.k * t_eff / s_i
        pair_product = s_u / s_i
        disc = pair_sum * pair_sum - 4.0 * pair_product
        r1 = 0.5 * (pair_sum + np.sqrt(disc))
        r2 = pair_product / r1
        low, high = np.minimum(r1, r2), np.maximum(r1, r2)
        degenerate = (high - low) <= 1e-9 * high
        power_flow = np.abs(p_ab) / (4.0 * constants.k * t_eff * bandwidth_hz)
    failure = np.select([power_flow > mismatch_tolerance, ~((s_u > 0) & (s_i > 0)),
                         disc < 0.0, ~(r1 > 0.0) | (r2 <= 0.0)], [1, 2, 3, 4], 0)
    return low, high, degenerate, failure


def eve_pair_extraction(view: EveView, t_eff: float,
                        constants: PhysicalConstants = SI,
                        mismatch_tolerance: float = 1e-6) -> ResistorPair:
    """:func:`eve_pair_extractions` of one view; raises its failure's
    error (ModelMismatch for the power flow)."""
    *pair, failure = eve_pair_extractions([[value] for value in view.observables],
                                          view.bandwidth_hz, t_eff, constants,
                                          mismatch_tolerance)
    if failure[0]:
        error_class, reason = PAIR_FAILURES[failure[0]]
        raise error_class(f"{reason}, got {view.observables} at T = {t_eff} "
                          f"(tolerance {mismatch_tolerance})")
    return ResistorPair(*(values[0].item() for values in pair))


def eve_rrrt_solution_family(view: EveView, assumed_r_a_grid,
                             tolerance: float,
                             constants: PhysicalConstants = SI) -> list[SolutionFamilyPoint]:
    """Sweep assumed Alice resistances and solve for the rest.

    For each assumed R_A, eliminating the two temperatures from the
    three observable equations leaves a relation linear in R_B:

        s_u = R_A R_B s_i + (p_ab / df) (R_A - R_B)

    so R_B = (s_u - R_A p/df) / (R_A s_i - p/df); the current-PSD and
    power equations then give (T_A, T_B) linearly.  Every assumption
    with positive solutions is an exactly consistent configuration:
    three equations cannot pin four unknowns.  Family points whose
    back-substitution residual exceeds `tolerance` or whose implied
    parameters are unphysical are dropped.  This is the one-triple form
    of :func:`eve_rrrt_solution_families`.
    """
    _, *fields = eve_rrrt_solution_families([[value] for value in view.observables],
                                            view.bandwidth_hz, assumed_r_a_grid,
                                            tolerance, constants)
    if not len(fields[0]):
        raise InconsistentObservables(
            "no consistent configuration exists for these observables; "
            "they cannot have come from a valid two-resistor loop")
    return [SolutionFamilyPoint(*values) for values in zip(*(f.tolist() for f in fields))]


def eve_rrrt_solution_families(observables, bandwidth_hz: float, assumed_r_a_grid,
                               tolerance: float, constants: PhysicalConstants = SI
                               ) -> tuple[np.ndarray, ...]:
    """:func:`eve_rrrt_solution_family` of every triple of the (s_u,
    s_i, p_ab) columns `observables`, in one array pass over triples x
    assumed R_A, as columns over the family points: the index of each
    point's triple (ascending), then its assumed_r_a, implied_t_a,
    implied_alpha, implied_beta and residual.  A triple with no family,
    or with a non-positive spectrum, owns no point.

    Results equal the one-triple sweep's scalar arithmetic bit for bit:
    the two squares that it takes with libm's ``pow`` (the loop's total
    resistance, and the residual's relative errors) are taken with
    ``pow`` here too, on the points that reach them.
    """
    s_u, s_i, p_ab = (np.asarray(column, dtype=float)[:, np.newaxis]
                      for column in observables)
    grid = np.asarray(assumed_r_a_grid, dtype=float)
    k = constants.k
    df = bandwidth_hz
    p_per_hz = p_ab / df
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = grid * s_i - p_per_hz
        r_b = (s_u - grid * p_per_hz) / denom
    # the sweep's skips, written so that NaN passes them as it does there
    triple, point = np.nonzero((s_u > 0) & (s_i > 0) & ~(grid <= 0) & ~(denom <= 0.0)
                               & ~(r_b <= 0.0))
    r_a, r_b = grid[point], r_b[triple, point]
    s_u, s_i, p_ab = s_u[triple, 0], s_i[triple, 0], p_ab[triple, 0]
    total = r_a + r_b
    total_sq = np.array([value ** 2 for value in total.tolist()])
    # s_i:  T_A R_A + T_B R_B          = s_i (R_A+R_B)^2 / 4k
    # p:    R_A R_B (T_B - T_A)        = p (R_A+R_B)^2 / 4k df
    m = s_i * total_sq / (4.0 * k)
    n = p_ab * total_sq / (4.0 * k * df)
    t_a = (m - n / r_a) / total
    t_b = t_a + n / (r_a * r_b)
    physical = ~(t_a <= 0.0) & ~(t_b <= 0.0)
    triple, r_a, r_b, t_a, t_b, total_sq, s_u, s_i, p_ab = (
        column[physical]
        for column in (triple, r_a, r_b, t_a, t_b, total_sq, s_u, s_i, p_ab))
    errors = relative_errors(analytic_observable_arrays(r_a, t_a, r_b, t_b, df, k,
                                                        denom=total_sq),
                             (s_u, s_i, p_ab))
    residual = np.sqrt([e_u ** 2 + e_i ** 2 + e_p ** 2
                        for e_u, e_i, e_p in zip(*(e.tolist() for e in errors))])
    kept = residual <= tolerance
    return tuple(column[kept] for column in (triple, r_a, t_a, r_b / r_a, t_b / t_a, residual))


def default_assumed_grid(config: ProtocolConfig, points: int = 10) -> np.ndarray:
    """Assumed-R_A sweep grid spanning the public resistance range."""
    lo, hi = config.r_range
    return np.geomspace(lo, hi, points)


#: The shared (Bob) bit of the two classes that reveal it.
_CLASS_BITS = {"LL": 0, "HH": 1}


def eve_guess_session(config: ProtocolConfig, strategy: str,
                      report: Optional[SessionReport] = None) -> GuessRecord:
    """Replay a session from Eve's view and score her key guesses.

    Only the wire observables and public configuration feed the
    strategy; scoring uses the true shared bits of the secure entries.
    Pass `report` to reuse an already-run session.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if report is None:
        report = run_session(config)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.master_seed, spawn_key=(0xEE,)))
    secure = report.secure
    # quasi-continuum variants have no class model: no finite class set
    # distinguishes their secure draws
    labels = (eve_nearest_classes(config, [column[secure] for column in report.observables])
              if strategy == "nearest-class" and config.variant in BINARY_VARIANTS
              else [None] * np.count_nonzero(secure))
    guesses = [_CLASS_BITS.get(label) for label in labels]
    # the LH-or-HL class, or no class model: a coin each, in bit order
    coins = iter(rng.integers(2, size=guesses.count(None)).tolist())
    return GuessRecord(strategy=strategy,
                       bit_indices=np.compress(secure, report.indices).tolist(),
                       guesses=[next(coins) if g is None else g for g in guesses],
                       truths=report.key_bits)
