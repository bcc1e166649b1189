"""Bit-exchange sessions for the four scheme variants.

Variants:

* ``classic-kljn``  — both parties pick from the public pair
  {r_low, r_high} at the common effective temperature; LL and HH draws
  leak and are discarded, so efficiency sits at 50%.
* ``vmg-kljn``      — four distinct resistors; the three non-reference
  temperatures are solved so the LH and HL wire triples coincide; LL/HH
  still discarded.
* ``rr-kljn``       — resistances drawn per bit from a quasi-continuum
  grid at a common temperature; ties and singular-cell draws discarded.
* ``rrrt-kljn``     — both resistance and temperature drawn per bit;
  ties and singular-cell draws discarded, efficiency approaches 1 on
  fine grids.

Alice is the pre-agreed inverting party, so the shared key bit always
equals Bob's bit value (L -> 0, H -> 1).

Every random choice flows from ``master_seed`` via per-bit seed
sequences keyed on (master_seed, bit_index); bit periods are mutually
independent and may be evaluated in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, KljnError, TieDraw
from .lookup import DEFAULT_MAX_COMBINATIONS, LookupTable, build_table
from .physics import (
    SI,
    BandConfig,
    PartyState,
    PhysicalConstants,
    WireObservables,
    analytic_observables,
    estimate_observables,
    squared_relative_error,
    synthesize_bit_period,
)
from .resolver import (
    partner_resistance_equal_temp,
    recover_partner,
    reduce_observables,
    solve_vmg_temperatures,
)

VARIANTS = ("classic-kljn", "vmg-kljn", "rr-kljn", "rrrt-kljn")
BINARY_VARIANTS = ("classic-kljn", "vmg-kljn")
QUASI_CONTINUUM_VARIANTS = ("rr-kljn", "rrrt-kljn")

STATUS_SECURE = "secure"
STATUS_SAME_BIT = "discarded-same-bit"
STATUS_TIE = "discarded-identical-resistance"
STATUS_SINGULAR = "discarded-singular"
STATUS_ERROR = "error"


@dataclass
class ProtocolConfig:
    variant: str
    band: BandConfig
    bits: int
    master_seed: int
    mode: str = "analytic"  # or "sampled"
    # binary variants
    r_low: Optional[float] = None
    r_high: Optional[float] = None
    vmg_resistors: Optional[tuple[float, float, float, float]] = None  # (r_al, r_ah, r_bl, r_bh)
    t_eff: Optional[float] = None  # common temperature; doubles as T_AL for vmg
    # quasi-continuum variants
    r_range: Optional[tuple[float, float]] = None
    r_levels: Optional[int] = None
    t_range: Optional[tuple[float, float]] = None
    t_levels: Optional[int] = None
    # tolerances and machinery
    degeneracy_tolerance: float = 0.01  # relative look-up cell width
    recovery_tolerance: Optional[float] = None  # defaulted per mode
    estimator_segments: int = 64
    max_combinations: int = DEFAULT_MAX_COMBINATIONS
    constants: PhysicalConstants = field(default_factory=lambda: SI)

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.mode not in ("analytic", "sampled"):
            raise ConfigError(f"mode must be 'analytic' or 'sampled', got {self.mode!r}")
        if self.bits < 0:
            raise ConfigError(f"bits must be >= 0, got {self.bits}")
        if self.degeneracy_tolerance < 0:
            raise ConfigError("degeneracy_tolerance must be >= 0")
        physical = {"r_low": self.r_low, "r_high": self.r_high, "t_eff": self.t_eff}
        if self.vmg_resistors is not None:
            physical.update(zip(("r_al", "r_ah", "r_bl", "r_bh"), self.vmg_resistors))
        for name, value in physical.items():
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.variant == "classic-kljn":
            self._require("r_low", "r_high", "t_eff")
            if self.r_low == self.r_high:
                raise ConfigError("classic variant requires r_low != r_high")
            if self.r_low > self.r_high:
                raise ConfigError("r_low must be below r_high")
        elif self.variant == "vmg-kljn":
            self._require("vmg_resistors", "t_eff")
            r_al, r_ah, r_bl, r_bh = self.vmg_resistors
            if not (r_al < r_ah and r_bl < r_bh):
                raise ConfigError("vmg_resistors must be ordered (r_al < r_ah, r_bl < r_bh)")
        elif self.variant == "rr-kljn":
            self._require("r_range", "r_levels", "t_eff")
            self._check_grid("r_range", self.r_range, "r_levels", self.r_levels)
        else:  # rrrt-kljn
            self._require("r_range", "r_levels", "t_range", "t_levels")
            self._check_grid("r_range", self.r_range, "r_levels", self.r_levels)
            self._check_grid("t_range", self.t_range, "t_levels", self.t_levels)

    def _require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise ConfigError(f"variant {self.variant!r} requires {name!r}")

    @staticmethod
    def _check_grid(range_name, rng, levels_name, levels):
        lo, hi = rng
        if not (0 < lo < hi and math.isfinite(hi)):
            raise ConfigError(
                f"{range_name} must be an ordered positive finite pair, got {rng}")
        if levels < 2:
            raise ConfigError(f"{levels_name} must be >= 2, got {levels}")

    def resistance_grid(self) -> np.ndarray:
        """Log-spaced resistance levels (keeps ratios well-conditioned
        across decades)."""
        lo, hi = self.r_range
        return np.geomspace(lo, hi, self.r_levels)

    def temperature_grid(self) -> np.ndarray:
        if self.variant == "rr-kljn":
            return np.array([self.t_eff])
        lo, hi = self.t_range
        return np.linspace(lo, hi, self.t_levels)

    def effective_recovery_tolerance(self) -> float:
        if self.recovery_tolerance is not None:
            return self.recovery_tolerance
        return 1e-6 if self.mode == "analytic" else 0.5

    def vmg_temperatures(self):
        return solve_vmg_temperatures(*self.vmg_resistors, self.t_eff,
                                      constants=self.constants)


@dataclass
class BitOutcome:
    index: int
    alice_draw: PartyState
    bob_draw: PartyState
    observables: Optional[WireObservables]
    status: str
    alice_bit: Optional[str] = None  # "L" / "H"
    bob_bit: Optional[str] = None
    shared_key_bit: Optional[int] = None
    alice_view_of_bob: Optional[PartyState] = None  # recovered from the wire
    bob_view_of_alice: Optional[PartyState] = None
    error: Optional[str] = None


@dataclass
class SessionReport:
    variant: str
    mode: str
    master_seed: int
    total_bits: int
    outcomes: list[BitOutcome]
    counts: dict[str, int]
    efficiency: Optional[float]  # None when no bits were run

    @property
    def key_bits(self) -> list[int]:
        return [o.shared_key_bit for o in self.outcomes if o.status == STATUS_SECURE]


def bit_seed(master_seed: int, bit_index: int, purpose: int = 0) -> np.random.SeedSequence:
    """Independent seed stream per (session, bit, purpose)."""
    return np.random.SeedSequence(entropy=master_seed,
                                  spawn_key=(bit_index, purpose))


def draw_parameters(config: ProtocolConfig, bit_index: int,
                    stream) -> tuple[PartyState, PartyState]:
    """Independent per-party (R, T) draws for one bit period."""
    rng = np.random.default_rng(stream)
    if config.variant == "classic-kljn":
        choices = (config.r_low, config.r_high)
        r_a = choices[rng.integers(2)]
        r_b = choices[rng.integers(2)]
        return (PartyState(r_a, config.t_eff), PartyState(r_b, config.t_eff))
    if config.variant == "vmg-kljn":
        r_al, r_ah, r_bl, r_bh = config.vmg_resistors
        temps = config.vmg_temperatures()
        alice = ((r_al, config.t_eff), (r_ah, temps.t_ah))[rng.integers(2)]
        bob = ((r_bl, temps.t_bl), (r_bh, temps.t_bh))[rng.integers(2)]
        return (PartyState(*alice), PartyState(*bob))
    r_grid = config.resistance_grid()
    t_grid = config.temperature_grid()
    r_a = r_grid[rng.integers(len(r_grid))]
    t_a = t_grid[rng.integers(len(t_grid))]
    r_b = r_grid[rng.integers(len(r_grid))]
    t_b = t_grid[rng.integers(len(t_grid))]
    return (PartyState(float(r_a), float(t_a)), PartyState(float(r_b), float(t_b)))


def assign_bits(config: ProtocolConfig, alice: PartyState,
                bob: PartyState) -> tuple[str, str]:
    """Per-party L/H bit values for a draw.

    Binary variants: the bit is which resistor of the party's own pair
    was chosen.  Quasi-continuum variants: the party with the strictly
    higher resistance holds H; equal resistances are a tie and raise.
    """
    if config.variant == "classic-kljn":
        return ("L" if alice.resistance == config.r_low else "H",
                "L" if bob.resistance == config.r_low else "H")
    if config.variant == "vmg-kljn":
        r_al, _, r_bl, _ = config.vmg_resistors
        return ("L" if alice.resistance == r_al else "H",
                "L" if bob.resistance == r_bl else "H")
    if alice.resistance == bob.resistance:
        raise TieDraw(f"both parties drew {alice.resistance} ohm")
    return (("L", "H") if alice.resistance < bob.resistance else ("H", "L"))


def build_lookup_table(config: ProtocolConfig) -> LookupTable:
    """Singularity look-up table over the variant's finite setting grids."""
    if config.variant not in QUASI_CONTINUUM_VARIANTS:
        raise ConfigError(
            f"look-up tables apply to quasi-continuum variants, not {config.variant!r}")
    return build_table(config.resistance_grid(), config.temperature_grid(),
                       config.band.bandwidth_hz, config.constants,
                       config.degeneracy_tolerance,
                       max_combinations=config.max_combinations)


_BIT_VALUE = {"L": 0, "H": 1}


def _observe(config: ProtocolConfig, alice: PartyState, bob: PartyState,
             bit_index: int) -> WireObservables:
    if config.mode == "analytic":
        return analytic_observables(alice, bob, config.band, config.constants)
    trace = synthesize_bit_period(alice, bob, config.band,
                                  bit_seed(config.master_seed, bit_index, purpose=1),
                                  config.constants)
    return estimate_observables(trace, config.band, config.estimator_segments)


def _resolve_partner(config: ProtocolConfig, own: PartyState,
                     observables: WireObservables,
                     side: str = "alice") -> PartyState:
    """One party's reconstruction of the other side from the wire triple.

    `observables` must already be expressed in the calling party's frame
    (power positive INTO that party); `side` says which public resistor
    pair is the party's own in the four-resistor variant.
    """
    if config.variant in ("classic-kljn", "rr-kljn"):
        r_partner = partner_resistance_equal_temp(
            observables.s_i, own.resistance, config.t_eff, config.constants)
        return PartyState(r_partner, config.t_eff)
    if config.variant == "vmg-kljn":
        return _resolve_vmg_partner(config, own, observables, side)
    reduced = reduce_observables(observables, own.resistance, own.temperature,
                                 config.band.bandwidth_hz, config.constants)
    recovered = recover_partner(reduced, config.effective_recovery_tolerance())
    return PartyState(recovered.alpha * own.resistance,
                      recovered.beta * own.temperature)


def _resolve_vmg_partner(config: ProtocolConfig, own: PartyState,
                         observables: WireObservables,
                         side: str) -> PartyState:
    """The four-resistor settings are public, so a party only needs to
    pick which of the partner's two (R, T) candidates matches the wire
    best."""
    r_al, r_ah, r_bl, r_bh = config.vmg_resistors
    temps = config.vmg_temperatures()
    if side == "alice":
        pairs = [(own, PartyState(r_bl, temps.t_bl)),
                 (own, PartyState(r_bh, temps.t_bh))]
        seen = observables
    else:
        pairs = [(PartyState(r_al, config.t_eff), own),
                 (PartyState(r_ah, temps.t_ah), own)]
        # `observables` is in the caller's frame; predictions are in
        # Alice's, so flip the power for Bob.
        seen = observables.from_partner_side()
    alice, bob = min(pairs, key=lambda pair: squared_relative_error(
        analytic_observables(*pair, config.band, config.constants), seen))
    return bob if side == "alice" else alice


def run_bit(config: ProtocolConfig, bit_index: int, stream=None,
            table: Optional[LookupTable] = None) -> BitOutcome:
    """One full bit period: draw, observe, resolve, classify, share.

    `table` is the prebuilt singularity table for quasi-continuum
    variants; it is built on the fly when omitted (expensive for fine
    grids, so sessions build it once).
    """
    if stream is None:
        stream = bit_seed(config.master_seed, bit_index)
    alice, bob = draw_parameters(config, bit_index, stream)
    observables = _observe(config, alice, bob, bit_index)
    outcome = BitOutcome(index=bit_index, alice_draw=alice, bob_draw=bob,
                         observables=observables, status=STATUS_ERROR)

    try:
        alice_bit, bob_bit = assign_bits(config, alice, bob)
    except TieDraw:
        outcome.status = STATUS_TIE
        return outcome
    outcome.alice_bit, outcome.bob_bit = alice_bit, bob_bit

    try:
        outcome.alice_view_of_bob = _resolve_partner(config, alice, observables,
                                                     side="alice")
        outcome.bob_view_of_alice = _resolve_partner(
            config, bob, observables.from_partner_side(), side="bob")
    except KljnError as exc:
        outcome.status = STATUS_ERROR
        outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome

    if config.variant in BINARY_VARIANTS:
        if alice_bit == bob_bit:
            outcome.status = STATUS_SAME_BIT
            return outcome
    else:
        if table is None:
            table = build_lookup_table(config)
        if table.is_singular(alice.resistance, alice.temperature,
                             bob.resistance, bob.temperature):
            outcome.status = STATUS_SINGULAR
            return outcome

    # Alice inverts (pre-agreed); both then hold Bob's bit value.
    alice_key_bit = 1 - _BIT_VALUE[alice_bit]
    bob_key_bit = _BIT_VALUE[bob_bit]
    if alice_key_bit != bob_key_bit:
        outcome.status = STATUS_ERROR
        outcome.error = "key disagreement after inversion"
        return outcome
    outcome.status = STATUS_SECURE
    outcome.shared_key_bit = bob_key_bit
    return outcome


def run_session(config: ProtocolConfig) -> SessionReport:
    """Run `bits` independent bit periods and aggregate the outcomes."""
    table = None
    if config.variant in QUASI_CONTINUUM_VARIANTS and config.bits > 0:
        table = build_lookup_table(config)
    outcomes = [run_bit(config, i, table=table) for i in range(config.bits)]
    counts: dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    efficiency = (counts.get(STATUS_SECURE, 0) / config.bits
                  if config.bits > 0 else None)
    return SessionReport(variant=config.variant, mode=config.mode,
                         master_seed=config.master_seed,
                         total_bits=config.bits, outcomes=outcomes,
                         counts=counts, efficiency=efficiency)
