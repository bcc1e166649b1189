"""Bit-exchange sessions for the four scheme variants.

Variants:

* ``classic-kljn``  — both parties pick from the public pair
  {r_low, r_high} at the common effective temperature; LL and HH draws
  leak and are discarded, so efficiency sits at 50%.
* ``vmg-kljn``      — four distinct resistors; the three non-reference
  temperatures are solved so the LH and HL wire triples coincide; LL/HH
  still discarded.
* ``rr-kljn``       — resistances drawn per bit from a quasi-continuum
  grid at a common temperature; ties discarded (no other cell is
  singular, as the R_A <-> R_B swap leaves the wire triple unchanged).
* ``rrrt-kljn``     — both resistance and temperature drawn per bit;
  ties and singular-cell draws discarded, efficiency approaches 1 on
  fine grids.

Each party decides from its own measurement, the partner state it recovers
from the wire (rr/rrrt: it holds H when that resistance is below its own).
Views that differ give a ``KeyDisagreement``; otherwise Alice, the pre-agreed
inverting party, and Bob share Bob's bit value (L -> 0, H -> 1).

Every random choice flows from ``master_seed`` via per-bit seed
sequences: bit i draws both parties' states from
``bit_seed(master_seed, i)`` and, in sampled mode, its noise from
``bit_seed(master_seed, i, purpose=1)``, so bit periods are mutually
independent and may be evaluated in any order.  A session is one batch
pass: per-config state is computed once, the state draws of all bits
are one array pass that is bit-identical to those per-bit streams
(``_streams``; a bit it cannot reproduce is drawn from its own
generator), then observables (sampled mode: contiguous parts of
2^14-sample chunks, one per part of the thread runner
``lookup._run_parts``, each in a workspace the calling thread makes;
each part's generators' seeded states are one more ``_streams`` pass,
set in turn on one reused generator per part),
both recoveries, bits, the singularity verdict and the statuses are
array operations; an rrrt session's verdict comes from the cell census
(``lookup.cell_census``, whose chunks of distinct drawn cells run on
``lookup._run_parts``), so sessions build no look-up table.  The pass
returns its arrays as a columnar :class:`SessionReport`, which builds a
bit's :class:`BitOutcome` only when asked; :func:`run_bit` is that pass
on one index.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, product, starmap
from typing import Optional

import numpy as np

from . import lookup
from ._streams import bounded_integers, pcg64_states
from .errors import ConfigError, KeyDisagreement, KljnError
from .lookup import DEFAULT_MAX_COMBINATIONS, LookupTable, build_table, cell_census
from .physics import (
    SI,
    BandConfig,
    PartyState,
    PhysicalConstants,
    TraceWorkspace,
    WireObservables,
    analytic_observable_arrays,
    estimate_observable_arrays,
    periodogram_bin_count,
    synthesize_traces,
)
from .resolver import (
    RECOVERY_FAILURES,
    recover_partner_arrays,
    reduce_observable_arrays,
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
        if self.max_combinations < 1:
            raise ConfigError(f"max_combinations must be >= 1, got {self.max_combinations}")
        if self.bits < 0:
            raise ConfigError(f"bits must be >= 0, got {self.bits}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        segments = self.estimator_segments
        seg_len = self.band.samples_per_bit // max(segments, 1)
        if segments < 1 or (self.mode == "sampled" and (
                seg_len < 2 or not periodogram_bin_count(seg_len, self.band))):
            raise ConfigError(f"estimator_segments {segments} must be >= 1 and, in "
                              f"sampled mode, leave >= 2 samples and an in-band "
                              f"periodogram bin per segment")
        physical = {"r_low": self.r_low, "r_high": self.r_high, "t_eff": self.t_eff,
                    "recovery_tolerance": self.recovery_tolerance,
                    "degeneracy_tolerance": self.degeneracy_tolerance}
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

    @staticmethod
    def _ascending(grid, range_name, rng, levels_name):
        """`grid`, whose levels must strictly increase.  Checked where a
        grid is built rather than in `validate`, which would otherwise
        build the grid of every config, however many levels it has."""
        if not np.all(np.diff(grid) > 0):
            raise ConfigError(f"{range_name} {rng} is too narrow for {len(grid)} "
                              f"strictly increasing {levels_name}")
        return grid

    def resistance_grid(self) -> np.ndarray:
        """Log-spaced resistance levels (keeps ratios well-conditioned
        across decades)."""
        lo, hi = self.r_range
        return self._ascending(np.geomspace(lo, hi, self.r_levels),
                               "r_range", self.r_range, "r_levels")

    def temperature_grid(self) -> np.ndarray:
        if self.variant == "rr-kljn":
            return np.array([self.t_eff], dtype=float)
        lo, hi = self.t_range
        return self._ascending(np.linspace(lo, hi, self.t_levels),
                               "t_range", self.t_range, "t_levels")

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
    error: Optional[KljnError] = None


_BIT_NAME = {False: "L", True: "H"}


@dataclass
class SessionReport:
    """A session as columns over its bits: entry j of every column is bit
    ``indices[j]``.

    ``draws``, ``high``, ``views`` and ``failures`` hold a column per
    party, Alice's then Bob's: the drawn states, whether the party
    measures that it holds H, its view of the partner as (R, T) rows,
    and its recovery's `RECOVERY_FAILURES` code.  A tie has no measured
    bits or views, and a failed recovery no view.  :meth:`outcome`
    builds one entry's `BitOutcome`, typing its error from the codes.
    """

    variant: str
    indices: list[int]
    draws: tuple[list[PartyState], list[PartyState]]
    observables: tuple[np.ndarray, np.ndarray, np.ndarray]  # (s_u, s_i, p_ab)
    status: np.ndarray
    high: tuple[np.ndarray, np.ndarray]
    views: tuple[np.ndarray, np.ndarray]
    failures: tuple[np.ndarray, np.ndarray]

    @property
    def total_bits(self) -> int:
        return len(self.indices)

    @property
    def secure(self) -> np.ndarray:
        """Mask of the secure entries."""
        return self.status == STATUS_SECURE

    @property
    def counts(self) -> dict[str, int]:
        """Entries per status, in order of first occurrence."""
        return dict(Counter(self.status.tolist()))

    @property
    def efficiency(self) -> Optional[float]:
        """Secure fraction of the bits; None when no bits were run."""
        return (self.counts.get(STATUS_SECURE, 0) / self.total_bits
                if self.total_bits else None)

    @property
    def key_bits(self) -> list[int]:
        return self.high[1][self.secure].astype(int).tolist()

    def outcome(self, j: int) -> BitOutcome:
        """Entry j as a `BitOutcome`."""
        status = str(self.status[j])
        measured = status != STATUS_TIE
        alice_bit, bob_bit = (_BIT_NAME[bool(high[j])] if measured else None
                              for high in self.high)
        view_of_bob, view_of_alice = (
            PartyState(*view[:, j].tolist()) if measured and not failed[j] else None
            for view, failed in zip(self.views, self.failures))
        return BitOutcome(
            index=self.indices[j], alice_draw=self.draws[0][j],
            bob_draw=self.draws[1][j],
            observables=WireObservables(*(column[j].item() for column in self.observables)),
            status=status, alice_bit=alice_bit, bob_bit=bob_bit,
            shared_key_bit=int(self.high[1][j]) if status == STATUS_SECURE else None,
            alice_view_of_bob=view_of_bob, bob_view_of_alice=view_of_alice,
            error=self._error(j) if status == STATUS_ERROR else None)

    def _error(self, j: int) -> KljnError:
        """Error entry j's typed error: the first failed recovery's, else
        the parties' disagreement."""
        for name, failed in zip(("Alice", "Bob"), self.failures):
            if failed[j]:
                error_class, reason = RECOVERY_FAILURES[failed[j]]
                return error_class(f"{name} cannot recover the partner: {reason}")
        return KeyDisagreement("the parties' measured views of the bit differ")

    @property
    def outcomes(self) -> list[BitOutcome]:
        return [self.outcome(j) for j in range(self.total_bits)]


def bit_seed(master_seed: int, bit_index: int, purpose: int = 0) -> np.random.SeedSequence:
    """Independent seed stream per (session, bit, purpose)."""
    return np.random.SeedSequence(entropy=master_seed,
                                  spawn_key=(bit_index, purpose))


def party_states(config: ProtocolConfig) -> tuple[tuple[PartyState, ...],
                                                   tuple[PartyState, ...]]:
    """The (R, T) states Alice and Bob each draw from, by level.

    Binary variants: (low, high) per party, so level 0 is bit L.
    Quasi-continuum variants: both parties share the grid product, with
    level r * n_t + t for resistance level r and temperature level t.
    """
    if config.variant == "classic-kljn":
        pair = (PartyState(config.r_low, config.t_eff),
                PartyState(config.r_high, config.t_eff))
        return pair, pair
    if config.variant == "vmg-kljn":
        r_al, r_ah, r_bl, r_bh = config.vmg_resistors
        temps = config.vmg_temperatures()
        return ((PartyState(r_al, config.t_eff), PartyState(r_ah, temps.t_ah)),
                (PartyState(r_bl, temps.t_bl), PartyState(r_bh, temps.t_bh)))
    grid = tuple(PartyState(r, t) for r in config.resistance_grid().tolist()
                 for t in config.temperature_grid().tolist())
    return grid, grid


def _check_wire_range(config: ProtocolConfig, grids=None):
    """Raise ConfigError unless the analytic observables between each of
    Alice's and each of Bob's extreme states, each party's (R, T) rows
    `grids` or else the grid corners, have finite, positive s_u and s_i and
    a finite p_ab: past the float range every bit would quietly fail."""
    grids = grids or [np.array(list(product(config.resistance_grid()[[0, -1]],
                                            config.temperature_grid()[[0, -1]])))] * 2
    (r_a, t_a), (r_b, t_b) = (rows.T for rows in grids)
    with np.errstate(all="ignore"):
        s_u, s_i, p_ab = analytic_observable_arrays(r_a[:, None], t_a[:, None], r_b, t_b,
                                                    config.band.bandwidth_hz, config.constants.k)
    if not np.all((s_u > 0) & (s_i > 0) & np.isfinite([s_u, s_i, p_ab]).all(axis=0)):
        keys = {"classic-kljn": "r_low, r_high, t_eff", "vmg-kljn": "vmg_resistors, t_eff",
                "rr-kljn": "r_range, t_eff", "rrrt-kljn": "r_range, t_range"}[config.variant]
        raise ConfigError(f"{keys} and bandwidth_hz put the wire observables out of float "
                          f"range: s_u and s_i must be finite and positive, p_ab finite")


def _level_counts(config: ProtocolConfig) -> tuple[int, int]:
    """(resistance, temperature) levels each party draws from."""
    n_r = config.r_levels if config.variant in QUASI_CONTINUUM_VARIANTS else 2
    n_t = config.t_levels if config.variant == "rrrt-kljn" else 1
    return n_r, n_t


def _draw(config: ProtocolConfig, rng: np.random.Generator) -> tuple[int, int]:
    """(Alice's, Bob's) state level: each party draws its resistance level,
    then its temperature level (a single level consumes no randomness)."""
    n_r, n_t = _level_counts(config)
    return (int(rng.integers(n_r)) * n_t + int(rng.integers(n_t)),
            int(rng.integers(n_r)) * n_t + int(rng.integers(n_t)))


def _draw_levels(config: ProtocolConfig, indices: list[int]) -> np.ndarray:
    """`_draw` on each bit's `bit_seed` stream as one array pass: state
    levels of shape (2, len(indices)), Alice's then Bob's.  Bits the pass
    cannot reproduce run `_draw` itself."""
    n_r, n_t = _level_counts(config)
    draws, exact = bounded_integers(config.master_seed, indices, (n_r, n_t, n_r, n_t))
    levels = draws[:, 0::2] * n_t + draws[:, 1::2]
    for j in np.flatnonzero(~exact).tolist():
        levels[j] = _draw(config, np.random.default_rng(
            bit_seed(config.master_seed, indices[j])))
    return levels.T


def _high_bits(config: ProtocolConfig, r_a: np.ndarray, r_b: np.ndarray):
    """(Alice holds H, Bob holds H, tie) masks over (Alice's, Bob's) resistances."""
    if config.variant in QUASI_CONTINUUM_VARIANTS:
        return r_a > r_b, r_b > r_a, r_a == r_b
    low_a, low_b = (config.vmg_resistors[::2] if config.variant == "vmg-kljn"
                    else (config.r_low, config.r_low))
    return r_a != low_a, r_b != low_b, np.zeros(len(r_a), dtype=bool)


def build_lookup_table(config: ProtocolConfig) -> LookupTable:
    """Singularity look-up table over the variant's finite setting grids,
    within the `max_combinations` budget (``kljn table``)."""
    if config.variant not in QUASI_CONTINUUM_VARIANTS:
        raise ConfigError(
            f"look-up tables apply to quasi-continuum variants, not {config.variant!r}")
    _check_wire_range(config)
    return build_table(config.resistance_grid(), config.temperature_grid(),
                       config.band.bandwidth_hz, config.constants,
                       config.degeneracy_tolerance,
                       max_combinations=config.max_combinations)


#: Samples per trace each thread holds at once in sampled mode: a thread
#: synthesizes and estimates max(1, _CHUNK_SAMPLES // samples_per_bit)
#: bit periods at a time.  Results do not depend on it.  On 4096-sample
#: bit periods and two threads, 2**15 and 2**16 ran 6 and 9 % faster
#: than 2**14 but raised the peak RSS by 1.1 and 3.2 MB; 2**13 ran 13 %
#: slower.
_CHUNK_SAMPLES = 1 << 14


def _noise_generators(config: ProtocolConfig, indices: list[int]):
    """Each bit's sampled-noise generator, ``default_rng(bit_seed(
    master_seed, i, purpose=1))``, in order: one ``Generator`` per call,
    reused and set to the seeded state `_streams` computes for each bit,
    or the bit's own generator where that pass does not reach.  Draw from
    each before taking the next; each thread makes its own call."""
    rng = np.random.Generator(np.random.PCG64())
    for i, state in zip(indices, pcg64_states(config.master_seed, indices, purpose=1)):
        if state is None:
            yield np.random.default_rng(bit_seed(config.master_seed, i, purpose=1))
        else:
            rng.bit_generator.state = state
            yield rng


def _sampled_observables(config: ProtocolConfig, indices: list[int],
                         r_a, t_a, r_b, t_b):
    """Estimated (s_u, s_i, p_ab) arrays, chunk by chunk of bit periods.

    The _CHUNK_SAMPLES-sample chunks are split into contiguous parts, one
    per part of `lookup._run_parts`: one per CPU the process may use
    (`lookup._pool_width`), but no more than there are chunks.  The
    calling thread allocates each part's workspace, so no trace lands in
    a helper's malloc arena; each part draws from its own generators.
    Each row's arithmetic does not depend on the split, so neither do the
    results.  A session of one chunk starts no thread."""
    step = max(1, _CHUNK_SAMPLES // config.band.samples_per_bit)
    n_chunks = -(-len(indices) // step)
    width = max(1, min(lookup._pool_width(), n_chunks))
    bounds = [step * (n_chunks * p // width) for p in range(width)] + [len(indices)]
    works = [TraceWorkspace(min(step, bounds[p + 1] - bounds[p]), config.band,
                            config.estimator_segments) for p in range(width)]
    observables = np.empty((3, len(indices)))

    def run(p, _):
        """Part p's columns of `observables`."""
        generators = _noise_generators(config, indices[bounds[p]:bounds[p + 1]])
        for start in range(bounds[p], bounds[p + 1], step):
            rows = slice(start, start + step)
            traces = synthesize_traces(r_a[rows], t_a[rows], r_b[rows], t_b[rows],
                                       config.band, islice(generators, step),
                                       config.constants, works[p])
            observables[:, rows] = estimate_observable_arrays(
                *traces, config.band, config.estimator_segments, works[p])

    lookup._run_parts(width, range(width), run)
    return observables


def _partner_views(config: ProtocolConfig, grids, own_r, own_t, s_u, s_i, p_ab):
    """Alice's, then Bob's recovery of the other side of every bit through
    the one array route: its view of the partner as (R, T) rows and its
    `RECOVERY_FAILURES` codes.  Binary variants see the nearer of the
    partner's `grids` (R, T) rows."""
    for party in (0, 1):
        # Bob sees the same wire with the power flowing into Alice negated
        alpha, beta, _, failure = recover_partner_arrays(*reduce_observable_arrays(
            s_u, s_i, -p_ab if party else p_ab, own_r[party], own_t[party],
            config.band.bandwidth_hz, config.constants.k),
            config.effective_recovery_tolerance())
        seen = np.array([alpha * own_r[party], beta * own_t[party]])
        if config.variant in BINARY_VARIANTS:  # the nearer public state, low on a tie
            public = grids[1 - party]
            seen = public[np.abs(seen[0][:, None] - public[:, 0]).argmin(axis=1)].T
        yield seen, failure


def _run_bits(config: ProtocolConfig, indices) -> SessionReport:
    """The session engine: the bit periods in `indices` in one pass."""
    indices = list(indices)
    levels = _draw_levels(config, indices)
    if config.variant in QUASI_CONTINUUM_VARIANTS:
        # the grid product in `party_states` order; states of drawn levels
        # only (np.unique here would import numpy.ma, 1.1 MB)
        r_grid, t_grid = config.resistance_grid(), config.temperature_grid()
        grid = np.column_stack([np.repeat(r_grid, len(t_grid)), np.tile(t_grid, len(r_grid))])
        drawn = np.flatnonzero(np.bincount(levels.ravel()))
        grids = [grid] * 2
        states = [dict(zip(drawn.tolist(), starmap(PartyState, grid[drawn].tolist())))] * 2
    else:
        states = party_states(config)
        grids = [np.array([(s.resistance, s.temperature) for s in party]) for party in states]
    _check_wire_range(config, grids if config.variant in BINARY_VARIANTS else None)
    (r_a, t_a), (r_b, t_b) = (grid[level].T for grid, level in zip(grids, levels))
    if config.mode == "analytic":
        observables = analytic_observable_arrays(
            r_a, t_a, r_b, t_b, config.band.bandwidth_hz, config.constants.k)
    else:
        observables = _sampled_observables(config, indices, r_a, t_a, r_b, t_b)
    tie = _high_bits(config, r_a, r_b)[2]
    discarded, discard_status = np.zeros(len(indices), dtype=bool), STATUS_SINGULAR
    # at T_A = T_B the swap R_A <-> R_B leaves (s_u, s_i, p_ab = 0) bit for
    # bit unchanged, as IEEE + and * commute, so every rr cell but a tie's
    # holds both bit values: only rrrt draws can land in a singular cell
    if config.variant == "rrrt-kljn":
        discarded[~tie] = cell_census(
            r_grid, t_grid, config.band.bandwidth_hz, config.constants,
            config.degeneracy_tolerance,
            r_a[~tie], t_a[~tie], r_b[~tie], t_b[~tie])[0]
    (view_of_bob, alice_failed), (view_of_alice, bob_failed) = \
        _partner_views(config, grids, (r_a, r_b), (t_a, t_b), *observables)

    # (Alice holds H, Bob holds H) as each party measures it
    (a_high, alice_sees_b), (bob_sees_a, b_high) = (
        _high_bits(config, r_a, view_of_bob[0])[:2],
        _high_bits(config, view_of_alice[0], r_b)[:2])
    same_view = (a_high == bob_sees_a) & (alice_sees_b == b_high)
    # Alice inverts (pre-agreed); both then hold Bob's bit value.
    agreed = same_view & (a_high != b_high)
    if config.variant in BINARY_VARIANTS:
        discarded, discard_status = same_view & (a_high == b_high), STATUS_SAME_BIT
    status = np.select([tie, (alice_failed > 0) | (bob_failed > 0), discarded, ~agreed],
                       [STATUS_TIE, STATUS_ERROR, discard_status, STATUS_ERROR],
                       STATUS_SECURE)
    return SessionReport(
        variant=config.variant, indices=indices,
        draws=tuple([party[k] for k in level.tolist()] for party, level in zip(states, levels)),
        observables=tuple(observables), status=status, high=(a_high, b_high),
        views=(view_of_bob, view_of_alice), failures=(alice_failed, bob_failed))


def run_bit(config: ProtocolConfig, bit_index: int,
            table: Optional[LookupTable] = None) -> BitOutcome:
    """One full bit period: the session engine on the single index.
    `table` is ignored: the engine builds and reads no table.  It stays
    for callers that still pass a prebuilt table, the benchmark's run_bit
    checks, and goes when they stop."""
    return _run_bits(config, [bit_index]).outcome(0)


def run_session(config: ProtocolConfig) -> SessionReport:
    """Run `bits` independent bit periods as one session."""
    return _run_bits(config, range(config.bits))
