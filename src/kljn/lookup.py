"""The singularity look-up table and the per-bit cell census.

For quasi-continuum variants every joint setting (R_A-level, T_A-level,
R_B-level, T_B-level) maps to an analytic observable triple.  Triples
are quantized into cells of a positive relative width; a cell is
*singular* when all settings landing in it imply the same bit
assignment, so observing such a triple hands the bit to an
eavesdropper.  Secure operation requires the drawn setting's cell to be
degenerate (at least two opposite bit situations within one cell).  A
zero width would make every setting its own singular cell and discard
every bit, so configs reject it.

rrrt sessions ask only about the cells of their drawn settings (a
median of 26 settings at 64 levels), so `cell_census` finds each such
cell's members without enumerating the grids.  A cell is a box in
(s_u, s_i, q = p_ab / bandwidth).  Eliminating the temperatures gives
the T-free relation s_u - R_A R_B s_i - q (R_A - R_B) = 0, so per R_A
the box bounds R_B, and s_i bounds R_A + R_B; per surviving pair the
box bounds T_A, and per T_A each observable, linear in T_B, bounds
T_B.  The box widened by `_MARGIN` of its scale holds every member
despite rounding, and the box narrowed by as much holds members only:
the T_B inside the narrowed box are counted from their index range,
and the few candidates between the two boxes are keyed with the
table's own arithmetic (`_block_keys`).  Members are counted per bit
value, so the verdict and the cell size equal the table's.  The census
runs once per distinct drawn cell, so its work grows with the (pair,
T_A) rows of those cells (1.8 million for the 608 distinct cells, 10.7
million members, of 1000 bits at width 0.1 and 64 levels), not with
the bit count.  It runs in pieces of about `_CENSUS_PIECE` values, so
its memory is bounded whatever the bit count and cell size, and takes
the distinct cells in chunks of `_CENSUS_PIECE // levels`, one
`_run_parts` pass over the chunks (one chunk runs inline).  Only the
drawn keys must lie in the 21-bit key range: a candidate outside it
cannot share a drawn cell and is dropped.

Tables for fine grids enumerate levels^4 settings, so the build
streams them in blocks of 2^19 to 2^20 joint settings, each a run of
resistance pairs with all their (T_A, T_B), and halves the work by the
A<->B swap.  It leaves s_u, s_i and (R_A + R_B)^2 unchanged bit for
bit (sums and products of the same terms), and negates p_ab = pre
(T_B - T_A) / (R_A + R_B)^2 exactly where pre = 4k df R_A R_B
(`physics.power_prefactor`) rounds alike in both orders, as it always
does when 4k df is a power of two.  As floor(-x) = -floor(x) - e with
the parity e = (x != floor(x)) of x = p / (width p_scale), the swap of
a setting keyed (u, i, n) with parity e lies in cell (u, i, -n - e),
its bit sign(R_B - R_A) negated.  So the pairs R_A < R_B with a
symmetric prefactor are enumerated once, under uint64 keys
(key << 1) | e, and the diagonal and both orientations of the other
pairs are enumerated as they are.  The mirror keeps (u, i), so the
images are added within slabs of whole (u, i) groups.  The
too-narrow-width `ConfigError` checks the mirrors' indices too, so it
fires for exactly the grids where some setting's index leaves the key
range.

The table build, the cell census, sampled sessions (`protocol`) and
the table dump (`report`) run on the package's one thread runner,
`_run_parts`, on up to `_pool_width` parts, one per CPU the process may
run on; its results do not depend on the part count.

The build keys its blocks in one pass of no more parts than leave each
block `_MIN_BLOCK_SETTINGS`, which share the `_BLOCK_SETTINGS` settings
in flight.  On strictly ascending grids every block holds one bit value:
the mirrored pairs (+1), then the diagonal (0), the other pairs
R_A < R_B (+1) and those pairs reversed (-1).  Part p keys its blocks
in buffer set p, which the calling thread allocates before any helper
starts (s_u, s_i and p as float64, and the parity mask) and frees after
the join.  Per block the observables are written in place, quantized
and packed into keys in s_u's storage (the same IEEE operations as with
a fresh array per step) and sorted in place, which numpy does without
the GIL, then cut into a (refined key, int32 count) run, kept with its
mirrored flag and bit.  So a helper's malloc arena gets no block-sized
array, only its runs and the broadcast temporaries of
`analytic_observable_arrays` (267 kB per 2^19-setting block at 64
levels).  The fold cuts every run at the same (u, i) group starts, one
at every `_FOLD_CELLS`-th key of each run, so a slab takes up to about
`_FOLD_CELLS` keys from each run, and folds the slabs in a second pass:
per slab it adds the image of each mirrored slice (`_image`), gives
every entry the mask bit 1 + bit, drops the parity bit and groups
everything once.  The calling thread frees the runs, then concatenates
the slabs' cells.  A helper's arena so gets one slab's temporaries at a
time (a median of 3 MB, at most 14 MB, at 64 levels and width 0.01) and
its share of the slabs' cells, not a merge of the whole table, which
left 62-64 MB in a helper's arena when tried.  Within each
kind of pair the blocks take the pairs in order of R_A + R_B, which
sets s_i, so a block's cells recur little in other blocks: at 64 levels
and width 0.01 the kept runs hold 1.40 million entries for 1.09 million
distinct refined keys with one thread, 1.71 million with two, against
2.48 million entries in pair order.  Working memory is the kept runs,
25 bytes per setting in flight and one slab per part, rather than
levels^4 settings.  The per-setting cell array `combo_cells` exists
only on demand: `cell_indices` computes it block by block over the
Alice settings when it is first asked for.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, GridTooLarge
from .physics import PhysicalConstants, analytic_observable_arrays, power_prefactor

#: Default enumeration budget of `build_table`: settings pairs, not
#: bytes.  64-level resistance and temperature grids need 64^4 ~ 1.7e7
#: pairs.
DEFAULT_MAX_COMBINATIONS = 40_000_000

_KEY_BITS = 21
_KEY_OFFSET = 1 << (_KEY_BITS - 1)

#: Joint settings in flight in the enumeration pass, over all the
#: blocks its threads key at once; the per-setting working arrays of the
#: build never hold more.
_BLOCK_SETTINGS = 1 << 20

#: Fewest joint settings per block when the build keys blocks on more
#: than one thread: at 64 levels and width 0.01, blocks of 2^18 (two
#: threads with 2^19 in flight, or four with 2^20) built in 0.50-0.53 s
#: with a 55 MB traced peak, blocks of 2^19 in 0.40-0.42 s with 45 MB.
_MIN_BLOCK_SETTINGS = 1 << 19

#: Bits of a refined key below its (s_u, s_i) group: power index and
#: parity.
_LOW_BITS = _KEY_BITS + 1

#: Refined keys between the fold's cuts in each run: every run is cut at
#: every `_FOLD_CELLS`-th of its keys, moved back to the start of its
#: (s_u, s_i) group, so a slab takes up to about `_FOLD_CELLS` keys from
#: each run, not in all (at 64 levels and width 0.01, a median of 56 k
#: entries and at most 245 k, images included).  At 64 levels, width
#: 0.01 and two threads, 2^15 lowered the fold's traced peak from 50 to
#: 40 MB against 2^16, and the `rrrt-table` benchmark's peak RSS from
#: 114.9 to 110.9 MB (the one-thread build with 2^16: 114.8 MB), at the
#: same speed; 2^14 and 2^17 were slower.
_FOLD_CELLS = 1 << 15

#: Values per piece of the census: candidate settings, (pair, T_A) rows
#: or (cell, R_A) bounds.  Its working arrays hold about one piece per
#: stage and part, so the piece sets its memory: a width-0.1, 64-level,
#: 1000-bit session peaked at 44 MB of process RSS with 2^14 on one
#: part and 55 MB on two (one part: 74 MB with 2^16, 422 MB with 2^20;
#: the table's session: 99 MB).  2^16 was about 20 % faster at width
#: 0.01, a few ms per 1000 bits at 64 levels.
_CENSUS_PIECE = 1 << 14

#: Relative widening of a cell's box against rounding in the census.
_MARGIN = 1e-9


def _block_keys(r_a, t_a, r_b, t_b, bandwidth_hz: float, k: float,
                rel_width: float, p_scale: float,
                drop_outside: bool = False, refine: bool = False,
                mirrored: bool = False, out=None) -> np.ndarray:
    """Flat cell keys of broadcast settings: log-spaced cells of relative
    width `rel_width` for the PSDs, linear cells of width rel_width *
    p_scale for the (sign-changing) power, their offset indices packed
    high to low as (s_u, s_i, p).  The arithmetic runs in place on the
    observable arrays, and the indices pass through their storage: the
    keys are packed in s_u's.  `out` gives the storage: float arrays of
    the broadcast shape for (s_u, s_i, p) and a bool array of it for the
    parity; without it they are allocated.  An index outside the key
    range raises `ConfigError`, or with `drop_outside` makes the key -1,
    which equals no packed key.

    With `refine` the keys are uint64 (key << 1) | e, with the parity
    e = (x != floor(x)) of x = p / (rel_width * p_scale); with
    `mirrored` too, the mirror image's power index -n - e must be in the
    key range as well."""
    s_u, s_i, p = (column.ravel() for column in analytic_observable_arrays(
        r_a, t_a, r_b, t_b, bandwidth_hz, k, out=out and out[:3]))
    log_width = np.log1p(rel_width)
    for values in (s_u, s_i):
        np.log(values, out=values)
        np.divide(values, log_width, out=values)
        np.floor(values, out=values)
    if p_scale <= 0.0:
        p.fill(0.0)
    else:
        np.divide(p, rel_width * p_scale, out=p)
    outside = False

    def pack(values, parity=None):
        """values' offset indices, converted in their own storage"""
        nonlocal outside
        index = values.view(np.int64)
        np.copyto(index, values, casting="unsafe")
        index += _KEY_OFFSET
        low, high = index.min(), index.max()
        if parity is not None and low == 0 and not parity[index == 0].all():
            low = -1  # n = -2^20 with e = 0 mirrors to 2^20
        if low < 0 or high >= (1 << _KEY_BITS):
            if not drop_outside:
                raise ConfigError(
                    f"cell width {rel_width!r} is too narrow: quantization "
                    f"indices leave the {_KEY_BITS}-bit key range; increase "
                    f"degeneracy_tolerance")
            outside = outside | (index < 0) | (index >= (1 << _KEY_BITS))
        return index

    keys = pack(s_u)
    keys <<= _KEY_BITS
    keys |= pack(s_i)
    # floor(x) in s_i's storage, then its index
    np.floor(p, out=s_i)
    parity = np.not_equal(p, s_i, out=out and out[3].ravel()) if refine else None
    keys <<= _KEY_BITS
    keys |= pack(s_i, parity if mirrored else None)
    if outside is not False:
        keys[outside] = -1
    if refine:
        keys = keys.view(np.uint64)
        keys <<= 1
        keys |= parity
    return keys


def _block_bits(r_a, r_b) -> np.ndarray:
    """sign(R_B - R_A) per broadcast setting: -1/0/+1."""
    return np.sign(r_b - r_a).astype(np.int8).ravel()


def _starts(keys: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Where each run of equal sorted `keys` starts; `first`, a bool array
    at least as long, is the scratch."""
    first = first[:len(keys)]
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def _group(keys: np.ndarray, counts: np.ndarray, masks: np.ndarray):
    """Sorted unique keys with the summed counts and OR-ed bit masks of
    their entries.  The inputs are concatenated sorted runs, which the
    stable sort merges run by run instead of sorting afresh."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = _starts(keys, np.empty(len(keys), dtype=bool))
    return (keys[starts], np.add.reduceat(counts[order], starts, dtype=np.int64),
            np.bitwise_or.reduceat(masks[order], starts))


def _power_scale(r_grid: np.ndarray, t_grid: np.ndarray, bandwidth_hz: float,
                 k: float) -> float:
    """max|p| over the grids, the scale of the power cells.  For each
    resistance pair |p| grows with |T_B - T_A|, and IEEE rounding is
    monotone, so the largest |p| lies at the extreme temperatures."""
    return float(np.max(np.abs(analytic_observable_arrays(
        r_grid[:, np.newaxis], t_grid.min(), r_grid, t_grid.max(),
        bandwidth_hz, k)[2])))


def _pieces(starts: np.ndarray, stops: np.ndarray):
    """(row, value) of every value in [starts[row], stops[row]), row by
    row, in pieces of consecutive rows that hold about _CENSUS_PIECE
    values each (at most one row's count more)."""
    counts = np.maximum(stops - starts, 0)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    bounds = np.append(np.searchsorted(
        ends, np.arange(0, total, _CENSUS_PIECE), "right"), len(ends))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo < hi:
            n = counts[lo:hi]
            yield (np.repeat(np.arange(lo, hi), n),
                   np.arange(ends[lo] - n[0], ends[hi - 1])
                   + np.repeat(starts[lo:hi] - ends[lo:hi] + n, n))


def _widen(lo, hi, margin=_MARGIN):
    """[lo, hi] widened by `margin` of its scale on each side (narrowed
    for a negative margin)."""
    pad = margin * np.maximum(np.abs(lo), np.abs(hi))
    return lo - pad, hi + pad


def _extremes(low, high, step):
    """(max, min) over the rows s_u, s_i and q of their T_B bounds
    low + step and high + step."""
    low, high = low + step, high + step
    return (np.maximum(np.maximum(low[0], low[1]), low[2]),
            np.minimum(np.minimum(high[0], high[1]), high[2]))


def _member_counts(r_grid, t_grid, bandwidth_hz, k, rel_width, p_scale, keys):
    """Members of the cells `keys` per bit value sign(R_B - R_A): an
    array (cells, 3).  Settings inside a cell's box narrowed by _MARGIN
    are counted from their T_B index ranges; the other candidates, those
    within _MARGIN of a face, are keyed, in pieces of about
    _CENSUS_PIECE."""
    counts = np.zeros(3 * len(keys), dtype=np.int64)
    index_mask = (1 << _KEY_BITS) - 1
    i_u, i_i, i_p = (((keys >> shift) & index_mask) - _KEY_OFFSET
                     for shift in (2 * _KEY_BITS, _KEY_BITS, 0))
    # each cell's box in (s_u, s_i, q = p / df): rows of low and high
    # faces, widened and narrowed
    log_width = np.log1p(rel_width)
    q_width = rel_width * p_scale / bandwidth_hz
    outer, inner = (_widen(np.array([np.exp(i_u * log_width), np.exp(i_i * log_width),
                                     i_p * q_width]),
                           np.array([np.exp((i_u + 1) * log_width),
                                     np.exp((i_i + 1) * log_width), (i_p + 1) * q_width]),
                           margin)
                    for margin in (_MARGIN, -_MARGIN))
    (u_lo, i_lo, q_lo), (u_hi, i_hi, q_hi) = outer

    # per R_A the T-free relation gives R_B = (s_u - q R_A) / (R_A s_i - q),
    # which falls with s_i and rises with s_u while the denominator stays
    # positive, and s_i bounds R_A + R_B to [4k t_min / s_i, 4k t_max / s_i]
    k4 = 4.0 * k
    r = r_grid[:, np.newaxis]
    ri_lo, ri_hi, qr_lo, qr_hi = r * i_lo, r * i_hi, r * q_lo, r * q_hi
    with np.errstate(divide="ignore", invalid="ignore"):
        r_b_lo = np.minimum((u_lo - qr_lo) / (ri_hi - q_lo), (u_lo - qr_hi) / (ri_hi - q_hi))
        r_b_hi = np.maximum((u_hi - qr_lo) / (ri_lo - q_lo), (u_hi - qr_hi) / (ri_lo - q_hi))
    unbounded = ri_lo <= q_hi
    r_b_lo[unbounded], r_b_hi[unbounded] = 0.0, np.inf
    np.maximum(r_b_lo, k4 * t_grid[0] / i_hi - r, out=r_b_lo)
    np.minimum(r_b_hi, k4 * t_grid[-1] / i_lo - r, out=r_b_hi)
    # cell by cell, R_A rising
    r_b_lo, r_b_hi = r_b_lo.T.ravel(), r_b_hi.T.ravel()
    live = np.flatnonzero((r_b_lo <= r_b_hi) & (r_b_lo <= r_grid[-1])
                          & (r_b_hi >= r_grid[0]))
    for pair, j_b in _pieces(np.searchsorted(r_grid, r_b_lo[live], "left"),
                             np.searchsorted(r_grid, r_b_hi[live], "right")):
        cell, j_a = np.divmod(live[pair], len(r_grid))
        ra, rb = r_grid[j_a], r_grid[j_b]
        slot = 3 * cell + _block_bits(ra, rb) + 1
        # per pair the box bounds T_A through (s_i, q) and (s_u, q) with
        # T_B eliminated
        (u_l, i_l, q_l), (u_h, i_h, q_h) = (side.take(cell, axis=1) for side in outer)
        ta_lo, ta_hi = _widen(
            np.maximum(ra * i_l - q_h, (u_l - ra * q_h) / rb) * (ra + rb) / (k4 * ra),
            np.minimum(ra * i_h - q_l, (u_h - ra * q_l) / rb) * (ra + rb) / (k4 * ra))
        # s_u, s_i and q are each linear in T_B, so per T_A each face
        # bounds T_B to face * scale + gradient * T_A
        d = (ra + rb) ** 2 / k4
        slope = d / (ra * rb)
        scale = np.array([slope / ra, d / rb, slope])
        gradient = np.array([-rb / ra, -ra / rb, np.ones(len(ra))])
        out_low, out_high, in_low, in_high = (side.take(cell, axis=1) * scale
                                              for side in (*outer, *inner))
        for row, j_ta in _pieces(np.searchsorted(t_grid, ta_lo, "left"),
                                 np.searchsorted(t_grid, ta_hi, "right")):
            ta = t_grid[j_ta]
            step = gradient.take(row, axis=1) * ta
            tb_lo, tb_hi = _widen(*_extremes(out_low.take(row, axis=1),
                                             out_high.take(row, axis=1), step))
            start = np.searchsorted(t_grid, tb_lo, "left")
            stop = np.searchsorted(t_grid, tb_hi, "right")
            tb_lo, tb_hi = _widen(*_extremes(in_low.take(row, axis=1),
                                             in_high.take(row, axis=1), step), -_MARGIN)
            sure_start = np.clip(np.searchsorted(t_grid, tb_lo, "left"), start, stop)
            sure_stop = np.clip(np.searchsorted(t_grid, tb_hi, "right"), sure_start, stop)
            counts += np.bincount(slot[row], sure_stop - sure_start,
                                  len(counts)).astype(np.int64)
            # the T_B on either side of the sure range
            for edge, j_tb in _pieces(np.concatenate([start, sure_stop]),
                                      np.concatenate([sure_start, stop])):
                edge %= len(row)
                setting = row[edge]
                found = _block_keys(ra[setting], ta[edge], rb[setting], t_grid[j_tb],
                                    bandwidth_hz, k, rel_width, p_scale,
                                    drop_outside=True) == keys[cell[setting]]
                counts += np.bincount(slot[setting][found], minlength=len(counts))
    return counts.reshape(-1, 3)


def cell_census(r_grid: np.ndarray, t_grid: np.ndarray, bandwidth_hz: float,
                constants: PhysicalConstants, rel_cell_width: float,
                r_a, t_a, r_b, t_b) -> tuple[np.ndarray, np.ndarray]:
    """(singular flag, cell size) of each drawn grid setting's cell, as
    `build_table` over the same grids gives them, without enumerating
    the grids, which must be strictly ascending.  Settings are
    equal-length arrays of grid values."""
    r_grid = np.asarray(r_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    drawn = [np.asarray(v, dtype=float) for v in (r_a, t_a, r_b, t_b)]
    if not len(drawn[0]):
        return np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
    k = constants.k
    p_scale = _power_scale(r_grid, t_grid, bandwidth_hz, k)
    cells, drawn_cell = np.unique(
        _block_keys(*drawn, bandwidth_hz, k, rel_cell_width, p_scale),
        return_inverse=True)
    chunk = max(1, _CENSUS_PIECE // len(r_grid))
    counts = np.concatenate(_run_parts(
        _pool_width(), range(0, len(cells), chunk),
        lambda p, start: _member_counts(r_grid, t_grid, bandwidth_hz, k, rel_cell_width,
                                        p_scale, cells[start:start + chunk])))
    singular = (counts > 0).sum(axis=1) == 1
    return singular[drawn_cell], counts.sum(axis=1)[drawn_cell]


@dataclass
class LookupTable:
    """Quantized observable triples -> generating settings, with
    per-cell singularity flags."""

    r_grid: np.ndarray
    t_grid: np.ndarray
    rel_cell_width: float
    bandwidth_hz: float
    k: float
    p_scale: float
    cell_keys: np.ndarray          # sorted unique packed keys
    cell_singular: np.ndarray      # bool, aligned with cell_keys
    cell_sizes: np.ndarray         # int64, aligned with cell_keys

    @property
    def n_settings(self) -> int:
        return (len(self.r_grid) * len(self.t_grid)) ** 2

    @property
    def n_cells(self) -> int:
        return len(self.cell_keys)

    def singular_fraction(self) -> float:
        """Fraction of enumerated settings falling in singular cells."""
        return float(self.cell_sizes[self.cell_singular].sum() / self.n_settings)

    @cached_property
    def combo_cells(self) -> np.ndarray:
        """Cell index per enumerated setting (row-major over
        (r_a, t_a, r_b, t_b) grid levels), computed on first use in
        blocks of Alice settings, a column against Bob's row."""
        r_party = np.repeat(self.r_grid, len(self.t_grid))
        t_party = np.tile(self.t_grid, len(self.r_grid))
        rows = max(1, _BLOCK_SETTINGS // len(r_party))
        return np.concatenate([
            self.cell_indices(r_party[start:start + rows, np.newaxis],
                              t_party[start:start + rows, np.newaxis], r_party, t_party)
            for start in range(0, len(r_party), rows)])

    def cell_indices(self, r_a, t_a, r_b, t_b) -> np.ndarray:
        """Cell index per setting of broadcastable arrays of grid values,
        flat in row-major order."""
        keys = _block_keys(r_a, t_a, r_b, t_b, self.bandwidth_hz, self.k,
                           self.rel_cell_width, self.p_scale)
        pos = np.searchsorted(self.cell_keys, keys)
        found = self.cell_keys[np.minimum(pos, self.n_cells - 1)] == keys
        if not found.all():
            j = np.argmin(found)
            setting = ", ".join(str(float(v.flat[j]))
                                for v in np.broadcast_arrays(r_a, t_a, r_b, t_b))
            raise KeyError(f"setting ({setting}) maps to no enumerated cell; "
                           f"is it on the configured grids?")
        return pos

    def all_cell_members(self) -> list[np.ndarray]:
        """Indices of the enumerated settings in each cell (row-major over
        (r_a, t_a, r_b, t_b) grid levels), in cell order, from one sort."""
        order = np.argsort(self.combo_cells, kind="stable")
        return np.split(order, np.cumsum(self.cell_sizes)[:-1])


def _pair_blocks(r_grid: np.ndarray, t_grid: np.ndarray, bandwidth_hz: float,
                 k: float, width: int = 1):
    """Yield (r_a, t_a, r_b, t_b, mirrored, bit) per block of resistance
    pairs, each pair with all its (T_A, T_B), broadcasting to the block's
    settings in row-major (pair, t_a, t_b) order; `width` blocks in
    flight hold about _BLOCK_SETTINGS settings in all.  On the strictly
    ascending grid every block holds one bit value sign(R_B - R_A): pairs
    R_A < R_B whose power prefactor is symmetric come once, in `mirrored`
    blocks (+1); then the diagonal (0), the other pairs R_A < R_B (+1)
    and those pairs reversed (-1).  Each group's pairs come in stable order
    of R_A + R_B, which sets s_i, so a block's cells recur little in
    other blocks."""
    j_a, j_b = np.triu_indices(len(r_grid), 1)
    r_a, r_b = r_grid[j_a], r_grid[j_b]
    symmetric = (power_prefactor(r_a, r_b, bandwidth_hz, k)
                 == power_prefactor(r_b, r_a, bandwidth_hz, k))
    diagonal = np.arange(len(r_grid))
    rest_a, rest_b = j_a[~symmetric], j_b[~symmetric]
    groups = ((j_a[symmetric], j_b[symmetric], True, 1), (diagonal, diagonal, False, 0),
              (rest_a, rest_b, False, 1), (rest_b, rest_a, False, -1))
    rows = max(1, _BLOCK_SETTINGS // width // len(t_grid) ** 2)
    for a, b, mirrored, bit in groups:
        order = np.argsort(r_grid[a] + r_grid[b], kind="stable")
        a, b = a[order], b[order]
        for start in range(0, len(a), rows):
            yield (r_grid[a[start:start + rows], np.newaxis, np.newaxis],
                   t_grid[:, np.newaxis],
                   r_grid[b[start:start + rows], np.newaxis, np.newaxis],
                   t_grid, mirrored, bit)


def _image(keys: np.ndarray, counts: np.ndarray, bit: int):
    """The A<->B mirror image (keys, counts, bit) of a sorted refined
    run: the mirror (-n - e, e) of the low bits r = 2 (n + 2^20) + e is
    2^22 - r, falling with r, so each (s_u, s_i) group is taken in
    reverse and the image is sorted too; the bit is negated."""
    group = keys >> _LOW_BITS
    ends = np.append(np.flatnonzero(group[1:] != group[:-1]) + 1, len(keys))
    sizes = np.diff(ends, prepend=0)
    order = np.repeat(2 * ends - sizes - 1, sizes) - np.arange(len(keys))
    image = keys[order]
    low = image & ((1 << _LOW_BITS) - 1)
    image -= low
    image += (1 << _LOW_BITS) - low
    return image, counts[order], -bit


def _fold(runs: list):
    """Coarse cells (keys, sizes, masks) of the sorted refined (key,
    count, mirrored, bit) runs, the mirrored ones with their mirror
    images added; a cell's mask has bit 1 + b set for each bit value b
    among its settings.  Every run is cut at the same starts of (s_u,
    s_i) groups, one at every _FOLD_CELLS-th key of each run, so a slab
    takes up to about _FOLD_CELLS keys from each run; one `_run_parts`
    pass folds the slabs.  The fold empties `runs`, so the runs are
    freed before the slabs' cells are concatenated in slab order."""
    # sorted in place and deduplicated by hand: np.unique would import numpy.ma
    cuts = np.concatenate([keys[_FOLD_CELLS::_FOLD_CELLS] for keys, *_ in runs])
    cuts >>= _LOW_BITS
    cuts <<= _LOW_BITS
    cuts.sort()
    cuts = cuts[_starts(cuts, np.empty(len(cuts), dtype=bool))]
    edges = np.array([np.concatenate(([0], np.searchsorted(keys, cuts), [len(keys)]))
                      for keys, *_ in runs])

    def fold(p, slab):
        slices = [(keys[lo:hi], counts[lo:hi], bit) for (keys, counts, _, bit), lo, hi
                  in zip(runs, edges[:, slab], edges[:, slab + 1])]
        slices += [_image(*piece) for piece, (_, _, mirrored, _) in zip(slices, runs)
                   if mirrored]
        keys, counts, bits = zip(*slices)
        masks = np.repeat(np.array([1 << (1 + bit) for bit in bits], dtype=np.int8),
                          [len(piece) for piece in keys])
        return _group(np.concatenate(keys) >> 1, np.concatenate(counts), masks)

    slabs = _run_parts(_pool_width(), range(len(cuts) + 1), fold)
    runs.clear()
    return [np.concatenate(column) for column in zip(*slabs)]


def _pool_width() -> int:
    """The CPUs this process may run on: the most parts a `_run_parts`
    pass runs on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _run_parts(width: int, items, task) -> list:
    """``[task(p, item) for item in items]`` on up to `width` parts, one
    per item at most: part p takes items p, p + width, ..., keeping any
    per-part state of its own under index p; part 0 runs on the calling
    thread, each other on a helper thread.  A part runs no item after its
    first failing one, and once every helper is joined the first failing
    part's error is raised, in part order."""
    width = max(1, min(width, len(items)))
    results, errors = [None] * len(items), [None] * width

    def run(p):
        try:
            for i in range(p, len(items), width):
                results[i] = task(p, items[i])
        except Exception as exc:  # raised on the calling thread, in part order
            errors[p] = exc

    helpers = []
    try:
        for p in range(1, width):
            helper = threading.Thread(target=run, args=(p,))
            helper.start()
            helpers.append(helper)
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    for error in filter(None, errors):
        raise error
    return results


def _run(keys: np.ndarray, first: np.ndarray):
    """(distinct keys, int32 counts) of sorted keys; `first` is the
    scratch of `_starts`."""
    starts = _starts(keys, first)
    # int32 straight away: np.diff's int64 copies raised the peak by 3 MB
    counts = np.empty(len(starts), dtype=np.int32)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1], casting="unsafe")
    counts[-1] = len(keys) - starts[-1]
    return keys[starts], counts


def build_table(r_grid: np.ndarray, t_grid: np.ndarray, bandwidth_hz: float,
                constants: PhysicalConstants, rel_cell_width: float,
                max_combinations: int = DEFAULT_MAX_COMBINATIONS) -> LookupTable:
    """Enumerate all joint settings of the strictly ascending grids and
    group them into quantized cells of relative width `rel_cell_width`
    (> 0)."""
    r_grid = np.asarray(r_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    n_party = len(r_grid) * len(t_grid)
    n_combos = n_party * n_party
    if n_combos > max_combinations:
        raise GridTooLarge(
            f"grid enumeration needs {n_combos} setting pairs, over the "
            f"budget of {max_combinations}", required=n_combos,
            budget=max_combinations)

    k = constants.k
    p_scale = _power_scale(r_grid, t_grid, bandwidth_hz, k)

    # part p keys its blocks in buffer set p and cuts each into a
    # (refined key, count, mirrored, bit) run
    width = max(1, min(_pool_width(), _BLOCK_SETTINGS // _MIN_BLOCK_SETTINGS))
    blocks = list(_pair_blocks(r_grid, t_grid, bandwidth_hz, k, width))
    size = max(len(block[0]) for block in blocks) * len(t_grid) ** 2
    buffers = [(np.empty(size), np.empty(size), np.empty(size), np.empty(size, dtype=bool))
               for _ in range(min(width, len(blocks)))]

    def cut(p, block):  # keys in s_u's storage; numpy's sort releases the GIL
        r_a, t_a, r_b, t_b, mirrored, bit = block
        shape = np.broadcast_shapes(r_a.shape, t_a.shape, r_b.shape, t_b.shape)
        keys = _block_keys(
            r_a, t_a, r_b, t_b, bandwidth_hz, k, rel_cell_width, p_scale,
            refine=True, mirrored=mirrored,
            out=[column[:math.prod(shape)].reshape(shape) for column in buffers[p]])
        keys.sort()
        return (*_run(keys, buffers[p][3]), mirrored, bit)

    runs = _run_parts(width, blocks, cut)
    del buffers
    cell_keys, cell_sizes, cell_masks = _fold(runs)

    return LookupTable(r_grid=r_grid, t_grid=t_grid,
                       rel_cell_width=rel_cell_width,
                       bandwidth_hz=bandwidth_hz, k=k,
                       p_scale=p_scale, cell_keys=cell_keys.view(np.int64),
                       cell_singular=(cell_masks & (cell_masks - 1)) == 0,
                       cell_sizes=cell_sizes)
