"""Exhaustive setting enumeration and the singularity look-up table.

For quasi-continuum variants every joint setting (R_A-level, T_A-level,
R_B-level, T_B-level) maps to an analytic observable triple.  Triples
are quantized into cells of a positive relative width; a cell is
*singular* when all settings landing in it imply the same bit
assignment, so observing such a triple hands the bit to an
eavesdropper.  Secure operation requires the drawn setting's cell to be
degenerate (at least two opposite bit situations within one cell).  A
zero width would make every setting its own singular cell and discard
every bit, so configs reject it.

Tables for fine grids enumerate levels^4 settings, so the build
streams them: it walks the Alice settings in blocks of about 2^20 joint
settings, quantizes each block's observables into packed integer cell
keys in place (the same IEEE operations as with a fresh array per
step) and folds the block into running (key, count, bit mask) cells.
The build is a two-stage pipeline: one worker thread sorts block i into
a run per bit value while the calling thread merges block i-1's runs
into the cells and computes block i+1's keys.  Blocks are merged in
order with at most one in flight, so working memory is bounded by the
block size and the number of cells rather than by levels^4.  The worker
runs only this module's private sort and numpy, which releases the GIL
in its sorts; every public function, the too-narrow-width `ConfigError`
included, stays on the calling thread, so a tracer that wraps public
functions sees one call stack.  A failed sort is re-raised on the
calling thread after the worker is joined.  Per-setting arrays
(`combo_cells`, `combo_bits`) exist only on demand: the same block pass
recomputes them when they are first asked for.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, GridTooLarge
from .physics import PhysicalConstants, analytic_observable_arrays

#: Default enumeration budget: settings pairs, not bytes.  64-level
#: resistance and temperature grids need 64^4 ~ 1.7e7 pairs.
DEFAULT_MAX_COMBINATIONS = 40_000_000

_KEY_BITS = 21
_KEY_OFFSET = 1 << (_KEY_BITS - 1)

#: Joint settings per block of the enumeration pass; the per-setting
#: working arrays of the build never hold more than one block.
_BLOCK_SETTINGS = 1 << 20


def _blocks(r_grid: np.ndarray, t_grid: np.ndarray):
    """Yield (r_a, t_a, r_b, t_b) per block of Alice settings.  Alice's
    values are columns and Bob's are rows, so the four arrays broadcast
    to the block's settings in row-major (r_a, t_a, r_b, t_b) order."""
    r_party = np.repeat(r_grid, len(t_grid))
    t_party = np.tile(t_grid, len(r_grid))
    n_party = len(r_party)
    r_b, t_b = r_party[np.newaxis, :], t_party[np.newaxis, :]
    rows = max(1, _BLOCK_SETTINGS // n_party)
    for start in range(0, n_party, rows):
        alice = slice(start, start + rows)
        yield r_party[alice, np.newaxis], t_party[alice, np.newaxis], r_b, t_b


def _block_keys(r_a, t_a, r_b, t_b, bandwidth_hz: float, k: float,
                rel_width: float, p_scale: float) -> np.ndarray:
    """Flat cell keys of broadcast settings: log-spaced cells of relative
    width `rel_width` for the PSDs, linear cells of width rel_width *
    p_scale for the (sign-changing) power, their offset indices packed
    high to low as (s_u, s_i, p).  The arithmetic runs in place on the
    observable arrays, and the indices pass through one int64 buffer:
    s_u's storage, once s_u is cast into the keys."""
    s_u, s_i, p = (column.ravel() for column in analytic_observable_arrays(
        r_a, t_a, r_b, t_b, bandwidth_hz, k))
    log_width = np.log1p(rel_width)
    for values in (s_u, s_i):
        np.log(values, out=values)
        np.divide(values, log_width, out=values)
        np.floor(values, out=values)
    if p_scale <= 0.0:
        p.fill(0.0)
    else:
        np.divide(p, rel_width * p_scale, out=p)
        np.floor(p, out=p)
    keys = np.empty(len(s_u), dtype=np.int64)
    index = s_u.view(np.int64)
    for values, out in ((s_u, keys), (s_i, index), (p, index)):
        np.copyto(out, values, casting="unsafe")
        out += _KEY_OFFSET
        if out.min() < 0 or out.max() >= (1 << _KEY_BITS):
            raise ConfigError(
                f"cell width {rel_width!r} is too narrow: quantization "
                f"indices leave the {_KEY_BITS}-bit key range; increase "
                f"degeneracy_tolerance")
        if out is index:
            keys <<= _KEY_BITS
            keys |= index
    return keys


def _block_bits(r_a, r_b) -> np.ndarray:
    """sign(R_B - R_A) per broadcast setting: -1/0/+1."""
    return np.sign(r_b - r_a).astype(np.int8).ravel()


def _bit_runs(keys: np.ndarray, bits: np.ndarray) -> list:
    """A block's sorted (key, count, mask) runs, one per bit value
    sign(R_B - R_A), with mask bit 1 + bit."""
    runs = []
    for bit in (-1, 0, 1):
        run_keys, run_counts = np.unique(keys[bits == bit], return_counts=True)
        runs.append((run_keys, run_counts,
                     np.full(len(run_keys), 1 << (bit + 1), dtype=np.int8)))
    return runs


def _group(keys: np.ndarray, counts: np.ndarray, masks: np.ndarray):
    """Sorted unique keys with the summed counts and OR-ed bit masks of
    their entries.  The inputs are concatenated sorted runs, which the
    stable sort merges run by run instead of sorting afresh."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return (keys[starts], np.add.reduceat(counts[order], starts),
            np.bitwise_or.reduceat(masks[order], starts))


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
        (r_a, t_a, r_b, t_b) grid levels), computed on first use."""
        return np.concatenate([
            np.searchsorted(self.cell_keys, _block_keys(
                r_a, t_a, r_b, t_b, self.bandwidth_hz, self.k,
                self.rel_cell_width, self.p_scale))
            for r_a, t_a, r_b, t_b in _blocks(self.r_grid, self.t_grid)])

    @cached_property
    def combo_bits(self) -> np.ndarray:
        """sign(R_B - R_A) per enumerated setting: -1/0/+1, computed on
        first use."""
        return np.concatenate([
            _block_bits(r_a, r_b)
            for r_a, _, r_b, _ in _blocks(self.r_grid, self.t_grid)])

    def cell_indices(self, r_a, t_a, r_b, t_b) -> np.ndarray:
        """Cell index per drawn setting (equal-length arrays on the grids)."""
        r_a, t_a, r_b, t_b = (np.asarray(v, dtype=float) for v in (r_a, t_a, r_b, t_b))
        keys = _block_keys(r_a, t_a, r_b, t_b, self.bandwidth_hz, self.k,
                           self.rel_cell_width, self.p_scale)
        pos = np.searchsorted(self.cell_keys, keys)
        found = self.cell_keys[np.minimum(pos, self.n_cells - 1)] == keys
        if not found.all():
            j = np.argmin(found)
            raise KeyError(f"setting ({r_a[j]}, {t_a[j]}, {r_b[j]}, {t_b[j]}) maps to no "
                           f"enumerated cell; is it on the configured grids?")
        return pos

    def cell_members(self, cell_index: int) -> np.ndarray:
        """Indices of enumerated settings in a cell (row-major over
        (r_a, t_a, r_b, t_b) grid levels)."""
        return np.flatnonzero(self.combo_cells == cell_index)

    def all_cell_members(self) -> list[np.ndarray]:
        """`cell_members` of every cell, in cell order, from one sort."""
        order = np.argsort(self.combo_cells, kind="stable")
        return np.split(order, np.cumsum(self.cell_sizes)[:-1])

    def setting_values(self, member_index: int) -> tuple[float, float, float, float]:
        """(r_a, t_a, r_b, t_b) for an enumerated setting index."""
        n_t = len(self.t_grid)
        n_per_party = len(self.r_grid) * n_t
        a, b = divmod(member_index, n_per_party)
        return (float(self.r_grid[a // n_t]), float(self.t_grid[a % n_t]),
                float(self.r_grid[b // n_t]), float(self.t_grid[b % n_t]))


def build_table(r_grid: np.ndarray, t_grid: np.ndarray, bandwidth_hz: float,
                constants: PhysicalConstants, rel_cell_width: float,
                max_combinations: int = DEFAULT_MAX_COMBINATIONS) -> LookupTable:
    """Enumerate all joint settings and group them into quantized cells
    of relative width `rel_cell_width` (> 0)."""
    r_grid = np.asarray(r_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    n_party = len(r_grid) * len(t_grid)
    n_combos = n_party * n_party
    if n_combos > max_combinations:
        raise GridTooLarge(
            f"grid enumeration needs {n_combos} setting pairs, over the "
            f"budget of {max_combinations}", required=n_combos,
            budget=max_combinations)

    # the power cells scale with max|p| over the grid.  For each
    # resistance pair |p| grows with |T_B - T_A|, and IEEE rounding is
    # monotone, so the largest |p| lies at the extreme temperatures
    p_scale = float(np.max(np.abs(analytic_observable_arrays(
        r_grid[:, np.newaxis], t_grid.min(), r_grid, t_grid.max(),
        bandwidth_hz, constants.k)[2])))

    # each block adds a sorted (key, count, mask) run per bit value to the
    # running cells; a cell is singular when its OR-ed mask has a single
    # bit set.  The worker sorts block i's runs while this thread merges
    # block i-1's and computes block i+1's keys.  The merge and every
    # release of a block stay on this thread: what the worker allocates
    # lands in a malloc arena of its own (glibc), which keeps memory once
    # freed, so the worker allocates only the runs
    cells = [np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
             np.empty(0, dtype=np.int8)]
    failures = []

    def sort_runs(keys, bits, runs):
        try:
            runs.extend(_bit_runs(keys, bits))
        except BaseException as exc:
            failures.append(exc)

    def merge(runs):
        if runs:  # the old cells and the runs are released before the sort
            columns = [np.concatenate(column) for column in zip(cells, *runs)]
            cells.clear()
            runs.clear()
            cells.extend(_group(*columns))

    worker, block, runs = None, None, []
    try:
        for r_a, t_a, r_b, t_b in _blocks(r_grid, t_grid):
            keys = _block_keys(r_a, t_a, r_b, t_b, bandwidth_hz, constants.k,
                               rel_cell_width, p_scale)
            bits = _block_bits(r_a, r_b)
            if worker is not None:
                worker.join()
            if failures:
                break
            sorted_runs, runs = runs, []
            block = keys, bits  # releases the block just sorted
            del keys, bits
            thread = threading.Thread(target=sort_runs, args=(*block, runs))
            thread.start()
            worker = thread
            merge(sorted_runs)
    finally:
        if worker is not None:
            worker.join()
    if failures:
        raise failures[0]
    del block
    merge(runs)
    cell_keys, cell_sizes, cell_masks = cells

    return LookupTable(r_grid=r_grid, t_grid=t_grid,
                       rel_cell_width=rel_cell_width,
                       bandwidth_hz=bandwidth_hz, k=constants.k,
                       p_scale=p_scale, cell_keys=cell_keys,
                       cell_singular=(cell_masks & (cell_masks - 1)) == 0,
                       cell_sizes=cell_sizes)
