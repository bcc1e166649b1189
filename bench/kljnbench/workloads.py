"""The benchmark's workloads: which `kljn` CLI commands one pass runs, on
which experiment configs.

Every config uses normalized units and the same band; only the variant,
the mode and the sizes change.  Each workload has a full size (what the
benchmark measures) and a tiny size (for the benchmark's own smoke
tests).  `default_seed` is the seed the reference digests were recorded
at.

Analytic and sampled sessions share one workload, so that each of the
two workloads can run for 40 seconds within the benchmark's total time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

_BAND = {"bandwidth_hz": 1.0, "sample_rate_hz": 4.0, "samples_per_bit": 4096,
         "normalized_units": True}

#: Subcommands that run a key-exchange session; their bits count
#: towards bits_per_s and secure_bits_per_s.
SESSION_SUBCOMMANDS = ("simulate", "attack")


@dataclass(frozen=True)
class Command:
    """One `kljn <subcommand> --config <label>.json --out <label>.csv` call."""

    subcommand: str
    label: str
    config: dict

    @property
    def runs_session(self) -> bool:
        return self.subcommand in SESSION_SUBCOMMANDS

    @property
    def seeded(self) -> bool:
        """Whether the output depends on --seed (the table does not)."""
        return self.subcommand != "table"

    @property
    def exact(self) -> bool:
        """Analytic outputs are bit-exact and compared against recorded
        digests; sampled outputs only get the invariant checks."""
        return self.config.get("mode", "analytic") == "analytic"

    @property
    def bits(self) -> int:
        return self.config["bits"] if self.runs_session else 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    commands: tuple[Command, ...]

    def config_hash(self) -> str:
        body = [(c.subcommand, c.label, c.config) for c in self.commands]
        return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _classic(bits, **extra):
    return {"variant": "classic-kljn", "bits": bits, "master_seed": 7,
            "r_low": 1000.0, "r_high": 2000.0, "t_eff": 300.0, **_BAND, **extra}


def _vmg(bits, **extra):
    return {"variant": "vmg-kljn", "bits": bits, "master_seed": 7,
            "vmg_resistors": [1000.0, 2000.0, 1200.0, 2500.0], "t_eff": 300.0,
            **_BAND, **extra}


def _rr(bits, levels, **extra):
    return {"variant": "rr-kljn", "bits": bits, "master_seed": 7,
            "r_range": [1000.0, 2000.0], "r_levels": levels, "t_eff": 300.0,
            **_BAND, **extra}


def _rrrt(bits, levels, **extra):
    return {"variant": "rrrt-kljn", "bits": bits, "master_seed": 108,
            "r_range": [1000.0, 2000.0], "r_levels": levels,
            "t_range": [200.0, 400.0], "t_levels": levels,
            "degeneracy_tolerance": 0.01, **_BAND, **extra}


def _sampled(samples_per_bit, segments):
    return {"mode": "sampled", "samples_per_bit": samples_per_bit,
            "estimator_segments": segments}


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """All workloads by name, at full or tiny size."""
    if tiny:
        classic_bits, vmg_bits, rr_bits, rr_levels = 300, 100, 100, 8
        table_levels, table_bits = 8, 60
        s_bits, s_rrrt_bits, s_levels, s_samples = 40, 20, 8, _sampled(1024, 16)
    else:
        # each session command takes about 0.15 s, so that a run makes
        # dozens of passes to take each command's median over
        classic_bits, vmg_bits, rr_bits, rr_levels = 1_500, 300, 800, 64
        table_levels, table_bits = 64, 1_000
        s_bits, s_rrrt_bits, s_levels, s_samples = 150, 200, 16, _sampled(4096, 64)
    rrrt_table = _rrrt(table_bits, table_levels, eve_grid_points=10)
    defined = (
        Workload(
            name="sessions",
            why="per-bit loops: analytic classic, vmg and 64-level rr, then "
                "sampled classic, vmg and 16-level rrrt; lookup only answers "
                "per-bit queries on small tables",
            default_seed=7,
            commands=(
                Command("simulate", "classic", _classic(classic_bits)),
                Command("simulate", "vmg", _vmg(vmg_bits)),
                Command("simulate", "rr", _rr(rr_bits, rr_levels)),
                Command("simulate", "sampled-classic",
                        _classic(s_bits, **s_samples)),
                Command("simulate", "sampled-vmg", _vmg(s_bits, **s_samples)),
                Command("simulate", "sampled-rrrt",
                        _rrrt(s_rrrt_bits, s_levels, **s_samples)),
            )),
        Workload(
            name="rrrt-table",
            why="two 64x64 rrrt table builds, the 871k-row table dump and Eve's "
                "family sweep dominate; per-bit work is negligible",
            default_seed=108,
            commands=(
                Command("table", "rrrt", rrrt_table),
                Command("attack", "rrrt", rrrt_table),
            )),
    )
    return {w.name: w for w in defined}
