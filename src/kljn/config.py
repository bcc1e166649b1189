"""Experiment configuration files.

Flat JSON with a strict schema: unknown keys are rejected so a typo in
an experiment file fails loudly instead of silently running defaults.
All randomness flows from `master_seed`, recorded in every output.

Documented schema (types; V = required for that variant):

    variant              str    one of classic-kljn | vmg-kljn | rr-kljn | rrrt-kljn
    bits                 int    number of bit periods
    master_seed          int    session seed (CLI --seed overrides)
    mode                 str    "analytic" (default) or "sampled"
    bandwidth_hz         float  noise bandwidth
    sample_rate_hz       float  >= 2 * bandwidth_hz
    samples_per_bit      int    trace length per bit (sampled mode)
    r_low, r_high        float  classic resistor pair           (classic)
    vmg_resistors        [4]    r_al, r_ah, r_bl, r_bh          (vmg)
    t_eff                float  common temperature / T_AL       (classic, vmg, rr)
    r_range              [2]    resistance range                (rr, rrrt)
    r_levels             int    resistance grid size            (rr, rrrt)
    t_range              [2]    temperature range               (rrrt)
    t_levels             int    temperature grid size           (rrrt)
    degeneracy_tolerance float  cell width of rrrt sessions and `kljn table` (> 0, default 0.01)
    recovery_tolerance   float  resolver residual bound (default per mode)
    estimator_segments   int    periodogram segments in sampled mode
    max_combinations     int    `kljn table` enumeration budget (>= 1)
    normalized_units     bool   k = 1 instead of the SI Boltzmann constant
    eve_strategy         str    nearest-class (default) | random
    eve_grid_points      int    assumed-R_A sweep size for rrrt attacks (>= 1)
    family_tolerance     float  family-membership residual bound (> 0, finite)
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from .adversary import STRATEGIES
from .errors import ConfigError
from .physics import NORMALIZED, SI, BandConfig
from .protocol import ProtocolConfig

_PROTOCOL_KEYS = {
    "variant": str,
    "bits": int,
    "master_seed": int,
    "mode": str,
    "r_low": (int, float),
    "r_high": (int, float),
    "vmg_resistors": list,
    "t_eff": (int, float),
    "r_range": list,
    "r_levels": int,
    "t_range": list,
    "t_levels": int,
    "degeneracy_tolerance": (int, float),
    "recovery_tolerance": (int, float),
    "estimator_segments": int,
    "max_combinations": int,
}

_BAND_KEYS = {
    "bandwidth_hz": (int, float),
    "sample_rate_hz": (int, float),
    "samples_per_bit": int,
}

_EXTRA_KEYS = {
    "normalized_units": bool,
    "eve_strategy": str,
    "eve_grid_points": int,
    "family_tolerance": (int, float),
}

_REQUIRED = ("variant", "bits", "master_seed", "bandwidth_hz",
             "sample_rate_hz", "samples_per_bit")


def load_config(path) -> tuple[ProtocolConfig, dict]:
    """Load and validate an experiment file.

    Returns the protocol configuration plus the extra (CLI-level) keys.
    Raises ConfigError with the offending key or field for any problem.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")

    known = {**_PROTOCOL_KEYS, **_BAND_KEYS, **_EXTRA_KEYS}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"{path}: unknown key {key!r}")
        expected = known[key]
        # bool is an int subclass in Python; keep them apart in configs
        if isinstance(value, bool) and expected is not bool:
            raise ConfigError(f"{path}: key {key!r} has wrong type bool")
        if not isinstance(value, expected):
            raise ConfigError(
                f"{path}: key {key!r} has wrong type {type(value).__name__}")
        # a JSON integer is read exactly; one past the float range would
        # overflow where the key's value is taken as a float
        if expected is not int and any(type(number) is int and abs(number) > sys.float_info.max
                                       for number in (value if expected is list else [value])):
            raise ConfigError(f"{path}: key {key!r} holds an integer past the float range")
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")

    try:
        band = BandConfig(bandwidth_hz=float(raw["bandwidth_hz"]),
                          sample_rate_hz=float(raw["sample_rate_hz"]),
                          samples_per_bit=raw["samples_per_bit"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    kwargs = {}
    for key in _PROTOCOL_KEYS:
        if key in raw and key not in ("variant", "bits", "master_seed", "mode"):
            kwargs[key] = raw[key]
    for tuple_key in ("vmg_resistors", "r_range", "t_range"):
        if tuple_key in kwargs:  # JSON integers as floats; `validate` refuses non-numbers
            kwargs[tuple_key] = tuple(float(v) if type(v) is int else v
                                      for v in kwargs[tuple_key])

    constants = NORMALIZED if raw.get("normalized_units") else SI
    try:
        config = ProtocolConfig(variant=raw["variant"], band=band,
                                bits=raw["bits"], master_seed=raw["master_seed"],
                                mode=raw.get("mode", "analytic"),
                                constants=constants, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    extras = {key: raw[key] for key in _EXTRA_KEYS if key in raw}
    if "eve_strategy" in extras and extras["eve_strategy"] not in STRATEGIES:
        raise ConfigError(f"{path}: eve_strategy must be one of {STRATEGIES}, "
                          f"got {extras['eve_strategy']!r}")
    if "eve_grid_points" in extras and extras["eve_grid_points"] < 1:
        raise ConfigError(f"{path}: eve_grid_points must be >= 1, "
                          f"got {extras['eve_grid_points']}")
    tolerance = extras.get("family_tolerance")
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0):
        raise ConfigError(f"{path}: family_tolerance must be positive and "
                          f"finite, got {tolerance}")
    return config, extras
