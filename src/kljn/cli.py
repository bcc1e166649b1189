"""Command-line harness: the toolkit's only human interface.

Subcommands:

    simulate   run a key-exchange session, write the per-bit CSV,
               print efficiency and Eve's guess accuracy
    attack     replay a session from Eve's side: guess record plus,
               per secure bit, the solution-family sweep (random
               temperature), the nearest class (four-resistor) or the
               extracted resistor pair (equal temperature); empty cells
               for a bit Eve's model cannot fit
    vmg-solve  print the temperature triple matching the LH and HL wire
               triples for a four-resistor configuration
    table      build and dump the singularity look-up table

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
Every command is deterministic given (config file, --seed).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .adversary import (
    default_assumed_grid,
    eve_guess_session,
    eve_nearest_classes,
    eve_pair_extractions,
    eve_rrrt_solution_families,
)
from .config import load_config
from .errors import ConfigError, GridTooLarge, KljnError
from .protocol import (
    STATUS_SECURE,
    STATUS_TIE,
    ProtocolConfig,
    build_lookup_table,
    run_session,
)
from .report import _cells, write_csv
from .resolver import vmg_matching_residual

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _say(args, *message):
    if not args.quiet:
        print(*message)


def _load(args) -> tuple[ProtocolConfig, dict]:
    """The config with its --seed override; a --out into a directory
    that does not exist fails here, before any work."""
    config, extras = load_config(args.config)
    if args.out and not os.path.isdir(os.path.dirname(args.out) or os.curdir):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    return config, extras


_SESSION_COLUMNS = [
    "index", "variant", "alice_r", "alice_t", "bob_r", "bob_t",
    "s_u", "s_i", "p_ab", "status", "alice_bit", "bob_bit",
    "shared_key_bit", "eve_guess", "eve_correct",
]


def _state_columns(draws):
    """The (resistance, temperature) text columns of the drawn states
    `draws`, each distinct state object formatted once as csv.writer
    formats its values (an integer config value stays ``1000``)."""
    _, first, inverse = np.unique(np.fromiter(map(id, draws), np.intp, len(draws)),
                                  return_index=True, return_inverse=True)
    texts = np.array([(str(draws[j].resistance), str(draws[j].temperature))
                      for j in first.tolist()], dtype=object).reshape(-1, 2)
    return texts[inverse].T


def _session_columns(report, guesses):
    """The per-bit columns of a session; the key and Eve's cells only on
    secure bits."""
    secure, tie = report.secure, report.status == STATUS_TIE
    bits = np.full((3, report.total_bits), None, dtype=object)
    bits[:, secure] = np.array(["0", "1"], dtype=object)[np.array(
        [report.high[1][secure], guesses.guesses,
         np.equal(guesses.guesses, guesses.truths)], dtype=int)]
    return (np.array(report.indices, dtype=np.int64), [report.variant] * report.total_bits,
            *(column for draws in report.draws for column in _state_columns(draws)),
            *report.observables, report.status.tolist(),
            *(np.where(tie, None, np.where(high, "H", "L")) for high in report.high),
            *bits)


def cmd_simulate(args) -> int:
    config, extras = _load(args)
    report = run_session(config)
    guesses = eve_guess_session(config, extras.get("eve_strategy", "nearest-class"), report)
    counts = report.counts
    if args.out:
        summary = {
            "schema": "kljn-csv-1",
            "variant": config.variant,
            "mode": config.mode,
            "master_seed": config.master_seed,
            "total_bits": report.total_bits,
            "secure_bits": counts.get(STATUS_SECURE, 0),
            "efficiency": report.efficiency,
            **{f"count_{status}": count for status, count in sorted(counts.items())},
            "eve_strategy": guesses.strategy,
            "eve_accuracy": guesses.accuracy,
        }
        interval = guesses.wilson_interval()
        if interval:
            summary["eve_wilson99_low"], summary["eve_wilson99_high"] = interval
        write_csv(_SESSION_COLUMNS, _session_columns(report, guesses), summary, args.out)
    efficiency = "n/a" if report.efficiency is None else f"{report.efficiency:.4f}"
    accuracy = "n/a" if guesses.accuracy is None else f"{guesses.accuracy:.4f}"
    _say(args, f"variant={config.variant} bits={config.bits} "
               f"secure={counts.get(STATUS_SECURE, 0)} "
               f"efficiency={efficiency} eve[{guesses.strategy}]={accuracy}")
    return EXIT_OK


_FAMILY_COLUMNS = ["index", "assumed_r_a", "implied_t_a", "implied_alpha",
                   "implied_beta", "implied_alice_bit", "residual"]
_CLASS_COLUMNS = ["index", "eve_class"]
_PAIR_COLUMNS = ["index", "r_pair_low", "r_pair_high", "degenerate"]


def _with_empty_cells(fields, fitted):
    """The columns `fields` of the rows where `fitted` holds, spread over
    all rows with empty cells in the others; `fields` as they are when
    every row is fitted."""
    if fitted.all():
        return list(fields)
    cells = np.full((len(fields), len(fitted)), None, dtype=object)
    cells[:, fitted] = [_cells(values) for values in fields]
    return list(cells)


def _attack_rows(config: ProtocolConfig, extras: dict, indices, observables):
    """(columns, rows) of Eve's analysis of the secure bits `indices`,
    whose (s_u, s_i, p_ab) columns are `observables`; the rows come as a
    tuple of columns, from one array pass over all bits.

    Eve's public model is built once per session: the assumed-R_A grid
    of the family sweep (random temperatures), the class centres
    (four-resistor scheme, whose unequal temperatures rule out the
    equal-temperature pair model) or the pair model's tolerance (equal
    temperatures).  A bit the model cannot fit gets one row of its
    index with empty cells.
    """
    indices = np.array(indices, dtype=np.int64)
    if config.variant == "rrrt-kljn":
        triple, *fields = eve_rrrt_solution_families(
            observables, config.band.bandwidth_hz,
            default_assumed_grid(config, extras.get("eve_grid_points", 10)),
            extras.get("family_tolerance", 1e-9), config.constants)
        alpha = fields[2]
        fields.insert(4, np.where(alpha == 1.0, None, np.where(alpha > 1.0, "L", "H")))
        sizes = np.bincount(triple, minlength=len(indices))
        owner = np.repeat(np.arange(len(indices)), np.maximum(sizes, 1))
        return _FAMILY_COLUMNS, (indices[owner], *_with_empty_cells(fields, sizes[owner] > 0))
    if config.variant == "vmg-kljn":  # every triple has a nearest class
        return _CLASS_COLUMNS, (indices, eve_nearest_classes(config, observables))
    *pair, failure = eve_pair_extractions(
        observables, config.band.bandwidth_hz, config.t_eff, config.constants,
        config.effective_recovery_tolerance())
    fitted = failure == 0
    return _PAIR_COLUMNS, (indices, *_with_empty_cells([values[fitted] for values in pair],
                                                       fitted))


def cmd_attack(args) -> int:
    config, extras = _load(args)
    report = run_session(config)
    guesses = eve_guess_session(config, extras.get("eve_strategy", "nearest-class"), report)
    columns, rows = _attack_rows(config, extras, guesses.bit_indices,
                                 [column[report.secure] for column in report.observables])
    summary = {
        "schema": "kljn-attack-csv-1",
        "variant": config.variant,
        "master_seed": config.master_seed,
        "eve_strategy": guesses.strategy,
        "secure_bits": guesses.n,
        "eve_accuracy": guesses.accuracy,
    }
    interval = guesses.wilson_interval()
    if interval:
        summary["eve_wilson99_low"], summary["eve_wilson99_high"] = interval
    if args.out:
        write_csv(columns, rows, summary, args.out)
    accuracy = "n/a" if guesses.accuracy is None else f"{guesses.accuracy:.4f}"
    _say(args, f"variant={config.variant} secure={guesses.n} "
               f"eve[{guesses.strategy}]={accuracy} table_rows={len(rows[0])}")
    return EXIT_OK


def cmd_vmg_solve(args) -> int:
    config, _ = _load(args)
    if config.variant != "vmg-kljn":
        raise ConfigError("vmg-solve needs a vmg-kljn configuration")
    temps = config.vmg_temperatures()
    residual = vmg_matching_residual(*config.vmg_resistors, config.t_eff,
                                     temps, config.constants)
    _say(args, f"t_al={config.t_eff!r} t_ah={temps.t_ah!r} "
               f"t_bl={temps.t_bl!r} t_bh={temps.t_bh!r}")
    _say(args, f"lh_hl_max_relative_mismatch={residual!r}")
    if args.out:
        write_csv(["t_al", "t_ah", "t_bl", "t_bh", "residual"],
                  tuple(np.array([value], dtype=float) for value in (
                      config.t_eff, temps.t_ah, temps.t_bl, temps.t_bh, residual)),
                  {"schema": "kljn-vmg-csv-1"}, args.out)
    return EXIT_OK


_MEMBER_DUMP_LIMIT = 100_000  # settings; above this, membership lists are omitted


def cmd_table(args) -> int:
    config, _ = _load(args)
    table = build_lookup_table(config)
    fraction = table.singular_fraction()
    if args.out:
        with_members = table.n_settings <= _MEMBER_DUMP_LIMIT
        columns = ["cell", "size", "singular"] + (["members"] if with_members else [])
        rows = (np.arange(table.n_cells, dtype=np.min_scalar_type(table.n_cells)),
                table.cell_sizes, table.cell_singular)
        if with_members:
            rows += ([";".join(map(str, members)) for members in table.all_cell_members()],)
        summary = {
            "schema": "kljn-table-csv-1",
            "variant": config.variant,
            "settings": table.n_settings,
            "cells": table.n_cells,
            "cell_width": config.degeneracy_tolerance,
            "singular_fraction": fraction,
        }
        write_csv(columns, rows, summary, args.out)
    _say(args, f"settings={table.n_settings} cells={table.n_cells} "
               f"singular_fraction={fraction:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kljn",
        description="Thermal-noise key-exchange simulation and analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
            ("simulate", cmd_simulate, "run a key-exchange session"),
            ("attack", cmd_attack, "replay a session from the eavesdropper's side"),
            ("vmg-solve", cmd_vmg_solve, "solve the four-resistor temperature matching"),
            ("table", cmd_table, "build and dump the singularity look-up table")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment JSON file")
        cmd.add_argument("--out", default=None, help="output CSV path")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override master_seed from the config")
        cmd.add_argument("--quiet", action="store_true")
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GridTooLarge as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (KljnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
