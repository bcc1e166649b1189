"""Output checks run on every benchmark run.

Each function returns a list of problems (empty when the output is
correct).  The checks are:

* every CSV round-trips through `kljn.report.read_report` and
  `write_report` byte for byte;
* session invariants: one row per bit, status counts sum to the bits,
  efficiency equals secure / bits;
* table and attack invariants: cell sizes sum to the settings, the
  singular fraction matches the singular cells, one family per secure
  bit;
* the per-bit seed contract: `run_bit(config, i)` reproduces row i of
  a session in any order;
* digests of the bit-exact (analytic) outputs, compared against the
  reference recorded for the workload's default seed.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

SESSION_FIELDS = ("alice_r", "alice_t", "bob_r", "bob_t", "s_u", "s_i", "p_ab",
                  "status", "alice_bit", "bob_bit", "shared_key_bit")
FAMILY_FIELDS = ("assumed_r_a", "implied_t_a", "implied_alpha", "implied_beta",
                 "implied_alice_bit")


def round_trip(kljn_report, parsed, path: Path, copy: Path) -> list[str]:
    """`parsed` is `read_report(path)`; written back, the bytes must not
    change."""
    kljn_report.write_report(parsed, copy)
    same = copy.read_bytes() == path.read_bytes()
    copy.unlink()
    return [] if same else [f"{path.name}: does not round-trip through read_report"]


def session_invariants(report, bits: int) -> list[str]:
    problems = []
    summary = report.summary
    counts = {key[len("count_"):]: value for key, value in summary.items()
              if key.startswith("count_")}
    if len(report.rows) != bits or summary.get("total_bits") != bits:
        problems.append(f"{len(report.rows)} rows / total_bits "
                        f"{summary.get('total_bits')} for {bits} bits")
    if sum(counts.values()) != bits:
        problems.append(f"status counts {counts} do not sum to {bits}")
    row_counts: dict[str, int] = {}
    for row in report.rows:
        row_counts[row["status"]] = row_counts.get(row["status"], 0) + 1
    if row_counts != counts:
        problems.append(f"row statuses {row_counts} differ from summary {counts}")
    secure = counts.get("secure", 0)
    if summary.get("secure_bits") != secure:
        problems.append(f"secure_bits {summary.get('secure_bits')} != {secure}")
    if bits and summary.get("efficiency") != secure / bits:
        problems.append(f"efficiency {summary.get('efficiency')} != {secure}/{bits}")
    return problems


def table_invariants(report) -> list[str]:
    summary = report.summary
    sizes = [row["size"] for row in report.rows]
    singular = sum(row["size"] for row in report.rows if row["singular"])
    problems = []
    if summary.get("cells") != len(report.rows):
        problems.append(f"cells {summary.get('cells')} != {len(report.rows)} rows")
    if summary.get("settings") != sum(sizes):
        problems.append(f"cell sizes sum to {sum(sizes)}, not {summary.get('settings')}")
    fraction = summary.get("singular_fraction")
    if not (isinstance(fraction, float) and summary.get("settings")
            and math.isclose(fraction, singular / summary["settings"],
                             rel_tol=1e-12, abs_tol=1e-15)):
        problems.append(f"singular_fraction {fraction} != {singular}/"
                        f"{summary.get('settings')}")
    return problems


def attack_invariants(report) -> list[str]:
    indices = {row["index"] for row in report.rows}
    secure = report.summary.get("secure_bits")
    if secure != len(indices):
        return [f"{len(indices)} bits have a solution family, secure_bits is {secure}"]
    return []


def _digest(lines) -> str:
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def output_digest(subcommand: str, report) -> str:
    """Digest of the science in an output: per bit (status, key bit,
    observables) for sessions; cells and singular flags for tables;
    family points for attacks.  Eve's guesses and residuals are left
    out so that a change to scoring alone does not move it."""
    if subcommand == "simulate":
        fields = ("index", "status", "shared_key_bit", "s_u", "s_i", "p_ab")
    elif subcommand == "table":
        fields = ("cell", "size", "singular")
    else:
        fields = ("index",) + FAMILY_FIELDS
    lines = (",".join(_text(row[f]) for f in fields) for row in report.rows)
    header = [f"{key}={_text(report.summary.get(key))}"
              for key in ("total_bits", "secure_bits", "settings", "cells")]
    return _digest([*header, *lines])


def _session_row(outcome) -> dict:
    obs = outcome.observables
    return {"alice_r": outcome.alice_draw.resistance,
            "alice_t": outcome.alice_draw.temperature,
            "bob_r": outcome.bob_draw.resistance,
            "bob_t": outcome.bob_draw.temperature,
            "s_u": obs.s_u if obs else None, "s_i": obs.s_i if obs else None,
            "p_ab": obs.p_ab if obs else None, "status": outcome.status,
            "alice_bit": outcome.alice_bit, "bob_bit": outcome.bob_bit,
            "shared_key_bit": outcome.shared_key_bit}


def run_bit_matches_session(kljn, config, report, indices, table) -> list[str]:
    """Each sampled bit, run alone, equals its row of the session CSV."""
    problems = []
    for i in indices:
        outcome = kljn.protocol.run_bit(config, i, table=table)
        expected = {f: report.rows[i][f] for f in SESSION_FIELDS}
        got = _session_row(outcome)
        if got != expected:
            problems.append(f"run_bit({i}) gives {got}, session row {expected}")
    return problems


def run_bit_matches_attack(kljn, config, extras, report, indices, table) -> list[str]:
    """Each sampled bit, run alone, has the attack's family rows: none
    unless it is secure, else Eve's sweep of its observables."""
    adversary = kljn.adversary
    grid = adversary.default_assumed_grid(config, extras.get("eve_grid_points", 10))
    tolerance = extras.get("family_tolerance", 1e-9)
    problems = []
    for i in indices:
        outcome = kljn.protocol.run_bit(config, i, table=table)
        expected = [tuple(row[f] for f in FAMILY_FIELDS)
                    for row in report.rows if row["index"] == i]
        got = []
        if outcome.status == "secure":
            view = adversary.EveView(outcome.observables,
                                     config.band.bandwidth_hz, config)
            got = [(p.assumed_r_a, p.implied_t_a, p.implied_alpha,
                    p.implied_beta, p.implied_alice_bit())
                   for p in adversary.eve_rrrt_solution_family(
                       view, grid, tolerance, config.constants)]
        if got != expected:
            problems.append(f"run_bit({i}) family {got} != attack rows {expected}")
    return problems
