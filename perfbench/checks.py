"""Correctness checks, computed apart from the program.

Every check returns a list of failure messages (empty when it holds).
The fidelity join reads the targets' CSV output and the paper's
transcribed values; it shares no code with ``repro.bench.fidelity``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from pbstats import spearman

#: CSV target -> (paper table name, paper_data attribute)
PAPER_TABLES: Dict[str, Tuple[str, str]] = {
    "tab02": ("Table 2", "TABLE02"),
    "tab03": ("Table 3", "TABLE03"),
    "tab04": ("Table 4", "TABLE04"),
    "tab07": ("Table 7", "TABLE07"),
    "tab08": ("Table 8", "TABLE08"),
    "tab09": ("Table 9", "TABLE09"),
    "tab10": ("Table 10", "TABLE10"),
    "tab11": ("Table 11", "TABLE11"),
    "tab12": ("Table 12", "TABLE12"),
    "tab13": ("Table 13", "TABLE13"),
    "tab14": ("Table 14", "TABLE14"),
}

#: the floors ``benchmarks/test_fidelity.py`` states, per paper table
RHO_FLOORS = {"Table 2": 0.7, "Table 4": 0.9, "Table 10": 0.6,
              "Table 13": 0.5}
RATIO_RANGE = (0.5, 2.0)
#: tables whose median model/paper ratio must be within this of 1
EXACT_RATIO = {"Table 8": 0.1, "Table 10": 0.1}
#: mean rank correlation over every rankable table
MEAN_RHO_FLOOR = 0.45


def _cell(text: str):
    text = text.strip()
    if text in ("", "—", "-", "None"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: str) -> Tuple[List[str], List[List]]:
    """Header and typed rows of one target CSV."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], [[_cell(c) for c in row] for row in rows[1:] if row]


def join_rows(rows: Sequence[Sequence], paper: Dict
              ) -> List[List[Tuple[float, float]]]:
    """(paper, model) pairs per row, keyed by the first two cells."""
    groups = []
    for row in rows:
        key = (row[0], row[1])
        if key not in paper:
            continue
        pairs = [(float(p), float(m)) for p, m in zip(paper[key], row[2:])
                 if p is not None and m is not None]
        if pairs:
            groups.append(pairs)
    return groups


def score_table(groups: List[List[Tuple[float, float]]]
                ) -> Tuple[Optional[float], float]:
    """(mean within-row Spearman or None, median model/paper ratio)."""
    ratios = [m / p for group in groups for p, m in group if p > 0]
    if not ratios:
        raise ValueError("no comparable cells")
    rhos = []
    for group in groups:
        if len(group) < 3:
            continue
        rho = spearman([p for p, _ in group], [m for _, m in group])
        if not math.isnan(rho):
            rhos.append(rho)
    mean_rho = sum(rhos) / len(rhos) if rhos else None
    return mean_rho, statistics.median(ratios)


def fidelity(csv_dir: str, targets: Sequence[str], paper_data
             ) -> Tuple[Dict[str, Tuple[Optional[float], float]], List[str]]:
    """Per-table scores of the produced paper tables, and floor failures."""
    scores: Dict[str, Tuple[Optional[float], float]] = {}
    failures: List[str] = []
    for target in targets:
        if target not in PAPER_TABLES:
            continue
        name, attr = PAPER_TABLES[target]
        _header, rows = read_csv(os.path.join(csv_dir, f"{target}.csv"))
        rho, ratio = score_table(join_rows(rows, getattr(paper_data, attr)))
        scores[name] = (rho, ratio)
        if not RATIO_RANGE[0] < ratio < RATIO_RANGE[1]:
            failures.append(f"{name}: median ratio {ratio:.3f} outside "
                            f"{RATIO_RANGE}")
        if name in RHO_FLOORS and (rho is None or rho <= RHO_FLOORS[name]):
            failures.append(f"{name}: rank correlation {rho} <= "
                            f"{RHO_FLOORS[name]}")
        if name in EXACT_RATIO and abs(ratio - 1) >= EXACT_RATIO[name]:
            failures.append(f"{name}: median ratio {ratio:.3f} not within "
                            f"{EXACT_RATIO[name]} of 1")
    if len(scores) == len(PAPER_TABLES):
        rho = mean_rho(scores)
        if rho is None or rho <= MEAN_RHO_FLOOR:
            failures.append(f"mean rank correlation {rho} <= "
                            f"{MEAN_RHO_FLOOR}")
    return scores, failures


def mean_rho(scores: Dict[str, Tuple[Optional[float], float]]
             ) -> Optional[float]:
    """Mean rank correlation over the rankable tables."""
    rhos = [rho for rho, _ in scores.values() if rho is not None]
    return sum(rhos) / len(rhos) if rhos else None


def lock_order(csv_dir: str) -> List[str]:
    """MPI RandomAccess throughput must fall as the lock cost rises."""
    _header, rows = read_csv(os.path.join(csv_dir, "abl_lock_cost.csv"))
    by_cost = sorted(rows, key=lambda row: row[1])
    rates = [row[2] for row in by_cost]
    layers = [row[0] for row in by_cost]
    if layers != ["usysv", "pthread", "sysv"]:
        return [f"lock layers by cost are {layers}, expected "
                "usysv < pthread < sysv"]
    if not rates[0] > rates[1] > rates[2]:
        return [f"MPI RA throughput {rates} does not fall with lock cost"]
    return []


def same_output(cold_dir: str, warm_dir: str,
                names: Sequence[str]) -> List[str]:
    """The warm pass must reproduce the cold pass byte for byte."""
    failures = []
    for name in names:
        with open(os.path.join(cold_dir, name), "rb") as a, \
                open(os.path.join(warm_dir, name), "rb") as b:
            if a.read() != b.read():
                failures.append(f"warm {name} differs from cold")
    return failures


def cached_counts(cache_dir: str) -> Dict[Tuple, List[Tuple[int, int]]]:
    """(messages, bytes) of every cached cell, by its identity.

    The identity is workload/system/scheme/task count.  Cells that differ
    only in a field the stored result does not carry (the lock layer)
    share one; only their counts are kept as a sorted list.
    """
    from repro.core.cache import parse_entry

    counts: Dict[Tuple, List[Tuple[int, int]]] = {}
    for sub in sorted(os.listdir(cache_dir)):
        folder = os.path.join(cache_dir, sub)
        if not os.path.isdir(folder):
            continue
        for name in sorted(os.listdir(folder)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(folder, name), "rb") as handle:
                result = parse_entry(handle.read())["result"]
            ident = (result["workload"], result["system"], result["scheme"],
                     int(result["ntasks"]))
            counts.setdefault(ident, []).append(
                (int(result["messages"]), int(result["bytes_sent"])))
    return {ident: sorted(pairs) for ident, pairs in counts.items()}


def same_counts(exact_cache: str, fast_cache: str) -> List[str]:
    """Each exact cell sends the messages and bytes its fast twin does."""
    exact = cached_counts(exact_cache)
    fast = cached_counts(fast_cache)
    if not exact:
        return ["exact pass cached no cells"]
    failures = []
    for ident in sorted(set(exact) | set(fast)):
        if exact.get(ident) != fast.get(ident):
            failures.append(f"{'/'.join(map(str, ident))}: exact "
                            "(messages, bytes) "
                            f"{exact.get(ident)} != fast {fast.get(ident)}")
    return failures


#: wall-time rank agreement the surrogate is calibrated to
TIER_RHO_FLOOR = 0.95
#: columns of a target CSV that hold inputs, not results
INPUT_COLUMNS = {"abl_lock_cost": ("lock cost (us)",)}


def table_cells(csv_dir: str, target: str) -> Dict[Tuple, float]:
    """Numeric result cells of one target CSV, keyed by (row, column)."""
    header, rows = read_csv(os.path.join(csv_dir, f"{target}.csv"))
    skip = INPUT_COLUMNS.get(target, ())
    cells = {}
    for row in rows:
        for column, value in zip(header[1:], row[1:]):
            if column not in skip and isinstance(value, (int, float)):
                cells[(str(row[0]), column)] = float(value)
    return cells


def tier_ranks(exact_csv: str, fast_csv: str, targets: Sequence[str]
               ) -> Tuple[float, List[str]]:
    """Lowest exact-vs-fast Spearman over the tables, and failures.

    Tables with fewer than four cells are left to their own order checks
    (``lock_order``): three cells cannot show a correlation of 0.95.
    """
    lowest = 1.0
    failures = []
    for target in targets:
        exact = table_cells(exact_csv, target)
        fast = table_cells(fast_csv, target)
        if set(exact) != set(fast):
            failures.append(f"{target}: exact and fast tables have "
                            "different cells")
            continue
        if len(exact) < 4:
            continue
        keys = sorted(exact)
        rho = spearman([exact[k] for k in keys], [fast[k] for k in keys])
        lowest = min(lowest, rho)
        if not rho >= TIER_RHO_FLOOR:
            failures.append(f"{target}: exact vs fast rank correlation "
                            f"{rho:.4f} < {TIER_RHO_FLOOR}")
    return lowest, failures


def canonical(result) -> str:
    """A result payload as text that two equal payloads share exactly.

    ``repr`` of a float round-trips, so equal text means bit-equal
    floats; NaN compares equal to NaN here, unlike in ``==``.
    """
    return json.dumps(result, sort_keys=True)


def served_matches(cells: Sequence[Dict], served: Sequence[Dict]
                   ) -> List[str]:
    """Each served result equals the cell run in this process.

    ``served[i]`` is the ``result`` payload the program answered for the
    wire cell ``cells[i]``; the reference is ``JobRequest.execute()``.
    """
    from repro.service.protocol import cell_from_wire

    failures = []
    for cell, result in zip(cells, served):
        expected = cell_from_wire(cell).to_job().execute().to_dict()
        if canonical(expected) != canonical(result):
            failures.append(f"served result for {cell_label(cell)} differs "
                            "from an in-process run")
    return failures


def cell_label(cell: Dict) -> str:
    """Short human name of a wire cell."""
    workload = cell["workload"]
    if workload == "synthetic":
        workload = cell["params"]["spec"]["name"]
    return f"{cell['system']}/{workload}/{cell['ntasks']}/{cell['scheme']}"
