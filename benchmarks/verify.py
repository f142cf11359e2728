"""Output checks that do not trust the selectors they check.

Each function returns a list of problems; an empty list means the output
passed. Coverage is re-derived here from the selected sensors' spans by
merging (for whole-segment covers) or by counting multiplicity per target
(for discrete k-covers), never from the selector's own bookkeeping.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def selected_spans(result, field) -> tuple[list[tuple[float, float]], list[str]]:
    """Spans of every selected sensor: its interval, else its virtual span."""
    spans = []
    missing = []
    for sid in result.selected_ids:
        span = field.span_of(sid)
        if span is None:
            span = result.virtual_spans.get(sid)
        if span is None:
            missing.append(sid)
        else:
            spans.append(span)
    problems = [f"selected ids {missing[:5]} have no span"] if missing else []
    return spans, problems


def first_hole(
    spans: Sequence[tuple[float, float]], domain: tuple[float, float]
) -> tuple[float, float] | None:
    """Leftmost stretch of [a, b] the union of closed spans misses."""
    a, b = domain
    reach = a
    for u, v in sorted(spans):
        if u > reach:
            return (reach, u)
        if v > reach:
            reach = v
    return None if reach >= b else (reach, b)


def first_undercovered(
    spans: Sequence[tuple[float, float]], xs: Sequence[float], k: int
) -> int | None:
    """Index of the first target covered fewer than k times, if any."""
    xs = np.asarray(xs, dtype=float)
    m = len(xs)
    if not spans:
        return 0 if m else None
    arr = np.asarray(spans, dtype=float)
    lo = np.searchsorted(xs, arr[:, 0], side="left")
    hi = np.searchsorted(xs, arr[:, 1], side="right")
    depth = np.cumsum(np.bincount(lo, minlength=m + 1) - np.bincount(hi, minlength=m + 1))
    short = np.flatnonzero(depth[:m] < k)
    return int(short[0]) if len(short) else None


def check_selection(
    label: str,
    result,
    field,
    *,
    domain: tuple[float, float] | None = None,
    targets: Sequence[float] | None = None,
    k: int = 1,
) -> list[str]:
    """A selection covers ``domain`` once, or each of ``targets`` k times.

    Also checks that ``fully_covered`` holds exactly when no virtual
    sensor was used.
    """
    problems = []
    if result.fully_covered != (not result.virtual_ids):
        problems.append(
            f"{label}: fully_covered={result.fully_covered} with "
            f"{len(result.virtual_ids)} virtual sensors"
        )
    spans, missing = selected_spans(result, field)
    problems += [f"{label}: {p}" for p in missing]
    if domain is not None:
        hole = first_hole(spans, domain)
        if hole is not None:
            problems.append(f"{label}: leaves [{hole[0]}, {hole[1]}] uncovered")
    if targets is not None:
        index = first_undercovered(spans, targets, k)
        if index is not None:
            problems.append(
                f"{label}: target {index} at x={targets[index]} covered < {k} times"
            )
    return problems


def check_mended(label: str, previous, mended, failed, field, domain) -> list[str]:
    """A mended selection drops every failed sensor, keeps every surviving
    one, and covers ``domain``.

    With no failed id left in the selection, the coverage re-derived from
    its spans is coverage by surviving and newly picked sensors only.
    """
    failed = set(failed)
    problems = []
    back = sorted(failed.intersection(mended.selected_ids))
    if back:
        problems.append(f"{label}: failed sensors {back[:5]} are still selected")
    kept = set(mended.selected_ids)
    lost = [sid for sid in previous.selected_ids if sid not in failed and sid not in kept]
    if lost:
        problems.append(f"{label}: surviving sensors {lost[:5]} were dropped")
    return problems + check_selection(label, mended, field, domain=domain)


def check_single_failure_row(row: dict) -> list[str]:
    """Criterion 5a: mending one failure costs at most one extra sensor."""
    if row["violations"] != 0 or row["max_diff"] > 1:
        return [
            f"single_failure n={row['n']}: violations={row['violations']} "
            f"max_diff={row['max_diff']}"
        ]
    return []


def check_k_barrier_row(row: dict) -> list[str]:
    """k disjoint zero-gap paths form a k-cover, so k_oga never needs more."""
    if row["coverable"] and row["oga_mean_cov"] > row["benchmark_mean_cov"]:
        return [
            f"k_barrier n={row['n']} k={row['k']}: oga_mean_cov="
            f"{row['oga_mean_cov']} > benchmark_mean_cov={row['benchmark_mean_cov']}"
        ]
    return []
