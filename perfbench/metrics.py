"""Small statistics shared by the benchmark and its result-set recorder.

Kept free of any import from the program under test, so the rules the
benchmark reports by can be unit-tested on their own.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, List, Sequence, Tuple

#: Metric names: a letter or digit, then letters, digits, ``_``, ``.``
#: and ``-``, at most 64 characters in all.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")

#: Units: letters, digits, ``_``, ``/``, ``%``, ``.`` and ``-``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: How many samples a reported tail percentile must leave beyond it.
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    """True when ``name`` is a legal metric or workload name."""
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    """True when ``unit`` is a legal metric unit."""
    return UNIT_RE.fullmatch(unit) is not None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that still has
    :data:`TAIL_BEYOND` samples beyond it.

    With ``n`` samples that is the sample of rank ``n - 10`` in
    ascending order, the ``100 * (n - 10) / n`` percentile.  Raises
    ``ValueError`` when there are too few samples for any such
    percentile.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {n}"
        )
    ordered = sorted(values)
    return 100.0 * (n - TAIL_BEYOND) / n, float(ordered[n - TAIL_BEYOND - 1])


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median.

    Quartiles are Python's ``statistics.quantiles(values, n=4)``.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def self_times(
    spans: Sequence[Dict[str, object]],
) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover.

    ``spans`` are dicts with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.  Children that overlap each other are
    counted once (the union of their intervals), and only the part of
    a child inside its parent's interval is subtracted.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(span["id"], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result
