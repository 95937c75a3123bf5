"""The mining kernel: complete frequent-subsequence mining by prefix
projection (PrefixSpan, Pei et al., TKDE 2004) over integer-encoded
sequence databases. Records are sequences of non-negative int item ids.
"""

from __future__ import annotations

BACKEND = "pure"  # the one kernel; benchmark reports name it


def prefixspan(records, min_support: int, cap: int = -1):
    """Complete frequent-subsequence mining by prefix projection.

    Returns ``(results, exceeded)`` where results is a list of
    ``(pattern_tuple, support_count)``. When ``cap >= 0`` mining aborts as
    soon as more than ``cap`` patterns exist and ``exceeded`` is True (the
    partial results are then meaningless beyond the overflow signal).
    """
    results: list[tuple[tuple[int, ...], int]] = []
    exceeded = False

    def grow(prefix: tuple[int, ...], projections: list[tuple[int, int]]) -> None:
        nonlocal exceeded
        if exceeded:
            return
        counts: dict[int, int] = {}
        for rid, pos in projections:
            rec = records[rid]
            seen: set[int] = set()
            for p in range(pos, len(rec)):
                x = rec[p]
                if x not in seen:
                    seen.add(x)
                    counts[x] = counts.get(x, 0) + 1
        for x in sorted(counts):
            if counts[x] < min_support:
                continue
            grown = prefix + (x,)
            results.append((grown, counts[x]))
            if 0 <= cap < len(results):
                exceeded = True
                return
            next_proj: list[tuple[int, int]] = []
            for rid, pos in projections:
                rec = records[rid]
                for p in range(pos, len(rec)):
                    if rec[p] == x:
                        next_proj.append((rid, p + 1))
                        break
            grow(grown, next_proj)
            if exceeded:
                return

    grow((), [(rid, 0) for rid in range(len(records))])
    return results, exceeded
