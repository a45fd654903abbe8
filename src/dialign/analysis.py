"""Aggregation of change records and the LS vs non-LS permutation contrast.

The contrast permutes location labels, not word records: words within a
location are correlated, so the location is the exchangeable unit under
the null hypothesis. A group map is a dict from location to its group
token in GROUPS, as corpus.read_groups reads it.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .corpus import GROUPS
from .errors import DialignError
from .triple import ChangeRecord


GroupSummary = namedtuple("GroupSummary", "group mean_conv mean_div n_records")


class ContrastResult(
    namedtuple(
        "ContrastResult", "measure statistic p_value n_permutations direction"
    )
):
    """One measure's ("conv" or "div") contrast: the statistic, the mean
    over LS location means minus the non-LS one, its p-value over
    n_permutations, and its direction, e.g. "conv_higher_in_ls"."""

    __slots__ = ()


def by_location(
    records: list[ChangeRecord], groups: dict[str, str]
) -> dict[str, list[ChangeRecord]]:
    """The records grouped by location, in (location, word) order; a
    location missing from the group map is an error. Every reduction
    runs in this order, so results do not depend on the input order."""
    by_loc: dict[str, list[ChangeRecord]] = {}
    for r in sorted(records, key=lambda r: (r.location, r.word)):
        if r.location not in groups:
            raise DialignError(f"location {r.location!r} has no group")
        by_loc.setdefault(r.location, []).append(r)
    return by_loc


def summarize(
    by_loc: dict[str, list[ChangeRecord]], groups: dict[str, str]
) -> list[GroupSummary]:
    """One summary per dialect group, plus an overall summary ("ALL"), of
    records grouped by by_location."""
    summaries = []
    for group in GROUPS + ("ALL",):
        members = [
            r
            for loc, rs in by_loc.items()
            if group == "ALL" or groups[loc] == group
            for r in rs
        ]
        if members:
            mean_conv = sum(r.conv for r in members) / len(members)
            mean_div = sum(r.div for r in members) / len(members)
        else:
            mean_conv = mean_div = None
        summaries.append(GroupSummary(group, mean_conv, mean_div, len(members)))
    return summaries


PERM_CELLS = 2**15  # permutations are drawn in blocks of about this many cells
BAND = 2.0**-40  # the re-scoring band is n * BAND * (max|values| + |observed|)


def _hits(values, perm, rest, observed) -> int:
    """How many rows of the permutation mask perm (rest = ~perm) give a
    statistic at least as extreme as observed. The mask gather keeps each
    row's values in location order, so each row mean is bit-identical to
    the 1-D mean of that one permutation."""
    b = len(perm)
    v = np.broadcast_to(values, perm.shape)
    diff = v[perm].reshape(b, -1).mean(axis=1) - v[rest].reshape(b, -1).mean(axis=1)
    return int(np.count_nonzero(np.abs(diff) >= abs(observed)))


def permutation_contrast(
    by_loc: dict[str, list[ChangeRecord]],
    groups: dict[str, str],
    n_perm: int = 9999,
    seed: int = 0,
) -> tuple[ContrastResult, ContrastResult]:
    """Two-sided location-permutation tests of the LS vs non-LS contrast,
    for conv and for div, on one stream of permutations, of records
    grouped by by_location.

    The statistic is the difference between the mean of per-location
    means in the LS group and in the combined other groups. Both
    measures are scored on every permutation; the p-values use the
    add-one correction. The permutations are drawn PERM_CELLS // n at a
    time, one per row of a block of 0/1 float labels, on the stream of
    repeated rng.permutation calls, so the block size changes no result.

    Each block is scored first by matrix products of the labels with the
    location means v. Products with 0 and 1 are exact, and any summation
    order of n terms is within gamma_n * sum|v| of the exact sum, where
    gamma_n = n * 2**-53 / (1 - n * 2**-53); the two divisions and the
    subtraction round once each, and |statistic| <= 2 * max|v|. So a
    row's estimate and the statistic _hits computes for it differ by at
    most about (n + 2) * 2**-51 * max|v|. A row whose estimate lies more
    than the band n * BAND * (max|v| + |observed|), over 1000 times that
    bound, from |observed| is counted from the estimate; the rows inside
    the band are counted by _hits, so every count is the one _hits alone
    gives. The rest's sums are a product of their own: total - inside
    would cancel, with an error that grows with n / (n - n_ls).
    This holds for finite means whose sums do not overflow (report's are
    in [0, 1]); a non-finite mean makes its band inf or NaN, which sends
    every row to _hits.
    """
    if n_perm < 999:
        raise ValueError("n_perm must be >= 999")
    is_ls = np.array([groups[loc] == "LS" for loc in by_loc])
    n = len(is_ls)
    n_ls = int(is_ls.sum())
    if n_ls == 0 or n_ls == n:
        raise DialignError(f"contrast needs locations on both sides (LS={n_ls} of {n})")

    rows = list(by_loc.values())
    conv = np.array([float(np.mean([r.conv for r in rs])) for rs in rows])
    div = np.array([float(np.mean([r.div for r in rs])) for rs in rows])
    obs_conv = float(conv[is_ls].mean() - conv[~is_ls].mean())
    obs_div = float(div[is_ls].mean() - div[~is_ls].mean())
    measures = (conv, div)
    values = np.column_stack(measures)
    observed = np.abs([obs_conv, obs_div])
    band = n * BAND * (np.abs(values).max(axis=0) + observed)
    labels = is_ls.astype(np.float64)
    block = max(1, PERM_CELLS // n)
    rng = np.random.default_rng(seed)
    hits = [0, 0]
    for start in range(0, n_perm, block):
        b = min(block, n_perm - start)
        # Row i is the draw of the i-th rng.permutation(is_ls) call.
        perm = rng.permuted(np.broadcast_to(labels, (b, n)).copy(), axis=1)
        estimate = (perm @ values) / n_ls - ((1.0 - perm) @ values) / (n - n_ls)
        gap = np.abs(estimate) - observed
        above, below = gap > band, gap < -band
        near = ~(above | below)
        for m, v in enumerate(measures):
            hits[m] += int(np.count_nonzero(above[:, m]))
            if near[:, m].any():
                mask = perm[near[:, m]] > 0.5
                hits[m] += _hits(v, mask, ~mask, observed[m])

    def result(measure, observed, hits):
        direction = f"{measure}_{'higher' if observed > 0 else 'lower'}_in_ls"
        return ContrastResult(
            measure, observed, (hits + 1) / (n_perm + 1), n_perm, direction
        )

    return result("conv", obs_conv, hits[0]), result("div", obs_div, hits[1])


def export_geo(
    by_loc: dict[str, list[ChangeRecord]], coords: dict[str, tuple[float, float]]
) -> str:
    """CSV of per-location mean convergence/divergence for external
    plotting, of records grouped by by_location."""
    lines = ["location,lon,lat,mean_conv,mean_div"]
    for loc, rs in by_loc.items():
        if loc not in coords:
            raise DialignError(f"no coordinates for location {loc!r}")
        lon, lat = coords[loc]
        mean_conv = sum(r.conv for r in rs) / len(rs)
        mean_div = sum(r.div for r in rs) / len(rs)
        lines.append(f"{loc},{lon:.6f},{lat:.6f},{mean_conv:.6f},{mean_div:.6f}")
    return "\n".join(lines) + "\n"
