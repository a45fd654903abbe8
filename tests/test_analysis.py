import random

import numpy as np
import pytest

from dialign import analysis
from dialign.analysis import (
    PERM_CELLS,
    ContrastResult,
    by_location,
    export_geo,
    permutation_contrast,
    summarize,
)
from dialign.errors import DialignError
from dialign.triple import ChangeRecord


def make_groups(n_ls=10, n_other=10):
    groups = {f"ls{i:02d}": "LS" for i in range(n_ls)}
    groups |= {f"fr{i:02d}": "FR" for i in range(n_other)}
    return groups


def make_records(groups, rng, conv_shift_ls=0.0, n_words=30):
    records = []
    for loc, group in groups.items():
        shift = conv_shift_ls if group == "LS" else 0.0
        for w in range(n_words):
            conv = max(0.0, rng.gauss(0.02, 0.01) + shift)
            div = max(0.0, rng.gauss(0.014, 0.01))
            records.append(ChangeRecord(loc, f"w{w:02d}", conv, div, 10))
    return records


def test_summarize_headline_numbers():
    groups = make_groups()
    records = [
        ChangeRecord(loc, f"w{i}", 0.02, 0.014, 10)
        for loc in groups
        for i in range(5)
    ]
    summaries = {s.group: s for s in summarize(by_location(records, groups), groups)}
    overall = summaries["ALL"]
    assert overall.mean_conv == pytest.approx(0.02)
    assert overall.mean_div == pytest.approx(0.014)
    assert overall.mean_conv + overall.mean_div == pytest.approx(0.034)
    assert summaries["GR"].n_records == 0
    assert summaries["GR"].mean_conv is None


def test_summarize_single_record():
    groups = {"x": "LS"}
    by_loc = by_location([ChangeRecord("x", "w", 0.1, 0.2, 5)], groups)
    summaries = {s.group: s for s in summarize(by_loc, groups)}
    assert summaries["LS"].mean_conv == 0.1
    assert summaries["LS"].mean_div == 0.2


def test_by_location_order_invariant():
    groups = make_groups(3, 3)
    rng = random.Random(1)
    records = make_records(groups, rng)
    shuffled = records[:]
    random.Random(2).shuffle(shuffled)
    by_loc = by_location(shuffled, groups)
    assert list(by_loc.items()) == list(by_location(records, groups).items())
    assert list(by_loc) == sorted(groups)
    for rs in by_loc.values():
        assert [r.word for r in rs] == sorted(r.word for r in rs)


def test_by_location_unmapped_location():
    with pytest.raises(DialignError) as info:
        by_location([ChangeRecord("nowhere", "w", 0.0, 0.0, 1)], {})
    assert str(info.value) == "location 'nowhere' has no group"


def permutation_contrast_loop(records, groups, measure, n_perm, seed):
    """Reference: one measure's test on its own permutation stream, as
    the contrast was computed before both measures shared one stream."""
    sums = {}
    for r in sorted(records, key=lambda r: (r.location, r.word)):
        sums.setdefault(r.location, []).append(r.conv if measure == "conv" else r.div)
    loc_means = {loc: float(np.mean(vals)) for loc, vals in sums.items()}
    locations = sorted(loc_means)
    values = np.array([loc_means[loc] for loc in locations])
    is_ls = np.array([groups[loc] == "LS" for loc in locations])
    observed = float(values[is_ls].mean() - values[~is_ls].mean())
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_perm):
        perm = rng.permutation(is_ls)
        stat = values[perm].mean() - values[~perm].mean()
        if abs(stat) >= abs(observed):
            hits += 1
    p_value = (hits + 1) / (n_perm + 1)
    direction = f"{measure}_{'higher' if observed > 0 else 'lower'}_in_ls"
    return ContrastResult(measure, observed, p_value, n_perm, direction)


# 16 locations give blocks of 2048 permutations and 40 give blocks of
# 819, so 5003 spans three and seven blocks, the last one short.
@pytest.mark.parametrize(
    "n_perm,n_ls,n_other",
    [pytest.param(n, 7, 9, id=str(n)) for n in (999, 1001, 5003)]
    + [pytest.param(n, 15, 25, id=f"{n}-40loc") for n in (999, 1001, 5003)],
)
def test_one_stream_matches_per_measure_streams(n_perm, n_ls, n_other):
    assert PERM_CELLS // (n_ls + n_other) in (2048, 819)
    groups = make_groups(n_ls, n_other)
    for seed in range(10):
        records = make_records(groups, random.Random(seed), conv_shift_ls=0.002)
        by_loc = by_location(records, groups)
        results = permutation_contrast(by_loc, groups, n_perm=n_perm, seed=seed)
        for measure, got in zip(("conv", "div"), results):
            want = permutation_contrast_loop(records, groups, measure, n_perm, seed)
            assert got.measure == want.measure
            assert got.statistic == want.statistic
            assert got.p_value == want.p_value
            assert got.direction == want.direction
            assert got.n_permutations == n_perm


def count_exact_rows(monkeypatch):
    """Wrap analysis._hits so that it counts the rows it scores."""
    rows = [0]
    hits = analysis._hits

    def counting(values, perm, rest, observed):
        rows[0] += len(perm)
        return hits(values, perm, rest, observed)

    monkeypatch.setattr(analysis, "_hits", counting)
    return rows


def tie_heavy_cases():
    """Small group maps with LS on both sides and dyadic means, so that
    many permutations tie with the observed statistic exactly; the first
    case ties or beats its div statistic on every permutation. In the
    last ones, 8 LS locations of 9 with random means, the observed split
    recurs in a ninth of the draws, and the matrix products often sum
    its LS means in another order than the mask mean does, so that its
    estimate misses the observed statistic by an ulp."""
    groups = {"loc01": "LS", "loc02": "FR", "loc03": "FR"}
    records = [
        ChangeRecord(loc, "w", conv, div, 5)
        for loc, conv, div in (("loc01", 0.25, 0.1), ("loc02", 0.0, 0.1), ("loc03", 0.5, 0.0))
    ]
    yield groups, records
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(3, 7)
        n_ls = rng.randint(1, n - 1)
        groups = {f"loc{i:02d}": "LS" if i < n_ls else rng.choice(["FR", "GR"]) for i in range(n)}
        records = [
            ChangeRecord(loc, f"w{w}", rng.choice((0.0, 0.25, 0.5)), rng.choice((0.0, 0.25, 0.5)), 5)
            for loc in groups
            for w in range(rng.randint(1, 2))
        ]
        yield groups, records
    for _ in range(10):
        groups = {f"loc{i:02d}": "LS" for i in range(9)}
        groups[rng.choice(sorted(groups))] = "FR"
        records = [ChangeRecord(loc, "w", rng.random() / 2, rng.random() / 2, 5) for loc in groups]
        yield groups, records


def test_filtered_scoring_matches_loop_reference_on_ties(monkeypatch):
    exact_rows = count_exact_rows(monkeypatch)
    for case, (groups, records) in enumerate(tie_heavy_cases()):
        results = permutation_contrast(by_location(records, groups), groups, n_perm=999, seed=case)
        for measure, got in zip(("conv", "div"), results):
            want = permutation_contrast_loop(records, groups, measure, 999, case)
            assert (got.statistic, got.p_value) == (want.statistic, want.p_value)
        if case == 0:
            assert results[1].p_value == 1.0
    assert exact_rows[0] > 0


def test_band_routes_rows_without_deciding_them(monkeypatch):
    groups = make_groups()
    grouped = [
        by_location(make_records(groups, random.Random(seed), conv_shift_ls=0.005), groups)
        for seed in range(10)
    ]
    want = [permutation_contrast(g, groups, n_perm=999, seed=s) for s, g in enumerate(grouped)]
    exact_rows = count_exact_rows(monkeypatch)
    monkeypatch.setattr(analysis, "BAND", float("inf"))  # every row is near
    got = [permutation_contrast(g, groups, n_perm=999, seed=s) for s, g in enumerate(grouped)]
    assert got == want
    assert exact_rows[0] == 10 * 2 * 999


@pytest.mark.parametrize("n", [2, 7, 40])
def test_permuted_float_labels_match_successive_permutation_draws(n):
    # permutation_contrast shuffles 0/1 float labels a block at a time and
    # relies on each row being the next rng.permutation(is_ls) draw.
    for seed in range(5):
        is_ls = np.random.default_rng(100 + seed).random(n) < 0.5
        labels = is_ls.astype(np.float64)
        blocks, draws = np.random.default_rng(seed), np.random.default_rng(seed)
        for b in (5, 3):
            rows = blocks.permuted(np.broadcast_to(labels, (b, n)).copy(), axis=1)
            want = [draws.permutation(is_ls) for _ in range(b)]
            assert np.array_equal(rows, np.array(want, dtype=np.float64))


def test_contrast_deterministic_and_identity_statistic():
    groups = make_groups()
    records = make_records(groups, random.Random(5), conv_shift_ls=0.01)
    grouped = by_location(records, groups)
    r1, _ = permutation_contrast(grouped, groups, n_perm=999, seed=42)
    r2, _ = permutation_contrast(grouped, groups, n_perm=999, seed=42)
    assert r1 == r2
    # observed statistic equals the group mean difference of location means
    by_loc = {}
    for r in records:
        by_loc.setdefault(r.location, []).append(r.conv)
    ls = [np.mean(v) for loc, v in by_loc.items() if groups[loc] == "LS"]
    other = [np.mean(v) for loc, v in by_loc.items() if groups[loc] != "LS"]
    assert r1.statistic == pytest.approx(np.mean(ls) - np.mean(other))
    assert r1.direction == "conv_higher_in_ls"


def test_contrast_detects_injected_shift():
    groups = make_groups()
    hits = 0
    for seed in range(10):
        records = make_records(groups, random.Random(seed), conv_shift_ls=0.01)
        by_loc = by_location(records, groups)
        result, _ = permutation_contrast(by_loc, groups, n_perm=999, seed=seed)
        hits += result.p_value < 0.05
    assert hits >= 8  # power check: shift found in the clear majority of runs


def test_contrast_degenerate():
    groups = {"a": "LS", "b": "LS"}
    records = [ChangeRecord("a", "w", 0.1, 0.1, 5), ChangeRecord("b", "w", 0.1, 0.1, 5)]
    with pytest.raises(DialignError) as info:
        permutation_contrast(by_location(records, groups), groups, n_perm=999, seed=0)
    assert str(info.value) == "contrast needs locations on both sides (LS=2 of 2)"


def test_contrast_rejects_low_n_perm():
    groups = make_groups(2, 2)
    records = make_records(groups, random.Random(0))
    with pytest.raises(ValueError):
        permutation_contrast(by_location(records, groups), groups, n_perm=10, seed=0)


def test_export_geo():
    groups = make_groups(2, 2)
    records = make_records(groups, random.Random(0), n_words=3)
    coords = {loc: (5.0 + i, 52.0 + i) for i, loc in enumerate(sorted(groups))}
    csv_text = export_geo(by_location(records, groups), coords)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "location,lon,lat,mean_conv,mean_div"
    assert len(lines) == 5


def test_export_geo_empty_records():
    assert export_geo({}, {}) == "location,lon,lat,mean_conv,mean_div\n"


def test_export_geo_missing_coordinates():
    records = [ChangeRecord("x", "w", 0.1, 0.1, 5)]
    with pytest.raises(DialignError) as info:
        export_geo(by_location(records, {"x": "LS"}), {})
    assert str(info.value) == "no coordinates for location 'x'"
