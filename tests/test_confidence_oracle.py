"""Blocked neighbor search against the full-matrix reference implementation.

The oracle below is the original confidence code: every filter round builds
the survivors' whole distance matrix and ranks each row with a stable
argsort, so equal distances keep the lower index first, and a row's own
entry is NaN, which the stable argsort puts after every distance (inf
included). The blocked argpartition search must reproduce its reports and
gammas bit for bit.
"""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbboost import confidence
from cbboost.confidence import (
    DEFAULT_K,
    DEFAULT_THRESHOLDS,
    ConfidenceVector,
    FilterReport,
    FilterRound,
    Neighbours,
    estimate_confidence,
    knn_confidence,
    noise_filter,
)
from cbboost.dataset import Dataset, inject_label_noise
from cbboost.synth import gen_normal


def oracle_sq_dists(queries, refs):
    q, p = queries.shape
    m = refs.shape[0]
    out = np.empty((q, m), dtype=np.float64)
    block = max(1, int(8e6 / max(m * p, 1)))
    for s in range(0, q, block):
        # row-major differences, as einsum reduced them in the blocked search
        d = np.subtract(queries[s : s + block, None, :], refs[None, :, :], order="C")
        out[s : s + block] = np.einsum("ijk,ijk->ij", d, d)
    return out


def oracle_k_nearest(d2, k):
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def oracle_noise_filter(ds, k=DEFAULT_K, thresholds=DEFAULT_THRESHOLDS, standardize=True):
    X = confidence._standardized(ds, standardize)
    surv = np.arange(ds.n)
    rounds = []
    aborted = False
    for t in thresholds:
        if surv.size <= k:
            aborted = True
            break
        d2 = oracle_sq_dists(X[surv], X[surv])
        np.fill_diagonal(d2, np.nan)
        nbr = oracle_k_nearest(d2, k)
        agree = (ds.labels[surv][nbr] == ds.labels[surv][:, None]).mean(axis=1)
        out = agree < t
        rounds.append(FilterRound(t, surv[out]))
        surv = surv[~out]
    return FilterReport(n=ds.n, kept=surv, rounds=tuple(rounds), aborted=aborted)


def oracle_knn_confidence(ds, reduced, k=DEFAULT_K, standardize=True):
    kept = reduced.kept
    X = confidence._standardized(ds, standardize)
    d2 = oracle_sq_dists(X, X[kept])
    pos = np.full(ds.n, -1, dtype=np.int64)
    pos[kept] = np.arange(kept.size)
    own = np.flatnonzero(pos >= 0)
    d2[own, pos[own]] = np.nan
    nbr = oracle_k_nearest(d2, k)
    return ConfidenceVector((ds.labels[kept][nbr] == ds.labels[:, None]).mean(axis=1))


def assert_same_report(got, want):
    assert got.aborted == want.aborted
    assert np.array_equal(got.kept, want.kept)
    assert len(got.rounds) == len(want.rounds)
    for g, w in zip(got.rounds, want.rounds):
        assert g.threshold == w.threshold
        assert np.array_equal(g.removed, w.removed)


def table_for(ds, k, standardize):
    # a function given no table builds the default, z-scored one; raw
    # distances come from a table built raw
    return None if standardize else Neighbours(ds.features, k=k, standardize=False)


def assert_matches_oracle(ds, k, thresholds=DEFAULT_THRESHOLDS, standardize=True):
    nb = table_for(ds, k, standardize)
    report = noise_filter(ds, k=k, thresholds=thresholds, neighbours=nb)
    want = oracle_noise_filter(ds, k=k, thresholds=thresholds, standardize=standardize)
    assert_same_report(report, want)
    if want.n_kept > k:
        got = knn_confidence(ds, want, k=k, neighbours=nb)
        ref = oracle_knn_confidence(ds, want, k=k, standardize=standardize)
        assert got.gamma.tobytes() == ref.gamma.tobytes()
    return report


def grid_dataset(n, p, seed):
    # few integer levels per feature: many duplicated rows and exact distance ties
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, p)).astype(np.float64)
    score = X.sum(axis=1) - 1.5 * p + rng.normal(0.0, 1.0, n)
    return Dataset(X, np.where(score >= 0, 1, -1))


def fallback_spokes(k):
    # as many spokes as the center's table holds (a table on more rows than that)
    return confidence._table_depth(k, 1 << 20)


def fallback_dataset(k):
    # a +1 center whose nearest rows, as many as its table holds, are +1
    # spokes, each with a -1 partner closer to it than the center; round one
    # removes every spoke and partner but keeps the center, whose whole table
    # is then gone
    spokes = fallback_spokes(k)
    ang = 2.0 * np.pi * np.arange(spokes) / spokes
    unit = np.column_stack([np.cos(ang), np.sin(ang)])
    far = 20.0 + np.arange(3 * k + 2, dtype=np.float64)[:, None] * np.array([[0.3, 0.0]])
    X = np.vstack([[[0.0, 0.0]], unit, 1.2 * unit, far])
    y = np.concatenate([[1], np.ones(spokes), -np.ones(spokes), np.ones(far.shape[0])])
    return Dataset(X, y.astype(np.int64))


@pytest.fixture(params=["one block", "tiny blocks"])
def block(request, monkeypatch):
    if request.param == "tiny blocks":
        monkeypatch.setattr(confidence, "_BLOCK", 64)
    return request.param


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_grid_ties_match_oracle(block, p, k, standardize):
    ds = grid_dataset(90, p, seed=10 * p + k)
    _, counts = np.unique(ds.features, axis=0, return_counts=True)
    assert counts.max() > 1
    assert_matches_oracle(ds, k, standardize=standardize)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_noisy_normal_matches_oracle(block, k):
    noisy, _ = inject_label_noise(gen_normal(400, seed=k), 0.3, seed=k)
    report = assert_matches_oracle(noisy, k, thresholds=(0.2, 0.4, 0.6))
    assert report.rounds[0].removed.size > 0


def test_aborted_schedule_matches_oracle(block):
    rng = np.random.default_rng(5)
    ds = Dataset(rng.normal(size=(30, 2)), rng.choice([-1, 1], size=30))
    report = assert_matches_oracle(ds, 5, thresholds=(0.5, 0.7, 0.9))
    assert report.aborted


@pytest.mark.parametrize("k", [1, 2])
def test_exhausted_table_falls_back_to_exact_search(block, k, caplog):
    ds = fallback_dataset(k)
    with caplog.at_level(logging.DEBUG, logger="cbboost.confidence"):
        report = assert_matches_oracle(ds, k, thresholds=(0.6, 0.7), standardize=False)
    assert 0 in report.kept
    assert report.rounds[0].removed.tolist() == list(range(1, 2 * fallback_spokes(k) + 1))
    re_searched = [rec.args[-1] for rec in caplog.records if rec.name == "cbboost.confidence"]
    assert re_searched == [0, 1]


@pytest.mark.parametrize("k", [1, 2])
def test_rows_served_in_blocks_still_re_search(block, k, caplog):
    # under tiny blocks each call takes its rows off the table in several
    # blocks, and the row whose whole table the filter removed is still
    # searched again, in the second round and in the vote
    ds = fallback_dataset(k)
    nb = Neighbours(ds.features, k=k, standardize=False)
    served = []

    class Served(np.ndarray):
        def __getitem__(self, rows):
            served.append(len(rows))
            return np.asarray(self)[rows]

    nb.table = nb.table.view(Served)
    with caplog.at_level(logging.DEBUG, logger="cbboost.confidence"):
        report = noise_filter(ds, k=k, thresholds=(0.6, 0.7), neighbours=nb)
        gamma = knn_confidence(ds, report, k=k, neighbours=nb)
    want = oracle_noise_filter(ds, k=k, thresholds=(0.6, 0.7), standardize=False)
    assert_same_report(report, want)
    assert gamma.gamma.tobytes() == oracle_knn_confidence(ds, want, k=k, standardize=False).gamma.tobytes()
    names = ("cbboost.confidence", "cbboost.confidence.vote")
    re_searched = [rec.args[-1] for rec in caplog.records if rec.name in names]
    assert re_searched[0] == 0 and re_searched[1] >= 1 and re_searched[2] >= 1
    calls = [ds.n, ds.n - report.rounds[0].removed.size, ds.n]  # two rounds, then the vote
    assert sum(served) == sum(calls)
    if block == "one block":
        assert served == calls
    else:
        assert len(served) > 2 * len(calls)


def test_filter_round_debug_lines(caplog):
    ds = fallback_dataset(1)
    raw = Neighbours(ds.features, k=1, standardize=False)
    with caplog.at_level(logging.DEBUG, logger="cbboost.confidence"):
        report = noise_filter(ds, k=1, thresholds=(0.6, 0.7), neighbours=raw)
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "cbboost.confidence"]
    removed = 2 * fallback_spokes(1)
    assert lines == [
        f"filter round 1: threshold 0.6, {ds.n} survivors in, {removed} removed, 0 exact re-searches",
        f"filter round 2: threshold 0.7, {ds.n - removed} survivors in, {report.rounds[1].removed.size} removed, "
        "1 exact re-searches",
    ]


def test_peak_memory_below_one_full_matrix():
    noisy, _ = inject_label_noise(gen_normal(3000, seed=0), 0.2, seed=1)
    tracemalloc.start()
    try:
        estimate_confidence(noisy, method="knn")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3000 * 3000 * 8


@pytest.fixture(scope="module")
def served_at_20000():
    noisy, _ = inject_label_noise(gen_normal(20000, seed=1), 0.2, seed=2)
    nb = Neighbours(noisy.features)
    return noisy, nb, noise_filter(noisy, neighbours=nb)


@pytest.mark.parametrize("stage", ["filter", "vote"])
def test_serving_holds_no_table_sized_temporary(served_at_20000, stage):
    # rows are served in blocks, so neither stage's peak reaches the size of
    # the table it reads (3.2 MB here; a whole-table gather took ~10 MB)
    noisy, nb, report = served_at_20000
    tracemalloc.start()
    try:
        if stage == "filter":
            noise_filter(noisy, neighbours=nb)
        else:
            knn_confidence(noisy, report, neighbours=nb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < nb.table.nbytes


@pytest.mark.parametrize("data", ["normal", "grid ties"])
@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_one_table_serves_every_noise_level(block, data, k, standardize):
    base = gen_normal(300, seed=k) if data == "normal" else grid_dataset(300, 3, seed=k)
    nb = Neighbours(base.features, k=k, standardize=standardize)
    for level in (0.0, 0.1, 0.2, 0.3):
        noisy, _ = inject_label_noise(base, level, seed=7)
        report = noise_filter(noisy, k=k, neighbours=nb)
        want = oracle_noise_filter(noisy, k=k, standardize=standardize)
        assert_same_report(report, want)
        # a table of this noise level's own, or the default one
        assert_same_report(noise_filter(noisy, k=k, neighbours=table_for(noisy, k, standardize)), want)
        ref = oracle_knn_confidence(noisy, want, k=k, standardize=standardize).gamma.tobytes()
        assert knn_confidence(noisy, report, k=k, neighbours=nb).gamma.tobytes() == ref
        own = knn_confidence(noisy, report, k=k, neighbours=table_for(noisy, k, standardize))
        assert own.gamma.tobytes() == ref
        gamma, again = estimate_confidence(noisy, k=k, neighbours=nb)
        assert gamma.gamma.tobytes() == ref
        assert_same_report(again, want)


def test_table_is_a_read_only_copy():
    X = gen_normal(50, seed=1).features.copy()
    nb = Neighbours(X, k=2)
    X[0, 0] += 1.0
    assert not np.array_equal(nb.features, X)
    assert nb.table.shape == (50, 10)
    for a in (nb.features, nb.X, nb.table):
        assert not a.flags.writeable


def test_mismatched_table_rejected():
    noisy, _ = inject_label_noise(gen_normal(60, seed=2), 0.2, seed=3)
    report = noise_filter(noisy)
    other = Dataset(noisy.features[:-1], noisy.labels[:-1])
    shifted = Dataset(noisy.features + 1e-9, noisy.labels)
    calls = (
        lambda ds, **kw: noise_filter(ds, **kw),
        lambda ds, **kw: knn_confidence(ds, report, **kw),
        lambda ds, **kw: estimate_confidence(ds, **kw),
    )
    for call in calls:
        with pytest.raises(ValueError, match="different feature matrix"):
            call(other, neighbours=Neighbours(noisy.features))
        with pytest.raises(ValueError, match="different feature matrix"):
            call(shifted, neighbours=Neighbours(noisy.features))
        with pytest.raises(ValueError, match="holds 10 neighbours per row, k=6 needs 12"):
            call(noisy, k=6, neighbours=Neighbours(noisy.features, k=5))
        # a deeper table serves a smaller k, and every k up to 5 takes the floor depth
        call(noisy, k=2, neighbours=Neighbours(noisy.features, k=6))
        call(noisy, k=5, neighbours=Neighbours(noisy.features, k=1))


def test_raw_table_gives_raw_distances_to_every_function():
    # the second feature on a 1000x scale: raw and z-scored neighbourhoods
    # differ, and each function takes the geometry of the table it is given
    base = gen_normal(200, seed=6)
    noisy, _ = inject_label_noise(Dataset(base.features * [1.0, 1000.0], base.labels), 0.2, seed=7)
    raw = Neighbours(noisy.features, standardize=False)
    want = oracle_noise_filter(noisy, standardize=False)
    ref = oracle_knn_confidence(noisy, want, standardize=False).gamma.tobytes()
    assert ref != oracle_knn_confidence(noisy, oracle_noise_filter(noisy)).gamma.tobytes()
    assert_same_report(noise_filter(noisy, neighbours=raw), want)
    assert knn_confidence(noisy, want, neighbours=raw).gamma.tobytes() == ref
    gamma, report = estimate_confidence(noisy, neighbours=raw)
    assert_same_report(report, want)
    assert gamma.gamma.tobytes() == ref


OVERFLOWING = {
    "six rows": ([[-1e308], [0.0], [1e308], [0.5], [-0.5], [1.0]], [1, -1, 1, -1, 1, -1]),
    # the CLI's overflow input: each row has 19 finite distances, then infs
    "alternating signs": (np.column_stack([(-1.0) ** np.arange(40) * 1e308, np.arange(40.0)]), np.tile([-1, 1], 20)),
}


@pytest.mark.parametrize("data, k", [("six rows", 1), ("six rows", 2), ("alternating signs", 5)])
def test_overflowing_distances_never_rank_a_row_itself(block, caplog, data, k):
    # unscaled, a distance that overflows is inf, as is the entry that masks
    # a row's own distance; the row must still never be its own neighbour
    ds = Dataset(*map(np.asarray, OVERFLOWING[data]))
    nb = assert_exact_table(ds.features, k, caplog, standardize=False, path="blocked")
    assert not np.any(nb.table == np.arange(ds.n)[:, None])
    everyone = FilterReport(n=ds.n, kept=np.arange(ds.n), rounds=())
    with np.errstate(over="ignore"):  # the oracle's differences overflow
        want = oracle_noise_filter(ds, k=k, standardize=False)
        ref = oracle_knn_confidence(ds, everyone, k=k, standardize=False).gamma
    assert_same_report(noise_filter(ds, k=k, neighbours=nb), want)
    gamma = knn_confidence(ds, everyone, k=k, neighbours=nb).gamma
    assert gamma.tobytes() == ref.tobytes()
    if data == "six rows" and k == 1:
        assert gamma[0] == 0.0  # row 1's vote; row 0's own would be 1.0


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_few_rows_match_oracle(n):
    rng = np.random.default_rng(n)
    ds = Dataset(rng.normal(size=(n, 2)), rng.choice([-1, 1], size=n))
    nb = Neighbours(ds.features, k=5)
    assert nb.table.shape == (n, n - 1)
    want = oracle_noise_filter(ds, k=5)
    if n <= 5:
        assert want.aborted and not want.rounds
    assert_same_report(noise_filter(ds, k=5), want)
    assert_same_report(noise_filter(ds, k=5, neighbours=nb), want)


@pytest.mark.parametrize("k", [1, 2])
def test_exhausted_table_re_searches_in_the_vote(k, caplog):
    ds = fallback_dataset(k)
    nb = Neighbours(ds.features, k=k, standardize=False)
    report = noise_filter(ds, k=k, thresholds=(0.6, 0.7), neighbours=nb)
    with caplog.at_level(logging.DEBUG, logger="cbboost.confidence"):
        gamma = knn_confidence(ds, report, k=k, neighbours=nb)
    assert gamma.gamma.tobytes() == oracle_knn_confidence(ds, report, k=k, standardize=False).gamma.tobytes()
    (vote,) = [rec for rec in caplog.records if rec.name == "cbboost.confidence.vote"]
    rows, served, re_searched = vote.args
    assert rows == ds.n and served + re_searched == ds.n
    assert re_searched >= 1
    assert vote.getMessage() == (
        f"knn vote: {ds.n} rows, {served} served from the table, {re_searched} exact re-searches"
    )


def test_re_search_reads_the_refs_column_contiguous(monkeypatch):
    # the re-search's distance planes read contiguous columns of the refs,
    # as the table search reads the matrix
    ds = fallback_dataset(1)
    nb = Neighbours(ds.features, k=1, standardize=False)
    report = noise_filter(ds, k=1, thresholds=(0.6, 0.7), neighbours=nb)
    layouts, k_nearest = [], confidence._k_nearest

    def spy(queries, refs, k, exclude):
        layouts.append(refs.flags.f_contiguous)
        return k_nearest(queries, refs, k, exclude)

    monkeypatch.setattr(confidence, "_k_nearest", spy)
    gamma = knn_confidence(ds, report, k=1, neighbours=nb)
    assert gamma.gamma.tobytes() == oracle_knn_confidence(ds, report, k=1, standardize=False).gamma.tobytes()
    assert layouts and all(layouts)


def oracle_agreement(X, labels, rows, refs, k):
    d2 = oracle_sq_dists(X[rows], X[refs])
    d2[rows[:, None] == refs[None, :]] = np.nan
    nbr = refs[oracle_k_nearest(d2, k)]
    return (labels[nbr] == labels[rows][:, None]).mean(axis=1)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_agreement_matches_the_oracle(data):
    # integer-grid rows tie often; a row's share of agreeing neighbours among
    # any sorted reference set is the full-matrix oracle's, and exactly the
    # rows left with fewer than k live table entries are searched again
    n, p = data.draw(st.integers(2, 80)), data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, min(6, n - 1)))
    X = data.draw(arrays(np.int8, (n, p), elements=st.integers(0, 3))).astype(np.float64)
    labels = data.draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    refs = np.sort(data.draw(st.lists(st.integers(0, n - 1), min_size=k + 1, unique=True)))
    rows = refs if data.draw(st.sampled_from(["filter", "vote"])) == "filter" else np.arange(n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(confidence, "_BLOCK", data.draw(st.sampled_from([64, 1 << 16])))
        nb = Neighbours(X, k=k, standardize=data.draw(st.booleans()))
        agree, redone = nb.agreement(rows, refs, labels, k)
    assert agree.tobytes() == oracle_agreement(nb.X, labels, rows, refs, k).tobytes()
    assert redone == np.count_nonzero(np.isin(nb.table[rows], refs).sum(axis=1) < k)


# --- cell-grid table search against the blocked search and the full matrix ---


def grid_everywhere(mp):
    # every p the cell grid serves takes it from the first row on, however
    # crowded its cells
    mp.setattr(confidence, "_CELL_GRID", {p: (0, *rest) for p, (_, *rest) in confidence._CELL_GRID.items()})
    mp.setattr(confidence, "_CELL_CROWDED", np.inf)


@pytest.fixture
def cells(monkeypatch):
    grid_everywhere(monkeypatch)


def table_builds(caplog):
    return [rec.args for rec in caplog.records if rec.name == "cbboost.confidence.table"]


def einsum_table(X, depth):
    # the blocked search as it was before the plane kernel: each query
    # block's (q, n, p) differences reduced by one einsum, then ranked
    n, p = X.shape
    out = np.empty((n, depth), dtype=np.int64)
    step = max(1, (1 << 16) // (n * p))
    for s in range(0, n, step):
        with np.errstate(over="ignore"):
            d = np.subtract(X[s : s + step, None, :], X[None, :, :], order="C")
            d2 = np.einsum("ijk,ijk->ij", d, d)
        q = np.arange(d2.shape[0])
        d2[q, s + q] = np.nan
        out[s : s + step] = confidence._rank(d2, depth)[0]
    return out


def assert_exact_table(features, k, caplog, standardize=True, path="cells"):
    """The table equals the einsum search and _k_nearest bit for bit, built by the named path."""
    with caplog.at_level(logging.DEBUG, logger="cbboost.confidence.table"):
        caplog.clear()
        nb = Neighbours(features, k=k, standardize=standardize)
    ((rows, depth, got_path, *_),) = table_builds(caplog)
    assert (rows, depth, got_path) == (nb.n, confidence._table_depth(k, nb.n), path)
    if depth:
        assert nb.table.tobytes() == einsum_table(nb.X, depth).tobytes()
        assert nb.table.tobytes() == confidence._k_nearest(nb.X, nb.X, depth, np.arange(nb.n)).tobytes()
    return nb


def assert_cells_match_oracle(ds, k, caplog, standardize=True):
    assert_exact_table(ds.features, k, caplog, standardize=standardize)
    return assert_matches_oracle(ds, k, standardize=standardize)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_cells_grid_ties_match_oracle(cells, block, caplog, p, k):
    ds = grid_dataset(240, p, seed=100 + 10 * p + k)
    _, counts = np.unique(ds.features, axis=0, return_counts=True)
    assert counts.max() > 1
    for standardize in (True, False):
        assert_cells_match_oracle(ds, k, caplog, standardize=standardize)


@pytest.mark.parametrize("side", [1.0, 0.5])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_cells_rows_on_cell_edges(cells, block, caplog, monkeypatch, p, side):
    # integer and half-integer rows with a cell side of 1 or 1/2: every row
    # that is a multiple of the side sits exactly on a cell edge
    monkeypatch.setattr(confidence, "_cell_side", lambda span, n_cells: side)
    rng = np.random.default_rng(p)
    X = rng.integers(0, 13, size=(200, p)) / 2.0
    y = np.where(X.sum(axis=1) + rng.normal(0.0, 1.0, 200) >= 3.0 * p, 1, -1)
    assert_cells_match_oracle(Dataset(X, y), 3, caplog, standardize=False)


def test_cells_constant_column_and_identical_rows(cells, block, caplog):
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.normal(size=150), np.full(150, 2.5), rng.integers(0, 3, 150)])
    y = rng.choice([-1, 1], size=150)
    for standardize in (True, False):
        assert_cells_match_oracle(Dataset(X, y), 5, caplog, standardize=standardize)
    same = Dataset(np.ones((60, 2)), rng.choice([-1, 1], size=60))
    for standardize in (True, False):
        assert_cells_match_oracle(same, 5, caplog, standardize=standardize)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cells_far_apart_clusters(cells, block, caplog, monkeypatch, p):
    # the small cluster holds fewer rows than the table depth, so the grid's
    # counts start its rows at a ring that spans the empty cells to the other
    # cluster: each is ranked once, against rows of both
    rng = np.random.default_rng(p)
    X = np.vstack([rng.normal(size=(150, p)), 1000.0 + rng.normal(size=(8, p))])
    y = np.where(rng.normal(size=158) + X[:, 0] > 0.0, 1, -1)
    assert_cells_match_oracle(Dataset(X, y), 5, caplog, standardize=False)
    lowest, sq_dists = [], confidence._sq_dists

    def spy(queries, refs, cand=None):
        if cand is not None:
            # the lowest candidate of each far row ranked
            lowest.extend(cand[queries[:, 0] > 500.0].min(axis=1))
        return sq_dists(queries, refs, cand)

    monkeypatch.setattr(confidence, "_sq_dists", spy)
    Neighbours(X, k=5, standardize=False)
    assert len(lowest) == 8
    assert max(lowest) < 150


@pytest.mark.parametrize("scale", [1e-150, 1e150])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_cells_extreme_scales_unstandardized(cells, block, caplog, p, scale):
    rng = np.random.default_rng(p)
    X = np.vstack([rng.normal(size=(120, p)), rng.integers(0, 3, size=(60, p))]) * scale
    y = np.where(X.sum(axis=1) >= 0.0, 1, -1)
    assert_cells_match_oracle(Dataset(X, y), 3, caplog, standardize=False)


@pytest.mark.parametrize("n", [2, 5, 6, 11, 12, 21, 22])
def test_cells_few_rows(cells, block, caplog, n):
    rng = np.random.default_rng(n)
    ds = Dataset(rng.normal(size=(n, 2)), rng.choice([-1, 1], size=n))
    nb = assert_exact_table(ds.features, 5, caplog)
    assert nb.table.shape == (n, min(10, n - 1))
    assert_same_report(noise_filter(ds, k=5), oracle_noise_filter(ds, k=5))


def test_cells_noisy_normal_and_shared_table(cells, block, caplog):
    base = gen_normal(600, seed=4)
    nb = assert_exact_table(base.features, 5, caplog)
    for level in (0.1, 0.3):
        noisy, _ = inject_label_noise(base, level, seed=5)
        want = oracle_noise_filter(noisy)
        report = noise_filter(noisy, neighbours=nb)
        assert_same_report(report, want)
        ref = oracle_knn_confidence(noisy, want).gamma.tobytes()
        assert knn_confidence(noisy, report, neighbours=nb).gamma.tobytes() == ref


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cells_starting_rings_match_einsum(data):
    # a dense cluster inside a sparse cloud, on a lattice or not: starting
    # rings differ widely from cell to cell, and lattice rows tie
    n, p, k = data.draw(st.integers(40, 400)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    inner = data.draw(st.integers(0, n))
    spread = data.draw(st.sampled_from([1e-3, 0.05, 1.0]))
    lattice = data.draw(st.sampled_from([None, 0.05, 0.5, 2.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = np.vstack([rng.uniform(-10.0, 10.0, size=(n - inner, p)), rng.normal(0.0, spread, size=(inner, p))])
    if lattice:
        X = np.round(X / lattice) * lattice
    with pytest.MonkeyPatch.context() as mp:
        grid_everywhere(mp)
        mp.setattr(confidence, "_BLOCK", data.draw(st.sampled_from([64, 1 << 16])))
        mp.setattr(confidence, "_k_nearest", None)  # the blocked search would fail here
        nb = Neighbours(X, k=k, standardize=data.draw(st.booleans()))
    assert nb.table.tobytes() == einsum_table(nb.X, confidence._table_depth(k, n)).tobytes()


def cluster_in_a_cloud(seed):
    # a tight cluster inside a sparse cloud: cluster rows meet hundreds of
    # candidates, cloud rows a few dozen
    rng = np.random.default_rng(seed)
    return np.vstack([rng.uniform(-10.0, 10.0, size=(900, 2)), rng.normal(0.0, 0.3, size=(600, 2))])


@pytest.mark.parametrize("data", ["cluster in a cloud", "normal"])
def test_cells_chunks_of_similar_width(cells, block, caplog, monkeypatch, data):
    # each chunk computes at most 4/3 of its rows' real candidate pairs, and
    # its (rows, width, p) temporary stays within the grid's budget for p
    X = cluster_in_a_cloud(seed=2) if data == "cluster in a cloud" else gen_normal(5000, seed=7).features
    chunks, sq_dists = [], confidence._sq_dists

    def spy(queries, refs, cand=None):
        if cand is not None:
            # a list's padding repeats its own row, so its real candidates
            # are the distinct rows it names
            chunks.append((cand.shape, np.count_nonzero(np.diff(cand, axis=1), axis=1) + 1))
        return sq_dists(queries, refs, cand)

    monkeypatch.setattr(confidence, "_sq_dists", spy)
    assert_exact_table(X, 5, caplog)
    widths = np.concatenate([real for _, real in chunks])
    assert widths.max() > 4 * widths.min()
    budget = confidence._BLOCK // confidence._CELL_GRID[X.shape[1]][2]
    for (rows, width), real in chunks:
        assert 3 * rows * width <= 4 * real.sum()
        assert rows == 1 or rows * width * X.shape[1] <= budget


def test_cells_widened_rows_are_those_ranked_again(cells, block, caplog, monkeypatch):
    # the DEBUG line's rows widened are the rows their starting ring did not
    # certify: each of them, and no other row, is ranked again, wider
    ranked, gather_runs = [], confidence._gather_runs

    def spy(order, first, runs, count, width, pad):
        ranked.append(pad)
        return gather_runs(order, first, runs, count, width, pad)

    monkeypatch.setattr(confidence, "_gather_runs", spy)
    X = cluster_in_a_cloud(seed=3)
    assert_exact_table(X, 5, caplog)
    ((*_, widened, _seconds),) = table_builds(caplog)
    _, times = np.unique(np.concatenate(ranked), return_counts=True)
    assert times.size == X.shape[0]
    assert widened == np.count_nonzero(times > 1) > 0


def test_cells_table_peak_memory(cells):
    X = gen_normal(5000, seed=1).features
    tracemalloc.start()
    try:
        Neighbours(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6


@pytest.mark.parametrize("n, path, bound", [
    (5000, "cells", 6e6),
    (5000, "cells", 1.8e6),
    (500, "blocked", 2e6),
])
def test_table_peak_memory_by_path(caplog, n, path, bound):
    # the query blocks' temporaries set the peak of either search
    X = gen_normal(n, seed=1).features
    with caplog.at_level(logging.DEBUG, logger="cbboost.confidence.table"):
        tracemalloc.start()
        try:
            Neighbours(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    ((_, _, got_path, *_),) = table_builds(caplog)
    assert got_path == path
    assert peak < bound


@pytest.mark.parametrize("data, path", [
    ("normal", "cells"),
    ("normal p=5", "blocked"),
    ("cauchy", "blocked"),
])
def test_table_does_not_depend_on_the_block(caplog, monkeypatch, data, path):
    # a row's distances and ranking do not depend on which block holds it
    rng = np.random.default_rng(3)
    X = {
        "normal": gen_normal(5000, seed=1).features,
        "normal p=5": rng.normal(size=(2000, 5)),
        "cauchy": rng.standard_cauchy(size=(2000, 2)),
    }[data]
    with caplog.at_level(logging.DEBUG, logger="cbboost.confidence.table"):
        nb = Neighbours(X)
        monkeypatch.setattr(confidence, "_BLOCK", 1 << 20)
        big = Neighbours(X)
    assert [args[2] for args in table_builds(caplog)] == [path, path]
    assert big.table.tobytes() == nb.table.tobytes()


def test_search_path_by_rows_and_features(caplog):
    assert_exact_table(gen_normal(5000, seed=1).features, 5, caplog, path="cells")
    assert_exact_table(gen_normal(500, seed=1).features, 5, caplog, path="blocked")
    rng = np.random.default_rng(0)
    assert_exact_table(rng.normal(size=(2000, 5)), 5, caplog, path="blocked")
    # heavy tails crowd most rows into a few cells
    assert_exact_table(rng.standard_cauchy(size=(2000, 2)), 5, caplog, path="blocked")
    # a full block of 8 features: summed in plain two-lane order, this
    # table's distance ties split differently
    grid = np.round(2 * np.random.default_rng(59).standard_normal((600, 8)))
    assert_exact_table(grid, 5, caplog, path="blocked")
    for p in (13, 34):
        assert_exact_table(rng.normal(size=(1000, p)), 5, caplog, path="blocked")


def test_wide_rows_share_a_query_block(caplog, monkeypatch):
    # at p=60 a block of _BLOCK terms would hold one query; a block keeps
    # several, each plane within _BLOCK // 8 pairs, and the table its bits
    blocks, sq_dists = [], confidence._sq_dists

    def spy(queries, refs, cand=None):
        blocks.append((queries.shape[0], refs.shape[0]))
        return sq_dists(queries, refs, cand)

    monkeypatch.setattr(confidence, "_sq_dists", spy)
    assert_exact_table(np.random.default_rng(6).normal(size=(1000, 60)), 5, caplog, path="blocked")
    assert min(q for q, _ in blocks) > 1
    assert max(q * m for q, m in blocks) <= confidence._BLOCK // 8


@pytest.mark.parametrize("X", [
    np.array([[-1e308, 0.0], [1e308, 1.0]] * 60),  # the span itself overflows
    np.array([[-1e200, 0.0], [1e200, 1.0]] * 60),  # its square overflows
], ids=["span", "squared span"])
def test_non_finite_spans_take_the_blocked_path(cells, caplog, X):
    X = X + np.arange(120)[:, None]
    assert_exact_table(X, 5, caplog, standardize=False, path="blocked")


def test_table_debug_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="cbboost.confidence.table"):
        Neighbours(gen_normal(40, seed=1).features, k=2)
    (rec,) = [rec for rec in caplog.records if rec.name == "cbboost.confidence.table"]
    assert rec.getMessage().startswith(
        "neighbour table: 40 rows, depth 10, blocked search, 1600 distance pairs, 0 rows widened, "
    )


def test_depth_by_k_under_heavy_re_search(caplog):
    # every k reads a table of the helper's depth, and under 40% noise the
    # cell-grid tables of the floor depth (k=1) and of 2k (k=10) still serve
    # the oracle's reports and votes, k=1 through exact re-searches
    noisy, _ = inject_label_noise(gen_normal(1200, seed=3), 0.4, seed=4)
    tables = {k: assert_exact_table(noisy.features, k, caplog) for k in (1, 2, 5, 10)}
    assert [nb.table.shape[1] for nb in tables.values()] == [10, 10, 10, 20]
    for k in (1, 10):
        nb = tables[k]
        with caplog.at_level(logging.DEBUG, logger="cbboost.confidence"):
            caplog.clear()
            report = noise_filter(noisy, k=k, neighbours=nb)
            gamma = knn_confidence(noisy, report, k=k, neighbours=nb)
        want = oracle_noise_filter(noisy, k=k)
        assert_same_report(report, want)
        assert gamma.gamma.tobytes() == oracle_knn_confidence(noisy, want, k=k).gamma.tobytes()
        (vote,) = [rec for rec in caplog.records if rec.name == "cbboost.confidence.vote"]
        if k == 1:
            assert vote.args[-1] > 0


# --- the search kernels against the forms they replaced ---


def einsum_sq_dists(queries, refs, cand=None):
    # the squared distances as einsum gave them: one einsum over the row-major
    # (q, m, p) differences with every ref, or the (q, c, p) ones with
    # refs[cand] (another layout would change einsum's order of summation)
    d = np.subtract(queries[:, None, :], refs[None] if cand is None else refs[cand], order="C")
    return np.einsum("ijk,ijk->ij", d, d)


def kernel_inputs(rng, kind, p):
    n = 300
    if kind == "ties":
        X = rng.integers(-3, 4, size=(n, p)).astype(np.float64)
    elif kind == "signed zeros":
        X = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1.0], size=(n, p))
    elif kind == "repeated rows":
        X = rng.normal(size=(n // 10, p))[rng.integers(0, n // 10, size=n)]
    elif kind == "mixed scales":
        X = rng.normal(size=(n, p)) * rng.choice([1e-150, 1.0, 1e150], size=(1, p))
    else:
        X = rng.normal(size=(n, p)) * {"tiny": 1e-150, "huge": 1e150}.get(kind, 1.0)
    rows = rng.integers(0, n, size=int(rng.integers(1, 40)))
    cand = rng.integers(0, n, size=(rows.size, int(rng.integers(1, 60))))
    # a list is padded with its own row, sorted like the grid's
    cand[:, rng.integers(0, cand.shape[1]) :] = rows[:, None]
    cand.sort(axis=1)
    return X, rows, cand


@pytest.mark.parametrize("kind", ["ties", "signed zeros", "repeated rows", "normal", "tiny", "huge", "mixed scales"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 40])
def test_plane_kernel_matches_einsum(kind, p):
    # the per-feature planes add in einsum's own order (8-feature blocks, then
    # the rest), so every pair's squared distance has einsum's bits, against
    # every ref and against candidate lists alike
    rng = np.random.default_rng(p * 10 + len(kind))
    for trial in range(20):
        X, rows, cand = kernel_inputs(rng, kind, p)
        every, listed = einsum_sq_dists(X[rows], X), einsum_sq_dists(X[rows], X, cand)
        for refs in (np.asfortranarray(X), X):
            got = confidence._sq_dists(X[rows], refs)
            assert got.shape == every.shape
            assert got.tobytes() == every.tobytes()
            got = confidence._sq_dists(X[rows], refs, cand)
            assert got.shape == cand.shape
            assert got.tobytes() == listed.tobytes()


def running_sum_positions(first, runs):
    # the original build: a running sum of ones that, at each run's start,
    # steps from the end of the run before to that run's first position
    lengths = runs.ravel()
    head, lengths = first.ravel()[lengths > 0], lengths[lengths > 0]
    pos = np.ones(int(lengths.sum()), dtype=np.intp)
    pos[np.cumsum(lengths[:-1])] = head[1:] - head[:-1] - lengths[:-1] + 1
    pos[:1] = head[:1]
    return np.add.accumulate(pos)


@pytest.mark.parametrize("seed", range(10))
def test_gathered_runs_match_the_running_sum_build(seed):
    rng = np.random.default_rng(seed)
    n, q, r = 500, int(rng.integers(1, 30)), int(rng.integers(1, 9))
    order = rng.permutation(n)
    runs = rng.integers(0, 6, size=(q, r)) * (rng.random((q, r)) < 0.7)
    first = rng.integers(0, n - 6, size=(q, r))
    pad = rng.integers(0, n, size=q)
    width = int(runs.sum(axis=1).max()) + int(rng.integers(0, 3))
    cand = confidence._gather_runs(order, first.ravel(), runs.ravel(), runs.sum(axis=1), width, pad)
    want = np.repeat(pad[:, None], width, axis=1)
    want[np.arange(width) < runs.sum(axis=1)[:, None]] = order[running_sum_positions(first, runs)]
    want.sort(axis=1)
    assert cand.tobytes() == want.tobytes()
