"""Per-label confidence estimation for training sets with suspect labels.

The pipeline has two stages. A neighborhood filter repeatedly removes
instances whose k nearest surviving neighbors disagree with their label too
often, under a round-by-round schedule of rising agreement thresholds; the
surviving rows form a cleaner reference set. Confidence for every original
instance (removed ones included) is then estimated against that reference
set, either as the fraction of its k nearest reference neighbors sharing its
label, or from class-conditional Gaussians fitted on the reference set behind
a prior that accounts for a known flip rate.

Distances are Euclidean on z-scored features (raw from a Neighbours table built
with standardize=False); the scaler is fitted once on the full dataset so
filtering never shifts the geometry. Neighbor ties resolve to the lower row index.

Neighbors are found exactly and no n x n matrix is ever held. A Neighbours
table, built once per feature matrix, holds every row's max(2k, 10) nearest
other rows; every filter round and the kNN vote are served from it, searching
again only for a row with fewer than k live table entries left (in practice,
rows whose entire neighbourhood the filter removed). The table depends on
the features alone, so all noise levels of one training set can share it.
With at most three features and at least a thousand or so rows, the table
comes from a uniform cell grid (Bentley 1975): each row ranks only the rows
of the cells around its own, widening the ring of cells until no row outside
can come closer, so the search grows about linearly in n. Rows are ranked
in chunks of similar candidate counts, so at most a quarter of the pairs a
chunk computes are padding. Otherwise it is a brute-force O(n^2) search in
query blocks of about 65 thousand (query, row, feature) terms (512 KB, sized
to stay in cache), or one query's n*p when that is more. Both searches sum a
block's squared distances one (queries, rows) plane per feature, read from
the column-contiguous z-scored matrix, in the order numpy's einsum adds the
terms of each pair, so both give the same table bit for bit, with the same
tie rule, in O(block + n*k) memory. The
filter rounds and the vote read the table in blocks of rows as well and
compare labels there, so serving holds the n-vector of label agreement it
returns plus one block.
CBBOOST_LOG=DEBUG logs one line per table build (rows, depth, search path,
distance pairs computed, rows that needed a wider ring, seconds), one per
filter round (threshold, survivors in, rows removed, re-searched rows) and
one per vote (rows, rows served from the table, re-searched rows).
"""

from __future__ import annotations

import csv
import itertools
import logging
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, NoiseMask
from .util import frozen

__all__ = [
    "ConfidenceVector",
    "FilterRound",
    "FilterReport",
    "Neighbours",
    "noise_filter",
    "knn_confidence",
    "bayes_confidence",
    "estimate_confidence",
    "confidence_quality",
    "GroupStats",
    "write_gamma_csv",
    "read_gamma_csv",
    "check_settings",
    "DEFAULT_THRESHOLDS",
    "DEFAULT_K",
    "CONFIDENCE_METHODS",
    "FORMS",
]

DEFAULT_THRESHOLDS = (0.07, 0.14, 0.21)
DEFAULT_K = 5
# estimate_confidence's scoring stages, and bayes_confidence's two priors
CONFIDENCE_METHODS = ("knn", "bayes")
FORMS = ("consistent", "paper-literal")

# (query, row, feature) terms in one query block, 512 KB of doubles over its
# distance planes (cache-sized). A row's distances and ranking do not depend
# on its block, so the size moves only memory and time: against 1 << 20 it
# cut the table's tracemalloc peak ~5x at n = 500 and ~2x at n = 5000 (normal
# data) at the same speed on a 2-vCPU x86 host, where 1 << 15 was slower at
# n = 500.
_BLOCK = 1 << 16
# features p -> (fewest rows, rows per cell) of the cell-grid table search.
# The fewest rows are the measured crossover with the blocked search; rows per
# cell, averaged over the bounding box, measured fastest on normal and uniform
# data at n = 2000 to 20000 (smaller cells pay in more dimensions, where a
# ring of cells holds more rows). Other p take the blocked search.
_CELL_GRID = {1: (1000, 8.0), 2: (1000, 2.0), 3: (2000, 0.5)}
# a grid whose first ring of cells would hold more than this share of the n^2
# pairs (heavy tails or tight clusters crowd most rows into a few cells) is
# dropped for the blocked search, which computes a pair several times faster
_CELL_CROWDED = 1 / 8

log = logging.getLogger(__name__)
# a child logger, so a handler on the filter's rounds can tell the vote apart
vote_log = logging.getLogger(__name__ + ".vote")
table_log = logging.getLogger(__name__ + ".table")


@dataclass(frozen=True)
class ConfidenceVector:
    """gamma[i] = estimated probability that observed label i is correct."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim != 1 or g.size < 1:
            raise ValueError(f"gamma must be a non-empty 1-d array, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("gamma must be finite")
        if np.any(g < 0.0) or np.any(g > 1.0):
            bad = int(np.flatnonzero((g < 0.0) | (g > 1.0))[0])
            raise ValueError(f"gamma[{bad}] = {g[bad]} outside [0, 1]")
        object.__setattr__(self, "gamma", frozen(g))

    @property
    def n(self) -> int:
        return self.gamma.size


@dataclass(frozen=True)
class FilterRound:
    """One filtering round: its agreement threshold and the rows it removed."""

    threshold: float
    removed: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.removed, dtype=np.int64)
        object.__setattr__(self, "removed", frozen(np.sort(r)))


@dataclass(frozen=True)
class FilterReport:
    """Outcome of the iterative neighborhood filter.

    kept and the union of per-round removals partition range(n). aborted is
    set when a round could not run because too few rows survived.
    """

    n: int
    kept: np.ndarray
    rounds: tuple[FilterRound, ...]
    aborted: bool = False

    def __post_init__(self):
        kept = np.sort(np.asarray(self.kept, dtype=np.int64))
        removed = [r.removed for r in self.rounds]
        allidx = np.concatenate([kept] + removed) if removed else kept
        if not np.array_equal(np.sort(allidx), np.arange(self.n)):
            raise ValueError("kept plus removed rows must partition range(n) exactly")
        object.__setattr__(self, "kept", frozen(kept))
        object.__setattr__(self, "rounds", tuple(self.rounds))

    @property
    def n_kept(self) -> int:
        return self.kept.size


def _sq_dists(queries: np.ndarray, refs: np.ndarray, cand: np.ndarray | None = None) -> np.ndarray:
    # exact per-pair differences; the usual |a|^2 + |b|^2 - 2ab expansion is
    # faster but its rounding can split true distance ties, which would break
    # the lower-index tie rule. Every query meets all m refs, or with cand
    # (q, c) query i meets refs[cand[i]] only (the cell grid's). Each feature
    # gives one (q, m) or (q, c) plane, d = q_j - r_j then d * d (read from a
    # contiguous column when refs is column-contiguous, as Neighbours.X is),
    # and the planes add in the order einsum("ijk,ijk->ij") adds the row-major
    # (q, m, p) differences, the reference the tests hold: two lanes, lane
    # j % 2 taking feature j; a full block of 8 features from b gives lane L
    # s[b+L] + (s[b+2+L] + (s[b+4+L] + (s[b+6+L] + lane))), the rest add in
    # order, then lane 0 + lane 1. So p <= 3 gives d0^2, d0^2 + d1^2 and
    # (d0^2 + d2^2) + d1^2. Squares that overflow give inf without a warning,
    # as the einsum reference does.
    p = refs.shape[1]
    blocks = p - p % 8
    lanes, d = [None, None], None
    with np.errstate(over="ignore"):
        # lane 0 is summed before lane 1 starts: at most three planes are
        # held, two for p <= 3
        for L in (0, 1):
            inner = (b + i + L for b in range(0, blocks, 8) for i in (6, 4, 2, 0))
            for j in (*inner, *range(blocks + L, p, 2)):
                if cand is None:
                    d = np.subtract(queries[:, j, None], refs[:, j], out=d)
                else:
                    # into the spent plane; take's default mode would copy
                    # through a buffer, and cand names rows of refs only
                    d = refs[:, j].take(cand, out=d, mode="wrap")
                    np.subtract(queries[:, j, None], d, out=d)
                np.multiply(d, d, out=d)
                if lanes[L] is None:
                    lanes[L], d = d, None
                else:
                    np.add(lanes[L], d, out=lanes[L])
        return lanes[0] if lanes[1] is None else np.add(lanes[0], lanes[1], out=lanes[0])


def _k_nearest(queries: np.ndarray, refs: np.ndarray, k: int, exclude: np.ndarray) -> np.ndarray:
    """Reference positions of each query's k nearest refs, in (distance, position) order.

    exclude[i] >= 0 names a reference position query i may not pick (itself);
    -1 excludes nothing. Queries run in blocks so a block's distance planes
    stay near _BLOCK doubles together. A row is ordered by sorting its
    argpartition top-k; a row where ties straddle the k-th distance is redone
    from all candidates at or below it, so equal distances always resolve to
    the lower position.
    """
    m, p = refs.shape
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    step = max(1, _BLOCK // (m * p))
    for s in range(0, queries.shape[0], step):
        d2 = _sq_dists(queries[s : s + step], refs)
        ex = exclude[s : s + step]
        own = ex >= 0
        d2[own, ex[own]] = np.inf
        out[s : s + step], kth = _rank(d2, k)
        # a distance that overflows ties with that inf: such a row ranks again with it NaN, sorted last
        for r in (np.isinf(kth) & own).nonzero()[0]:
            d2[r, ex[r]] = np.nan
            out[s + r] = _rank(d2[r, None], k)[0]
    return out


def _rank(d2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of each row's k smallest d2 in (distance, position) order, and the k-th distance."""
    # methods and plain gathers, not their np.* wrappers: a small query block
    # runs this once per few rows
    top = np.argpartition(d2, k - 1, axis=1)[:, :k]
    top.sort(axis=1)
    rows = np.arange(d2.shape[0])[:, None]
    td = d2[rows, top]
    nearest = top[rows, td.argsort(axis=1, kind="stable")]
    kth = td.max(axis=1, keepdims=True)
    for r in ((d2 <= kth).sum(axis=1) > k).nonzero()[0]:
        cand = np.flatnonzero(d2[r] <= kth[r])
        nearest[r] = cand[np.argsort(d2[r, cand], kind="stable")[:k]]
    return nearest, kth[:, 0]


def _cell_side(span: np.ndarray, cells: float) -> float:
    # equal-sided cells, about `cells` of them over the bounding box; a
    # dimension spanning less than one side gets a single cell, and the side
    # is solved over the others (in logs, so tiny or huge spans cannot overflow)
    s = np.sort(span[span > 0])[::-1]
    for m in range(s.size, 0, -1):
        side = float(np.exp((np.sum(np.log(s[:m])) - np.log(cells)) / m))
        if s[m - 1] >= side:
            return side
    return 1.0


def _cell_table(X: np.ndarray, depth: int) -> tuple[np.ndarray, int, int] | None:
    """_k_nearest(X, X, depth, range(n)), found through a uniform cell grid.

    Rows are bucketed into equal-sided cells. A row's candidates are the rows
    of the (2R+1)^p cells around its own, sorted by row index and ranked with
    the _sq_dists arithmetic and the _rank tie rule. The ranking is exact once
    the depth-th candidate distance lies strictly below every distance a row
    outside the block can have, and a block that covers the grid is always
    exact. The bound comes from the rows themselves: per dimension, the
    largest coordinate in the cells below the block and the smallest in the
    cells above. Rounding is monotone, so no outside row's computed squared
    distance can fall below the computed square of the row's gap to those
    coordinates (clamped at zero), and no slack is needed. A row short of the
    bound retries with the ring its depth-th distance calls for, at least R+1;
    a row with too few candidates doubles R. Queries are taken in order of
    width, in chunks whose rows are at least 3/4 as wide as their first; a
    chunk is padded to that first row's width, so at most a quarter of its
    pairs are padding, and its queries x candidates x p stay near _BLOCK (its
    distance planes hold two (queries, candidates) arrays at most). Returns the table, the distance pairs computed (padding
    included) and the number of rows that needed a wider ring; or None, before
    any distance is computed, where the blocked search is the one to use: too
    many features or too few rows (_CELL_GRID), a span whose squares overflow
    (infinite distances, which no bound can separate) or cells too crowded to
    pay (_CELL_CROWDED).
    """
    n, p = X.shape
    if p not in _CELL_GRID or n < _CELL_GRID[p][0]:
        return None
    with np.errstate(over="ignore"):
        span = np.ptp(X, axis=0)
        if not np.isfinite(np.sum(np.square(span))):
            return None
    side = _cell_side(span, n / _CELL_GRID[p][1])
    # the grid reads X's columns with the dimension with the most cells last,
    # so a block is a few long runs of consecutive cells
    G = [X[:, f] for f in np.argsort(span, kind="stable")]
    lo = np.array([g.min() for g in G])
    shape = ((np.array([g.max() for g in G]) - lo) // side).astype(np.int64) + 1
    coord = np.column_stack(
        [np.minimum(((g - g0) // side).astype(np.int64), s - 1) for g, g0, s in zip(G, lo, shape)]
    )
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
    cell = coord @ strides
    counts = np.bincount(cell, minlength=int(np.prod(shape)))
    # rows in the 3^p cells around each cell: the first ring's candidates
    near = counts.reshape(shape)
    for f in range(p):
        near = np.moveaxis(near, f, 0)
        ring1 = near.copy()
        ring1[1:] += near[:-1]
        ring1[:-1] += near[1:]
        near = np.moveaxis(ring1, 0, f)
    if counts @ near.ravel() > _CELL_CROWDED * n * n:
        return None
    order = np.argsort(cell, kind="stable")
    starts = np.append(0, np.cumsum(counts))
    # below[f][c]: the largest G[:, f] in cells with coordinate < c along f;
    # above[f][c]: the smallest in cells with coordinate >= c (+-inf if none)
    below, above = [], []
    for f in range(p):
        hi = np.full(shape[f], -np.inf)
        np.maximum.at(hi, coord[:, f], G[f])
        mn = np.full(shape[f], np.inf)
        np.minimum.at(mn, coord[:, f], G[f])
        below.append(np.append(-np.inf, np.maximum.accumulate(hi)))
        above.append(np.append(np.minimum.accumulate(mn[::-1])[::-1], np.inf))
    # the working table in 32 bits while row indices fit, half the memory;
    # Neighbours keeps an int64 copy
    table = np.empty((n, depth), dtype=np.int32 if n < 2**31 else np.int64)
    pairs = widened = 0
    full = int(shape.max()) - 1  # the ring that covers the whole grid
    pending, rings = order, np.ones(n, dtype=np.int64)
    while pending.size:
        ring = int(rings.min())
        now = rings == ring
        retry, retry_rings = [pending[~now]], [rings[~now]]
        # the block's runs of cells along the last dimension, one per offset
        # of the leading ones; each run is a contiguous slice of `order`
        reach = [range(-min(ring, s - 1), min(ring, s - 1) + 1) for s in shape[:-1]]
        offs = list(itertools.product(*reach))
        offs = np.array(offs, dtype=np.int64).reshape(len(offs), p - 1)
        todo = pending[now]
        step = max(1, _BLOCK // (offs.shape[0] * p))
        for s in range(0, todo.size, step):
            rows = todo[s : s + step]
            c = coord[rows]
            lead = c[:, None, :-1] + offs
            inside = np.all((lead >= 0) & (lead < shape[:-1]), axis=2)
            base = np.where(inside, lead @ strides[:-1], 0)
            first = starts[base + np.maximum(c[:, -1:] - ring, 0)]
            runs = np.where(inside, starts[base + np.minimum(c[:, -1:] + ring, shape[-1] - 1) + 1] - first, 0)
            del lead, inside, base  # the chunks below set the peak; these are spent
            width = runs.sum(axis=1)
            gap = np.full(rows.size, np.inf)
            for f in range(p):
                g = G[f][rows]
                gap = np.minimum(gap, g - below[f][np.maximum(c[:, f] - ring, 0)])
                gap = np.minimum(gap, above[f][np.minimum(c[:, f] + ring + 1, shape[f])] - g)
            bound = np.square(np.maximum(gap, 0.0))
            short = width <= depth
            retry.append(rows[short])
            retry_rings.append(np.full(np.count_nonzero(short), min(2 * ring, full)))
            wide = np.flatnonzero(~short)
            wide = wide[np.argsort(-width[wide], kind="stable")]
            # -4 * width ascends; a chunk keeps the rows at least 3/4 as wide as its first
            falling = -4 * width[wide]
            q = 0
            while q < wide.size:
                w = int(width[wide[q]])
                end = min(q + max(1, _BLOCK // (w * p)), int(np.searchsorted(falling, -3 * w, side="right")))
                chunk = wide[q:end]
                q = end
                # a list is padded with its own row, which is masked out with it
                cand = _gather_runs(order, first[chunk], runs[chunk], w, rows[chunk])
                d2 = _sq_dists(X[rows[chunk]], X, cand)
                d2[cand == rows[chunk, None]] = np.inf
                pairs += d2.size
                nearest, kth = _rank(d2, depth)
                done = (kth < bound[chunk]) | np.isinf(bound[chunk])
                table[rows[chunk[done]]] = np.take_along_axis(cand[done], nearest[done], axis=1)
                retry.append(rows[chunk[~done]])
                # a ring R keeps rows nearer than R cell sides inside the block
                need = np.minimum(np.ceil(np.sqrt(kth[~done]) / side), full)
                retry_rings.append(np.maximum(need.astype(np.int64), ring + 1))
                del cand, d2, nearest  # spent; not held through the next chunk's gather
        pending, rings = np.concatenate(retry), np.concatenate(retry_rings)
        if ring == 1:
            widened = pending.size
    return table, pairs, widened


def _gather_runs(order: np.ndarray, first: np.ndarray, runs: np.ndarray, width: int, pad: np.ndarray) -> np.ndarray:
    """Each query's rows order[first[i, j] : first[i, j] + runs[i, j]] over j, padded with
    pad[i] to `width` columns and sorted, so candidate position follows row index."""
    count = runs.sum(axis=1)
    lengths = runs.ravel()
    some = lengths > 0
    head, lengths = first.ravel()[some], lengths[some]
    # the runs back to back: entry t of run r, which starts at entry s_r,
    # reads position head[r] + (t - s_r)
    ends = np.cumsum(lengths)
    pos = np.repeat(head - (ends - lengths), lengths)
    pos += np.arange(pos.size)
    cand = np.repeat(pad.astype(np.int64)[:, None], width, axis=1)
    # a query's first count[i] columns, in row-major order like its runs
    cand[np.arange(width) < count[:, None]] = order[pos]
    cand.sort(axis=1)
    return cand


def check_settings(k: int = DEFAULT_K, thresholds=DEFAULT_THRESHOLDS, form: str = "consistent",
                   method: str = "knn", noise_level=None) -> tuple:
    """Reject a bad neighbour count, filter schedule, Bayes form or scoring method.

    Returns the thresholds as floats. The confidence functions and a benchmark
    grid's config check here, so bad settings fail before a grid or a table search runs.
    """
    thresholds = tuple(float(t) for t in thresholds)
    if any(not (0.0 < t < 1.0) for t in thresholds):
        raise ValueError(f"thresholds must lie in (0, 1), got {thresholds}")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must be strictly increasing, got {thresholds}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if form not in FORMS:
        raise ValueError(f"form must be {' or '.join(map(repr, FORMS))}, got {form!r}")
    if method not in CONFIDENCE_METHODS:
        raise ValueError(
            f"unknown confidence method {method!r}, expected {' or '.join(map(repr, CONFIDENCE_METHODS))}"
        )
    if method == "bayes" and noise_level is None:
        raise ValueError("bayes confidence requires a noise_level")
    return thresholds


def _standardized(ds: Dataset, standardize: bool) -> np.ndarray:
    """The features z-scored by column (population std; a constant column is scaled by 1).

    A read-only column-contiguous copy, so a distance plane reads one contiguous column.
    """
    X = np.array(ds.features, order="F")
    if standardize:
        # a moment that overflows is refused below, with no numpy warning first
        with np.errstate(over="ignore"):
            mu = ds.features.mean(axis=0)
            sd = ds.features.std(axis=0)
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sd))):
            raise ValueError("cannot standardize: a feature column's mean or standard deviation overflows")
        X -= mu
        X /= np.where(sd == 0.0, 1.0, sd)
    X.flags.writeable = False
    return X


def _table_depth(k: int, n: int) -> int:
    """Neighbours per row that a table serving k keeps: min(max(2k, 10), n - 1).

    A row left with fewer than k live entries is searched again exactly, so
    the depth moves time and memory, never results. On normal data with 20%
    and 40% noise (n = 5000 and 20000), 2k re-searched at most 0.4% of the
    rows from k = 5 on, in 0.55-0.8 of the time of 4k, and the floor of 10
    keeps k = 1's re-searches under 3% of the rows (18% at depth 4).
    """
    return min(max(2 * k, 10), n - 1)


class Neighbours:
    """Every row's nearest other rows of one feature matrix, searched once.

    X holds the matrix distances are taken on (z-scored, or raw for every
    stage the table serves under standardize=False), column-contiguous so the
    searches read whole columns, and table[i] row i's _table_depth(k, n)
    nearest other rows in (distance, index) order. The table depends on the
    features alone, so the filter, the vote and every label vector drawn over
    the same features can share it. The arrays are read-only copies, so the
    table cannot fall out of step with the matrix it was built from.
    """

    def __init__(self, features, k: int = DEFAULT_K, standardize: bool = True):
        check_settings(k=k)
        # the scaler reads only the features; the labels are placeholders
        ds = Dataset(features, np.ones(np.shape(features)[:1], dtype=np.int64))
        self.features = ds.features
        self.X = _standardized(ds, standardize)
        depth = _table_depth(k, ds.n)
        t0 = time.perf_counter()
        found = _cell_table(self.X, depth) if depth else None
        if found is not None:
            (table, pairs, widened), path = found, "cells"
        elif depth:
            table = _k_nearest(self.X, self.X, depth, np.arange(ds.n))
            path, pairs, widened = "blocked", ds.n * ds.n, 0
        else:
            table, path, pairs, widened = np.empty((ds.n, 0), dtype=np.int64), "blocked", 0, 0
        table_log.debug(
            "neighbour table: %d rows, depth %d, %s search, %d distance pairs, %d rows widened, %.3f s",
            ds.n, depth, path, pairs, widened, time.perf_counter() - t0,
        )
        self.table = frozen(table, np.int64)

    @property
    def n(self) -> int:
        return self.table.shape[0]

    def agreement(self, rows: np.ndarray, refs: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, int]:
        """The share of each of rows' k nearest rows among the sorted refs, self
        excluded, whose label equals the row's own.

        A row's first k table entries in refs are exactly its k nearest refs
        under the (distance, index) rule, because the table is a prefix of
        that order over all rows. Rows with fewer than k such entries are
        searched again among refs. Rows are served in blocks, like
        _k_nearest's queries: a block's four (rows, depth) integer
        temporaries hold about _BLOCK entries together, and its labels are
        compared there, so no (rows, k) array outlives its block. Returns the
        shares and the number of rows searched again.
        """
        alive = np.zeros(self.n, dtype=bool)
        alive[refs] = True
        agree = np.empty(rows.size)
        short = np.empty(rows.size, dtype=bool)
        step = max(1, _BLOCK // (4 * max(1, self.table.shape[1])))
        for s in range(0, rows.size, step):
            block = rows[s : s + step]
            cand = self.table[block]
            live = alive[cand]
            take = live & (np.cumsum(live, axis=1) <= k)
            few = short[s : s + step] = np.count_nonzero(take, axis=1) < k
            nbr = cand[~few][take[~few]].reshape(-1, k)
            agree[s : s + step][~few] = _share_agreeing(labels, block[~few], nbr)
        redo = np.flatnonzero(short)
        if redo.size:
            queries = rows[redo]
            # each query's position among refs, or -1 where it is not one
            at = np.minimum(np.searchsorted(refs, queries), refs.size - 1)
            own = np.where(refs[at] == queries, at, -1)
            # the refs column-contiguous, as the table search reads them (a
            # fancy index would copy them row-major)
            nbr = refs[_k_nearest(self.X[queries], self.X.T.take(refs, axis=1).T, k, own)]
            agree[redo] = _share_agreeing(labels, queries, nbr)
        return agree, redo.size


def _share_agreeing(labels: np.ndarray, rows: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    return (labels[nbr] == labels[rows][:, None]).mean(axis=1)


def _neighbours_for(ds: Dataset, neighbours: Neighbours | None, k: int) -> Neighbours:
    if neighbours is None:
        return Neighbours(ds.features, k)
    if not np.array_equal(neighbours.features, ds.features):
        raise ValueError("neighbour table was built from a different feature matrix")
    depth, need = neighbours.table.shape[1], _table_depth(k, ds.n)
    if depth < need:
        raise ValueError(f"neighbour table holds {depth} neighbours per row, k={k} needs {need}")
    return neighbours


def noise_filter(
    ds: Dataset,
    k: int = DEFAULT_K,
    thresholds=DEFAULT_THRESHOLDS,
    neighbours: Neighbours | None = None,
) -> FilterReport:
    """Iteratively remove rows whose neighborhood agreement falls below a rising bar.

    Each round recomputes k-nearest neighborhoods among current survivors
    (self excluded) and removes every row whose fraction of label-agreeing
    neighbors is strictly below that round's threshold. If at any round the
    survivor count is k or fewer the filter stops and flags the report
    aborted rather than divide up a too-small set. Neighbourhoods are served
    from `neighbours`, built here (z-scored) from ds when not given.
    """
    thresholds = check_settings(k=k, thresholds=thresholds)
    nb = _neighbours_for(ds, neighbours, k)
    surv = np.arange(ds.n)
    rounds: list[FilterRound] = []
    aborted = False
    for r, t in enumerate(thresholds, start=1):
        if surv.size <= k:
            aborted = True
            break
        agree, redone = nb.agreement(surv, surv, ds.labels, k)
        out = agree < t
        log.debug(
            "filter round %d: threshold %g, %d survivors in, %d removed, %d exact re-searches",
            r, t, surv.size, np.count_nonzero(out), redone,
        )
        rounds.append(FilterRound(t, surv[out]))
        surv = surv[~out]
    return FilterReport(n=ds.n, kept=surv, rounds=tuple(rounds), aborted=aborted)


def _kept_rows(ds: Dataset, reduced: FilterReport) -> np.ndarray:
    # a report filtered on another dataset names rows of that set, not of ds
    if reduced.n != ds.n:
        raise ValueError(f"filter report covers {reduced.n} rows but the dataset has {ds.n}")
    return reduced.kept


def knn_confidence(
    ds: Dataset,
    reduced: FilterReport,
    k: int = DEFAULT_K,
    neighbours: Neighbours | None = None,
) -> ConfidenceVector:
    """Fraction of the k nearest kept-set neighbors sharing each row's label.

    Confidence is produced for every row of ds, removed rows included. A kept
    row never counts itself among its neighbors. Values land on the grid
    {0, 1/k, ..., 1}, and relabeling a row to the opposite class maps its
    confidence g to 1 - g. Neighbours are served from `neighbours`, built
    here (z-scored) from ds when not given.
    """
    # check a given table, then the report, before building a table (the costly search)
    nb = None if neighbours is None else _neighbours_for(ds, neighbours, k)
    kept = _kept_rows(ds, reduced)
    if kept.size <= k:
        raise ValueError(f"reference set has {kept.size} rows, need more than k={k}")
    if nb is None:
        nb = Neighbours(ds.features, k)
    gamma, redone = nb.agreement(np.arange(ds.n), kept, ds.labels, k)
    vote_log.debug(
        "knn vote: %d rows, %d served from the table, %d exact re-searches", ds.n, ds.n - redone, redone
    )
    return ConfidenceVector(gamma)


def bayes_confidence(
    ds: Dataset,
    reduced: FilterReport,
    noise_level: float,
    form: str = "consistent",
) -> ConfidenceVector:
    """Confidence from class-conditional Gaussians behind a flip-aware prior.

    Gaussians with full covariance are fitted by maximum likelihood on the
    kept rows of each class; class priors are sample proportions over the
    full dataset. With e = noise_level, f_y the fitted density under the
    observed label's class and f_o under the other class, confidence is

        (P(y) - e) f_y / [ (P(y) - e) f_y + b f_o ]

    where b = 1 - P(y) - e under form="consistent" (both mixture weights
    discount the flip rate) and b = e under form="paper-literal"; the forms
    coincide exactly where 1 - P(y) - e equals e. Densities are evaluated in
    log space; a singular covariance is ridged with 1e-6 I under a
    RuntimeWarning.
    """
    check_settings(form=form)
    if not (0.0 <= noise_level < 0.5):
        raise ValueError(f"noise_level must lie in [0, 0.5), got {noise_level}")
    kept = _kept_rows(ds, reduced)
    Xr = ds.features[kept]
    yr = ds.labels[kept]
    p = ds.p
    params = {}
    for c in (1, -1):
        Xc = Xr[yr == c]
        if Xc.shape[0] < p + 2:
            raise ValueError(
                f"class {c:+d} has {Xc.shape[0]} kept rows, need at least p+2={p + 2} to fit a Gaussian"
            )
        mu = Xc.mean(axis=0)
        Z = Xc - mu
        cov = Z.T @ Z / Xc.shape[0]
        try:
            L = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            warnings.warn(
                f"singular covariance for class {c:+d}, adding ridge 1e-6", RuntimeWarning
            )
            cov = cov + 1e-6 * np.eye(p)
            L = np.linalg.cholesky(cov)
        params[c] = (mu, L)
    prior_pos = float(np.mean(ds.labels == 1))
    prior = {1: prior_pos, -1: 1.0 - prior_pos}
    if noise_level >= min(prior.values()):
        raise ValueError(
            f"noise_level {noise_level} must be below the smaller class proportion "
            f"{min(prior.values()):.6g}"
        )

    def logpdf(X, mu, L):
        z = np.linalg.solve(L, (X - mu).T)
        maha = np.sum(z * z, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        return -0.5 * (p * np.log(2.0 * np.pi) + logdet + maha)

    lp = {c: logpdf(ds.features, *params[c]) for c in (1, -1)}
    is_pos = ds.labels == 1
    log_f_y = np.where(is_pos, lp[1], lp[-1])
    log_f_o = np.where(is_pos, lp[-1], lp[1])
    p_y = np.where(is_pos, prior[1], prior[-1])
    a_coef = p_y - noise_level
    if form == "consistent":
        b_coef = 1.0 - p_y - noise_level
    else:
        b_coef = np.full(ds.n, noise_level)
    with np.errstate(divide="ignore"):
        log_a = np.log(a_coef) + log_f_y
        log_b = np.log(b_coef) + log_f_o
    with np.errstate(over="ignore"):
        gamma = 1.0 / (1.0 + np.exp(log_b - log_a))
    return ConfidenceVector(np.clip(gamma, 0.0, 1.0))


def estimate_confidence(
    ds: Dataset,
    method: str = "knn",
    k: int = DEFAULT_K,
    thresholds=DEFAULT_THRESHOLDS,
    noise_level: float | None = None,
    form: str = "consistent",
    neighbours: Neighbours | None = None,
) -> tuple[ConfidenceVector, FilterReport]:
    """Filter then score: the standard two-stage confidence pipeline.

    Both stages read one neighbour table: `neighbours` when given, else one
    built here from ds. noise_level is the assumed flip rate: bayes requires
    it and knn ignores it, so a caller can pass its level for either method.
    """
    # rejected before the table search, which dominates the cost of a call
    check_settings(k=k, thresholds=thresholds, method=method, noise_level=noise_level)
    nb = _neighbours_for(ds, neighbours, k)
    report = noise_filter(ds, k=k, thresholds=thresholds, neighbours=nb)
    if method == "knn":
        return knn_confidence(ds, report, k=k, neighbours=nb), report
    return bayes_confidence(ds, report, noise_level, form=form), report


@dataclass(frozen=True)
class GroupStats:
    mean: float
    std: float
    count: int


def confidence_quality(gamma: ConfidenceVector, mask: NoiseMask) -> dict:
    """Mean/std of confidence over clean rows and over flipped rows.

    An empty group maps to None rather than NaN statistics.
    """
    g = gamma.gamma
    f = mask.flipped
    if g.size != f.size:
        raise ValueError(f"confidence length {g.size} does not match mask length {f.size}")
    out = {}
    for name, sel in (("clean", ~f), ("mislabeled", f)):
        if not sel.any():
            out[name] = None
        else:
            out[name] = GroupStats(float(g[sel].mean()), float(g[sel].std()), int(sel.sum()))
    return out


def write_gamma_csv(gamma: ConfidenceVector, path) -> None:
    """One column named gamma, one row per instance, repr floats (exact round-trip)."""
    with open(path, "w", newline="") as fh:
        fh.write("gamma\n")
        for v in gamma.gamma:
            fh.write(repr(float(v)) + "\n")


def read_gamma_csv(path) -> ConfidenceVector:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a 'gamma' header") from None
        if [h.strip() for h in header] != ["gamma"]:
            raise ValueError(f"{path}: expected a single column named 'gamma', got {header}")
        vals = []
        for r, rec in enumerate(reader, start=1):
            if len(rec) != 1 or rec[0].strip() == "":
                raise ValueError(f"{path}: row {r} must hold exactly one value")
            try:
                v = float(rec[0])
            except ValueError:
                raise ValueError(f"{path}: unparseable value {rec[0]!r} at row {r}") from None
            # nan fails both comparisons, so non-finite values land here too
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{path}: gamma {rec[0]!r} at row {r} outside [0, 1]")
            vals.append(v)
    if not vals:
        raise ValueError(f"{path}: no data rows")
    return ConfidenceVector(np.asarray(vals))
