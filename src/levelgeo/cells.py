"""The nearest-sample index of a point cloud, in numpy alone.

levelset.PointCloud builds one _CellIndex from its samples when it is made,
and imports this module only then, so a run on an analytic surface never
compiles it.  The samples are sorted once by the Z-order key of their cubic
cell, of side 0.4 (largest extent) / n^(1/3), so each cell, and each coarser
cell of 4, 8, 16, ... cells a side, is one run of the sort.  A query row is
exact from the 3 x 3 x 3 cells around its own when their nearest distance,
times the tie band 1 + 1e-12, is below the distance to the block's outer
faces less a margin for the rounding of the cell assignment: no sample
outside is nearer or ties, and that distance bounds them.  Any other row
descends the coarser cells from the root, dropping each whose box lies
beyond the tie band of the nearest distance yet (to the middle samples of
the cells it visits).  A box bound is computed from the gaps to the box as a
distance is from x - p, so by the monotonicity of rounding it bounds the
computed distances inside.  Every distance is _row_norms(x - p), and ties go
to the lowest sample index.
"""

import numpy as np

from .curve import _row_norms


def _ranges(starts, counts):
    """The ranges [start, start + count) laid end to end, as one index array."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _halves(method, x, *rows):
    """method on each half of the rows of x and of each array in rows, joined."""
    h = len(x) // 2
    parts = zip(method(x[:h], *(r[:h] for r in rows)), method(x[h:], *(r[h:] for r in rows)))
    return tuple(np.concatenate(part) for part in parts)


class _CellIndex:
    """Exact nearest samples of a point set, as the module describes."""

    def __init__(self, points):
        n = len(points)
        self.lo, self.hi = (np.array([f(points[:, i]) for i in range(3)]) for f in (np.min, np.max))
        half = self.hi / 2 - self.lo / 2  # half the extents, which cannot overflow
        self.h = max(float(0.8 * half.max() / np.cbrt(n)), 1e-300)  # h / 2 stays normal
        self.shape = (half // (self.h / 2)).astype(np.intp) + 1
        # bounds the rounding of faces and cells; inf if the box overflows: no row settles
        with np.errstate(over="ignore"):
            self.slack = 1e-14 * (np.abs([self.lo, self.hi]).sum() + 3.0 * self.h) + 1e-160
            cells = [np.minimum((points[:, i] - self.lo[i]) / self.h, self.shape[i] - 1)
                     .astype(np.intp) for i in range(3)]
        v = np.arange(1 << int(self.shape.max() - 1).bit_length())  # spread: v's bits 3 apart
        spread = sum(((v >> b & 1) << 3 * b for b in range(len(v).bit_length())), 0 * v)
        key = spread[cells[0]] | spread[cells[1]] << 1 | spread[cells[2]] << 2
        self.order = np.argsort(key)
        self.points, key = np.take(points, self.order, axis=0), key[self.order]
        runs = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1, [n]))  # per cell
        # table: 1 + the run of each cell of the grid padded by one cell, 0 for none
        self.runs = np.append(0, runs)
        self.strides = np.array([(self.shape[1] + 2) * (self.shape[2] + 2), self.shape[2] + 2, 1])
        self.table = np.zeros(np.prod(self.shape + 2), np.min_scalar_type(len(runs)))
        occupied = self.order[runs[:-1]]
        self.table[sum((c[occupied] + 1) * s for c, s in zip(cells, self.strides))] = (
            np.arange(1, len(runs)))
        self.block = np.indices((3, 3, 3)).reshape(3, -1).T @ self.strides
        # per level of cells 4, 8, 16, ... cells a side, root first: each cell's
        # run in the level below (in the samples, for the finest), box and middle sample
        self.levels, lo, hi, first, shift = [], self.points, self.points, np.arange(n + 1), 6
        while not self.levels or len(key) > 1:
            key = key >> shift
            into = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1, [len(key)]))
            key, first, shift = key[into[:-1]], first[into], 3
            lo, hi = np.minimum.reduceat(lo, into[:-1]), np.maximum.reduceat(hi, into[:-1])
            self.levels.insert(0, (into, lo, hi, self.points[(first[:-1] + first[1:]) // 2]))

    def query(self, x):
        """(near, second, index) for the finite (n, 3) rows x: the nearest distance,
        a lower bound on every other sample's, and the nearest sample's index.  A
        bound within 1e-12 (1 + near) of near is a tie: it becomes near, and the
        index the lowest within near (1 + 1e-12).  Overflow reads inf, index 0."""
        if not np.isfinite(x).all():
            raise ValueError("a point-cloud query point is not finite")
        if len(x) > 1024:  # blocks of rows keep the candidate arrays small
            return _halves(self.query, x)
        with np.errstate(over="ignore", invalid="ignore"):
            c = np.minimum(np.maximum((x - self.lo) / self.h, 0.0), self.shape - 1).astype(np.intp)
            gaps = np.minimum(x - (self.lo + (c - 1) * self.h), self.lo + (c + 2) * self.h - x)
            gap = np.minimum(np.minimum(gaps[:, 0], gaps[:, 1]), gaps[:, 2]) - self.slack
            run = self.table[(c @ self.strides)[:, None] + self.block].astype(np.intp)
            counts = self.runs[run + 1] - (starts := self.runs[run])
            if len(x) > 1 and counts.sum() > 1 << 18:  # so do halves, for crowded cells
                return _halves(self.query, x)
            near, second, index = self._settle(x, _ranges(starts.ravel(), counts.ravel()),
                                               counts.sum(axis=1), gap)
            far = np.flatnonzero(~(near * (1.0 + 1e-12) < gap))
            if len(far):
                near[far], second[far], index[far] = self._descend(x[far], near[far])
        return near, second, index

    def _descend(self, x, best):
        """query's result for rows x, from the root; best bounds their nearest distances."""
        rows, cells, bound = np.arange(len(x)), np.zeros(len(x), np.intp), np.full(len(x), np.inf)
        for below, lo, hi, middle in self.levels:
            at = np.take(x, rows, axis=0)
            lower = _row_norms(np.maximum(np.maximum(lo[cells] - at, at - hi[cells]), 0.0))
            np.minimum.at(best, rows, _row_norms(at - middle[cells]))
            keep = (lower <= best[rows] * (1.0 + 1e-12)) & (lower < np.inf)
            np.minimum.at(bound, rows[~keep], lower[~keep])
            rows, cells = rows[keep], cells[keep]
            counts = below[cells + 1] - below[cells]
            if len(x) > 1 and counts.sum() > 1 << 18:  # as in query
                return _halves(self._descend, x, best)
            rows, cells = np.repeat(rows, counts), _ranges(below[cells], counts)
        return self._settle(x, cells, np.bincount(rows, minlength=len(x)), bound)

    def _settle(self, x, samples, counts, bound):
        """query's result for rows x from the sorted samples given, counts[i]
        of them for row i in turn; bound bounds every sample not given."""
        near, index, second = np.full(len(x), np.inf), np.zeros(len(x), np.intp), bound.copy()
        rows = np.repeat(np.arange(len(x)), counts)
        d = _row_norms(np.take(x, rows, axis=0) - np.take(self.points, samples, axis=0))
        some = np.flatnonzero(counts)
        starts = (np.cumsum(counts) - counts)[some]
        near[some] = np.minimum.reduceat(d, starts)
        at_near = d == near[rows]
        repeated = np.add.reduceat(at_near, starts, dtype=np.intp) > 1
        other = np.minimum.reduceat(np.where(at_near, np.inf, d), starts)
        second[some] = np.minimum(second[some], np.where(repeated, near[some], other))
        tie = second - near <= 1e-12 * (1.0 + near)  # inf - inf is no tie
        second[tie] = near[tie]
        radius = np.where(tie, near * (1.0 + 1e-12), near)[rows]
        index[some] = np.minimum.reduceat(
            np.where(d <= radius, self.order[samples], len(self.order)), starts)
        index[np.isinf(near)] = 0
        return near, second, index
