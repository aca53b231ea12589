"""Implicit surfaces represented as scalar level-set fields.

A surface is the zero set {x in R^3 : phi(x) = 0} of a scalar field phi.
LevelSet's value, value_and_grad, grad and hessian take a (3,) point or (n, 3)
rows; they alone handle the two shapes, and a field implements one row hook,
_value_and_grad, which returns phi and grad phi from one evaluation that
shares their intermediate results.  LevelSet derives value and grad from it,
so value is value_and_grad's phi bit for bit, and a finite-difference
Hessian, scaled to the bounding box, from grad (the hook _hessian, which a
field may override).  The curve solvers need only phi and grad phi (the
constraint force is lambda * grad(phi)); the convergence theory constrains
|grad phi|^2 and ||D^2 phi|| on a band around the surface, which
check_assumption_a samples.

Analytic kinds
--------------
SphereQuadratic  phi(x) = (|x|^2 - R^2) / 2        grad = x
SphereSDF        phi(x) = R - |x|   (positive inside), |grad| = 1
Torus            phi(x) = sqrt((sqrt(x^2+y^2) - R)^2 + z^2) - r
Plane            phi(x) = a . x
PointCloud       phi(x) = min_p |x - p|  (unsigned distance to samples)

The point-cloud field is an unsigned minimum distance, so it is 0 on the
samples and positive elsewhere; its gradient points away from the nearest
sample.  No inside/outside sign is recovered.  The field is only C^0 across
the Voronoi ridges of the samples, where the finite-difference Hessian reads
about 1/h.  A cloud drops repeated samples with a sort of its rows, which
runs only when some x value repeats, since equal rows share x.  It finds
nearest samples with numpy alone, in the grid of cells of levelgeo.cells,
which a cloud imports when it is built, so a run on an analytic surface never
compiles it; an evaluation skips the query for nodes whose nearest sample
provably did not change (PointCloud).  load_point_cloud hands numpy.loadtxt
only a file with a data line, so loadtxt never warns that a file has none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import _row_norms

__all__ = [
    "LevelSet",
    "SphereQuadratic",
    "SphereSDF",
    "Torus",
    "Plane",
    "PointCloud",
    "AssumptionAReport",
    "check_assumption_a",
    "load_point_cloud",
    "SingularityError",
    "SamplingError",
    "PointCloudFormatError",
]


class SingularityError(ValueError):
    """Gradient requested exactly at a point where the field is not differentiable,
    or at a point so far from a point cloud that its distance overflows."""


class SamplingError(RuntimeError):
    """Band rejection sampling produced no points within the attempt budget."""


class PointCloudFormatError(ValueError):
    """A point-cloud file line could not be parsed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _as_points(x):
    """Coerce to C-ordered (n, 3) float rows, whatever the input's layout;
    report whether the input was a single point."""
    arr = np.ascontiguousarray(x, dtype=float)
    if arr.shape == (3,):
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == 3:
        return arr, False
    raise ValueError(f"expected shape (3,) or (n, 3), got {np.shape(x)}")


class LevelSet:
    """Base class for scalar fields whose zero set is the surface of interest.

    The public methods take a (3,) point or (n, 3) rows and return a scalar,
    (3,) or (3, 3) per point for the one and (n,), (n, 3) or (n, 3, 3) for the
    other.  A field implements the hook _value_and_grad on (n, 3) rows, and
    bounding_box; it may override _hessian.  Where its gradient is undefined,
    _value_and_grad returns nan, and value_and_grad raises
    SingularityError(singular_message), or overflow_message where phi is inf.
    """

    singular_message = "gradient undefined"
    overflow_message = "gradient undefined where the value overflows"

    def value(self, x):
        """phi(x), the row hook's phi, unchecked; vectorized over a leading point axis."""
        pts, single = _as_points(x)
        out = self._value_and_grad(pts)[0]
        return out[0] if single else out

    def grad(self, x):
        """grad phi(x); vectorized like value()."""
        return self.value_and_grad(x)[1]

    def value_and_grad(self, x, check=True):
        """(value(x), grad(x)) bit for bit, from one evaluation; with check, the
        SingularityError of _singularity, and else a nan gradient, where singular."""
        pts, single = _as_points(x)
        phi, grad = self._value_and_grad(pts)
        if check and (error := self._singularity(pts, phi, grad)):
            raise error
        return (phi[0], grad[0]) if single else (phi, grad)

    def _singularity(self, pts, phi, grad):
        """The SingularityError of the rows of finite pts whose gradient is nan, or None."""
        rows = np.isnan(grad).any(axis=1) & np.isfinite(pts).all(axis=1)
        if rows.any():
            return SingularityError(self.overflow_message if np.isinf(phi[rows]).any()
                                    else self.singular_message)

    def hessian(self, x):
        """D^2 phi(x), (3, 3) per point; raises where grad(x) does."""
        pts, single = _as_points(x)
        out = self._hessian(pts)
        return out[0] if single else out

    def _value_and_grad(self, pts):
        """(phi, grad phi) at (n, 3) rows, as (n,) and (n, 3) arrays."""
        raise NotImplementedError

    def _hessian(self, pts):
        """(n, 3, 3) central differences of grad, symmetrized, from one grad call
        on the rows x and x +- h e_i.  The step h is 1e-5 times the smallest
        nonzero half-extent of bounding_box(), scale(), and at least 1e-8
        max|x_i|, which x +- h e_i resolves."""
        h = 1e-5 * np.maximum(self.scale(), 1e-3 * np.abs(pts).max(axis=1))[:, None, None]
        offsets = np.concatenate([np.zeros((1, 3)), np.eye(3), -np.eye(3)])
        g = self.grad((pts[:, None, :] + h * offsets).reshape(-1, 3)).reshape(-1, 7, 3)
        H = (g[:, 1:4] - g[:, 4:]) / (2.0 * h)  # row i: d grad / d x_i
        return 0.5 * (H + H.transpose(0, 2, 1))

    def bounding_box(self):
        """Axis-aligned (lo, hi) box containing the nominal surface."""
        raise NotImplementedError

    def scale(self) -> float:
        """The surface's size: half the smallest nonzero extent of bounding_box().
        Endpoint tolerances and the band check are relative to it."""
        lo, hi = self.bounding_box()
        return float(np.min(hi - lo, where=hi > lo, initial=np.max(hi - lo))) / 2.0

    def surface_point(self, rng: np.random.Generator):
        """A pseudo-random point on the nominal surface."""
        raise NotImplementedError


class _Sphere(LevelSet):
    """A field whose zero set is the sphere of a given radius about the origin."""

    def __init__(self, radius: float = 1.0):
        radius = float(radius)
        if not (radius > 0 and radius * radius < np.inf):  # a float product: no warning
            raise ValueError("sphere radius must be positive with a finite square")
        if radius * radius < np.finfo(float).tiny:  # |x| squares x: all would read as 0
            raise ValueError(f"sphere radius {radius:g} is too small: its square underflows")
        self.radius = radius

    def bounding_box(self):
        r = self.radius
        return -r * np.ones(3), r * np.ones(3)

    def surface_point(self, rng):
        v = rng.normal(size=3)
        return self.radius * v / np.linalg.norm(v)


class SphereQuadratic(_Sphere):
    """phi(x) = (|x|^2 - R^2)/2; smooth everywhere, grad = x, Hessian = I."""

    def _value_and_grad(self, pts):
        return 0.5 * (np.einsum("ij,ij->i", pts, pts) - self.radius**2), pts.copy()

    def _hessian(self, pts):
        """Exactly I, where central differences read 1 + 7e-12."""
        return np.broadcast_to(np.eye(3), (len(pts), 3, 3)).copy()


class SphereSDF(_Sphere):
    """phi(x) = R - |x|: signed distance to the sphere, positive inside.

    |grad phi| = 1 everywhere except the center, where the field has a
    gradient singularity.  ||D^2 phi(x)|| = 1/|x|.
    """

    singular_message = "gradient of R - |x| undefined at the origin"

    def _value_and_grad(self, pts):
        r = _row_norms(pts)
        divisor = r if np.count_nonzero(r) == len(r) else np.where(r == 0, np.nan, r)
        # -pts / r bit for bit, nan where r is 0; F order runs down the rows
        return self.radius - r, np.divide(pts, -divisor[:, None], np.empty(pts.shape), order="F")


class Torus(LevelSet):
    """Distance field of a torus: phi = sqrt((rho - R)^2 + z^2) - r, rho = sqrt(x^2+y^2).

    Negative inside the tube.  Singular on the z-axis (rho = 0) and on the
    core circle (rho = R, z = 0).
    """

    singular_message = "torus field gradient undefined on the axis or core circle"

    def __init__(self, major_radius: float = 2.0, minor_radius: float = 1.0):
        if not 0 < minor_radius < major_radius < np.inf:
            raise ValueError("torus requires finite radii with 0 < minor < major")
        r = float(minor_radius)  # a float product: no warning
        if r * r < np.finfo(float).tiny:  # as a sphere radius: a length squares it
            raise ValueError(f"torus minor radius {r:g} is too small: its square underflows")
        self.major_radius = float(major_radius)
        self.minor_radius = r

    def _value_and_grad(self, pts):
        rho = np.hypot(pts[:, 0], pts[:, 1])
        u = rho - self.major_radius
        w = np.hypot(u, pts[:, 2])
        phi = w - self.minor_radius
        if np.count_nonzero(rho) + np.count_nonzero(w) != 2 * len(rho):
            rho[rho == 0], w[w == 0] = np.nan, np.nan  # a nan gradient, not 0/0
        uw, (x, y, z) = u / w, pts.T
        return phi, np.stack([uw * (x / rho), uw * (y / rho), z / w], axis=1)

    def bounding_box(self):
        R, r = self.major_radius, self.minor_radius
        lo = np.array([-(R + r), -(R + r), -r])
        return lo, -lo

    def surface_point(self, rng):
        theta, psi = rng.uniform(0.0, 2.0 * np.pi, size=2)
        R, r = self.major_radius, self.minor_radius
        rho = R + r * np.cos(psi)
        return np.array([rho * np.cos(theta), rho * np.sin(theta), r * np.sin(psi)])


class Plane(LevelSet):
    """phi(x) = a . x for a fixed normal a; the surface is the plane through the origin."""

    def __init__(self, normal=(0.0, 0.0, 1.0)):
        a = np.asarray(normal, dtype=float)
        with np.errstate(over="ignore"):
            if a.shape != (3,) or not 0 < float(a @ a) < np.inf:
                raise ValueError("plane normal must be a 3-vector with a.a finite and nonzero")
        self.normal = a

    def _value_and_grad(self, pts):
        return pts @ self.normal, np.broadcast_to(self.normal, (len(pts), 3)).copy()

    def bounding_box(self):
        # The plane is unbounded; this conventional box only feeds band sampling.
        return -2.0 * np.ones(3), 2.0 * np.ones(3)

    def surface_point(self, rng):
        lo, hi = self.bounding_box()
        v = rng.uniform(lo, hi)
        a = self.normal
        return v - (v @ a) / (a @ a) * a


class PointCloud(LevelSet):
    """Unsigned minimum distance to a finite sample set, with a cell index.

    The index, levelgeo.cells._CellIndex, is built once, when the cloud is,
    and that is where levelgeo.cells is imported: only a cloud compiles it.
    It finds the exact nearest sample of a query row and a lower bound on
    every other sample's distance; every distance is _row_norms(x - p), and
    ties go to the lowest sample index.

    Every evaluation (value, value_and_grad, grad) keeps, per row, the point
    of its last query, the sample resolved as nearest and that query's bound
    on every other sample's distance.  On a call of the same shape, of any of
    the three, a row skips the query when the triangle inequality proves no
    other sample within the tie band 1e-12 (1 + phi): phi is then
    |x - nearest| as the query computes it, and each call equals a fresh
    cloud's bit for bit.

    The gradient is undefined at a sample, and at a node so far out (about
    1e154 or more) that its distance overflows, which has value inf; the hook
    returns nan there, and after a far node the hint stays as it was.  A
    query point that is not finite raises ValueError.
    """

    singular_message = "distance gradient undefined at a cloud point"
    overflow_message = "distance to the nearest cloud point overflows"

    def __init__(self, points):
        from .cells import _CellIndex

        pts = np.array(points, dtype=float)  # the cloud's own copy, frozen below
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
            raise ValueError("point cloud must be a nonempty (n, 3) array")
        if not np.isfinite(pts).all():
            raise ValueError("point cloud coordinates must be finite")
        xs = np.sort(pts[:, 0])
        if (xs[1:] == xs[:-1]).any():  # equal rows share x: only then can a row repeat
            # exact duplicates go: in a stable sort of the rows a repeat follows an
            # equal row, so each row's first occurrence stays, in the input order
            order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
            ranked = pts[order]
            keep = np.empty(len(pts), dtype=bool)
            keep[order[0]] = True
            keep[order[1:]] = (ranked[1:] != ranked[:-1]).any(axis=1)
            pts = pts[keep]
        self.points = pts
        self.points.setflags(write=False)
        self._index = _CellIndex(self.points)
        half = float((self._index.hi / 2 - self._index.lo / 2).max())  # as the index has it
        if len(pts) > 1 and half * half < np.finfo(float).tiny:  # distances square x - p
            raise ValueError(f"point cloud half-extent {half:g} is too small: "
                             "its square underflows")
        self._hint = np.empty((0, 3)), np.zeros(0, np.intp), np.zeros(0)

    def _value_and_grad(self, pts):
        last, index, bound = self._hint
        if last.shape != pts.shape:  # nan anchors send every row to the index
            last, index, bound = np.full(pts.shape, np.nan), np.zeros(len(pts), np.intp), 0.0
        # phi is a strided column, as the goldens were made: trace_row sums it in another order
        near, diff = np.empty((len(pts), 2))[:, 0], pts - self.points[index]
        with np.errstate(over="ignore", invalid="ignore"):  # a far node: inf, inf - inf
            step, near[:] = _row_norms(pts - last), _row_norms(diff)
            # every other sample is at least bound - step away (triangle inequality);
            # 1e-14 (bound + step) covers the rounding of bound, step and near
            kept = bound - step - near > 1e-12 * (1.0 + near) + 1e-14 * (bound + step)
            miss = np.nonzero(~kept)[0]
            if len(miss):
                near[miss], second, found = self._index.query(pts[miss])
                last, index, bound = last.copy(), index.copy(), np.where(kept, bound, 0.0)
                last[miss], index[miss], bound[miss] = pts[miss], found, second
                diff[miss] = pts[miss] - self.points[found]
                diff[np.isinf(near)] = np.nan
                if np.isfinite(near).all():  # a far node keeps the hint as it was
                    self._hint = last, index, bound
        divisor = near if near.all() else np.where(near == 0, np.nan, near)  # nan on a sample
        return near, np.divide(diff, divisor[:, None], diff, order="F")  # as SphereSDF's

    def bounding_box(self):
        return self._index.lo.copy(), self._index.hi.copy()

    def surface_point(self, rng):
        return self.points[rng.integers(len(self.points))].copy()


def load_point_cloud(path) -> PointCloud:
    """Read a point cloud from plain text: three reals per line, '#' comments.

    numpy.loadtxt parses a file with a data line: blank lines are skipped,
    fields are apart by whitespace, lines end in LF, CRLF or CR, and a real is
    what float() reads except for underscores between digits and non-ASCII
    digits.  Raises PointCloudFormatError (with the offending line number) on
    malformed lines and ValueError when fewer than 4 distinct points remain.
    """
    distinct = 0  # a file without data, on which numpy.loadtxt warns, is not parsed
    with open(path) as fh:
        if any(raw.split("#", 1)[0].split() for raw in fh):  # reads up to the first data line
            fh.seek(0)
            try:
                pts = np.loadtxt(fh, comments="#", ndmin=2)
            except ValueError:
                _raise_at_bad_line(fh)
                raise
            if pts.shape[1] != 3:
                _raise_at_bad_line(fh)
            cloud = PointCloud(pts)
            if (distinct := len(cloud.points)) >= 4:
                return cloud
    raise ValueError(f"point cloud needs at least 4 distinct points, got {distinct}")


def _raise_at_bad_line(fh):
    """Raise PointCloudFormatError at the first line of the file fh that is not
    three reals as load_point_cloud reads them; return if there is none."""
    fh.seek(0)
    for line_number, raw in enumerate(fh, start=1):
        line = raw.split("#", 1)[0].strip()
        parts = line.split()
        if parts and len(parts) != 3:
            raise PointCloudFormatError(line_number, f"expected 3 values, got {len(parts)}")
        try:
            for v in parts:  # loadtxt reads neither underscores nor non-ASCII digits
                float(v if v.isascii() and "_" not in v else "not a real")
        except ValueError:
            raise PointCloudFormatError(
                line_number, f"could not parse {line!r} as three reals"
            ) from None


@dataclass(frozen=True)
class AssumptionAReport:
    """Result of sampling the band |phi| <= a for the convergence assumptions.

    nu is the sampled minimum of |grad phi|^2; the band condition asks
    2 a ||D^2 phi|| <= nu over the band.
    """

    band_half_width: float
    nu: float
    hessian_bound: float
    satisfied: bool
    n_samples: int


_MAX_BAND_ATTEMPTS = 1_000_000


def check_assumption_a(surface: LevelSet, a: float, n_samples: int = 20000,
                       seed: int = 0) -> AssumptionAReport:
    """Sample the band {x : |phi(x)| <= a} and test the convergence assumptions.

    Parameters
    ----------
    surface : LevelSet
    a : band half-width, > 0
    n_samples : target number of band samples (>= 100)
    seed : RNG seed for the rejection sampler (deterministic output)

    Returns an AssumptionAReport with nu = min |grad phi|^2 and the max
    spectral norm of D^2 phi over the samples; `satisfied` means
    2 a * hessian_bound <= nu with nu > 0.

    Rejection-samples uniformly in the surface bounding box inflated by 2a,
    capped at 1e6 proposal points; raises SamplingError if the band is never
    hit, and ValueError, before any proposal, if a is below the float spacing
    at surface.scale(), which no field value resolves, or if the squared
    extent of the surface's box, or of the inflated box, overflows.
    """
    if not 0 < a < np.inf:
        raise ValueError("band half-width a must be positive and finite")
    resolution = np.spacing(surface.scale())
    if a < resolution:
        raise ValueError(f"band half-width {a:g} is below the surface's resolution "
                         f"{resolution:g}")
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    rng = np.random.default_rng(seed)
    lo, hi = surface.bounding_box()
    with np.errstate(over="ignore"):
        if not np.isfinite((hi - lo) @ (hi - lo)):
            raise ValueError("the surface's sampling box overflows: its squared extent "
                             "is not finite")
        lo, hi = lo - 2.0 * a, hi + 2.0 * a
        if not np.isfinite((hi - lo) @ (hi - lo)):
            raise ValueError(f"band half-width {a:g} overflows the sampling box")

    batches = []
    collected = 0
    attempts = 0
    while collected < n_samples and attempts < _MAX_BAND_ATTEMPTS:
        chunk = min(max(4 * n_samples, 4096), _MAX_BAND_ATTEMPTS - attempts)
        proposals = rng.uniform(lo, hi, size=(chunk, 3))
        attempts += chunk
        keep = proposals[np.abs(surface.value(proposals)) <= a]
        if len(keep):
            batches.append(keep)
            collected += len(keep)
    if collected == 0:
        raise SamplingError(
            f"no band samples with |phi| <= {a:g} in {attempts} attempts"
        )
    samples = np.concatenate(batches)[:n_samples]

    grads = surface.grad(samples)
    nu = float(np.min(np.einsum("ij,ij->i", grads, grads)))
    eigs = np.linalg.eigvalsh(surface.hessian(samples))
    hessian_bound = float(np.max(np.abs(eigs)))
    satisfied = bool(nu > 0 and 2.0 * a * hessian_bound <= nu)
    return AssumptionAReport(
        band_half_width=float(a),
        nu=nu,
        hessian_bound=hessian_bound,
        satisfied=satisfied,
        n_samples=len(samples),
    )
