"""Implicit surfaces represented as scalar level-set fields.

A surface is the zero set {x in R^3 : phi(x) = 0} of a scalar field phi.
LevelSet's value, value_and_grad, grad and hessian take a (3,) point or (n, 3)
rows; they alone handle the two shapes, and a field implements only row
hooks: _value, and _value_and_grad, which returns phi and grad phi from one
evaluation that shares their intermediate results.  LevelSet derives grad
from it and a finite-difference Hessian, scaled to the bounding box, from
grad (the hook _hessian, which a field may override).  The curve solvers
need only phi and grad phi (the constraint force is lambda * grad(phi)); the
convergence theory constrains |grad phi|^2 and ||D^2 phi|| on a band around
the surface, which check_assumption_a samples.

Analytic kinds
--------------
SphereQuadratic  phi(x) = (|x|^2 - R^2) / 2        grad = x
SphereSDF        phi(x) = R - |x|   (positive inside), |grad| = 1
Torus            phi(x) = sqrt((sqrt(x^2+y^2) - R)^2 + z^2) - r
Plane            phi(x) = a . x
PointCloud       phi(x) = min_p |x - p|  (unsigned distance to samples)

The point-cloud field is an unsigned minimum distance, so it is 0 on the
samples and positive elsewhere; its gradient points away from the nearest
sample.  No inside/outside sign is recovered.  Its value_and_grad skips the
k-d tree for nodes whose nearest sample provably did not change (PointCloud).
The field is only C^0 across the Voronoi ridges of the samples, where the
finite-difference Hessian reads about 1/h.  A cloud drops repeated samples
with a sort of its rows, which runs only when some x value repeats, since
equal rows share x.  Its tree splits at the sliding midpoint, which builds
faster than a median split; the field does not depend on the tree's shape,
since the tree computes each sample's distance the same way whatever path
leads to it, and ties go to the lowest sample index.
"""

from __future__ import annotations

import warnings
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
    other.  A field implements the hooks _value and _value_and_grad on (n, 3)
    rows, and bounding_box; it may override _hessian.
    """

    def value(self, x):
        """phi(x); vectorized over a leading point axis."""
        pts, single = _as_points(x)
        out = self._value(pts)
        return out[0] if single else out

    def grad(self, x):
        """grad phi(x); vectorized like value()."""
        return self.value_and_grad(x)[1]

    def value_and_grad(self, x):
        """(value(x), grad(x)) bit for bit, from one evaluation; raises where grad() does."""
        pts, single = _as_points(x)
        phi, grad = self._value_and_grad(pts)
        return (phi[0], grad[0]) if single else (phi, grad)

    def hessian(self, x):
        """D^2 phi(x), (3, 3) per point; raises where grad(x) does."""
        pts, single = _as_points(x)
        out = self._hessian(pts)
        return out[0] if single else out

    def _value(self, pts):
        """phi at (n, 3) rows, as an (n,) array."""
        raise NotImplementedError

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

    def _value(self, pts):
        return 0.5 * (np.einsum("ij,ij->i", pts, pts) - self.radius**2)

    def _value_and_grad(self, pts):
        return self._value(pts), pts.copy()

    def _hessian(self, pts):
        """Exactly I, where central differences read 1 + 7e-12."""
        return np.broadcast_to(np.eye(3), (len(pts), 3, 3)).copy()


class SphereSDF(_Sphere):
    """phi(x) = R - |x|: signed distance to the sphere, positive inside.

    |grad phi| = 1 everywhere except the center, where the field has a
    gradient singularity.  ||D^2 phi(x)|| = 1/|x|.
    """

    def _value(self, pts):
        return self.radius - _row_norms(pts)

    def _value_and_grad(self, pts):
        r = _row_norms(pts)
        if np.count_nonzero(r) != len(r):
            raise SingularityError("gradient of R - |x| undefined at the origin")
        # -pts / r bit for bit; F order runs down the rows, into C-order rows
        return self.radius - r, np.divide(pts, -r[:, None], np.empty(pts.shape), order="F")


class Torus(LevelSet):
    """Distance field of a torus: phi = sqrt((rho - R)^2 + z^2) - r, rho = sqrt(x^2+y^2).

    Negative inside the tube.  Singular on the z-axis (rho = 0) and on the
    core circle (rho = R, z = 0).
    """

    def __init__(self, major_radius: float = 2.0, minor_radius: float = 1.0):
        if not 0 < minor_radius < major_radius < np.inf:
            raise ValueError("torus requires finite radii with 0 < minor < major")
        self.major_radius = float(major_radius)
        self.minor_radius = float(minor_radius)

    def _parts(self, pts):
        rho = np.hypot(pts[:, 0], pts[:, 1])
        u = rho - self.major_radius
        w = np.hypot(u, pts[:, 2])
        return rho, u, w

    def _value(self, pts):
        return self._parts(pts)[2] - self.minor_radius

    def _value_and_grad(self, pts):
        rho, u, w = self._parts(pts)
        if np.count_nonzero(rho) + np.count_nonzero(w) != 2 * len(rho):
            raise SingularityError("torus field gradient undefined on the axis or core circle")
        phi = w - self.minor_radius
        gx = (u / w) * (pts[:, 0] / rho)
        gy = (u / w) * (pts[:, 1] / rho)
        gz = pts[:, 2] / w
        return phi, np.stack([gx, gy, gz], axis=1)

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

    def _value(self, pts):
        return pts @ self.normal

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
    """Unsigned minimum distance to a finite sample set, with a k-d tree index.

    value_and_grad keeps, per row, the point of its last tree query, the
    sample resolved as nearest and the tree's second distance, a lower bound
    on every other sample's.  On a call of the same shape a row skips the tree
    when the triangle inequality proves no other sample within the tie band
    1e-12 (1 + phi): phi is then |x - nearest| as the tree computes it, and
    each call equals a fresh cloud's bit for bit.

    A node so far out (about 1e154 or more) that its distance overflows has
    value inf; value_and_grad raises SingularityError there, and the hint
    stays as it was.
    """

    def __init__(self, points):
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
        from scipy.spatial import cKDTree  # the one field that needs scipy
        # midpoint splits build faster than median ones; a distance does not
        # depend on the tree's shape, so neither does the field
        self._tree = cKDTree(self.points, balanced_tree=False)
        self._hint = np.empty((0, 3)), np.zeros(0, np.intp), np.zeros(0)

    def _value(self, pts):
        return self._tree.query(pts)[0]

    def _query(self, pts):
        """(n, 2): the nearest sample's distance, a bound on the others'; its index."""
        d, idx = self._tree.query(pts, k=2)
        near, second = d[:, 0], d[:, 1]
        if np.isinf(near).any():  # the tree found no sample: its squared distance overflowed
            raise SingularityError("distance to the nearest cloud point overflows")
        index = idx[:, 0].copy()
        # Exact ties are resolved toward the lowest sample index so the field
        # stays deterministic regardless of tree layout.
        ties = np.nonzero(second - near <= 1e-12 * (1.0 + near))[0]
        for row in ties:
            cands = self._tree.query_ball_point(pts[row], near[row] * (1.0 + 1e-12))
            index[row] = min(cands)
        second[ties] = near[ties]  # a tie may pass over the tree's first, at near
        return d, index

    def _value_and_grad(self, pts):
        last, index, bound = self._hint
        if last.shape != pts.shape:  # nan anchors send every row to the tree
            last, index, bound = np.full(pts.shape, np.nan), np.zeros(len(pts), np.intp), 0.0
        # phi is column 0 of an (n, 2) array on both paths, as the tree returns
        # it: trace_row's dot product sums a strided vector in another order
        d = np.empty((len(pts), 2))
        near, diff = d[:, 0], pts - self.points[index]
        with np.errstate(over="ignore"):  # a far node's norms are inf: _query raises for it
            step, near[:] = _row_norms(pts - last), _row_norms(diff)
        # every other sample is at least bound - step away (triangle inequality);
        # 1e-14 (bound + step) covers the rounding of bound, step and near
        kept = bound - step - near > 1e-12 * (1.0 + near) + 1e-14 * (bound + step)
        miss = np.nonzero(~kept)[0]
        if len(miss):
            d[miss], found = self._query(pts[miss])
            last, index, bound = last.copy(), index.copy(), np.where(kept, bound, d[:, 1])
            last[miss], index[miss] = pts[miss], found
            diff[miss] = pts[miss] - self.points[found]
        if not near.all():
            raise SingularityError("distance gradient undefined at a cloud point")
        self._hint = last, index, bound
        return near, np.divide(diff, near[:, None], diff, order="F")  # as SphereSDF's

    def bounding_box(self):
        return self.points.min(axis=0), self.points.max(axis=0)

    def surface_point(self, rng):
        return self.points[rng.integers(len(self.points))].copy()


def load_point_cloud(path) -> PointCloud:
    """Read a point cloud from plain text: three reals per line, '#' comments.

    numpy.loadtxt parses it: blank lines are skipped, fields are apart by
    whitespace, lines end in LF, CRLF or CR, and a real is what float()
    reads except for underscores between digits and non-ASCII digits.
    Raises PointCloudFormatError (with the offending line number) on malformed
    lines and ValueError when fewer than 4 distinct points remain.
    """
    with open(path) as fh, warnings.catch_warnings():
        # a file without data is reported below, as 0 distinct points
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            pts = np.loadtxt(fh, comments="#", ndmin=2)
        except ValueError:
            _raise_at_bad_line(fh)
            raise
        if pts.shape[1] != 3:
            _raise_at_bad_line(fh)
            pts = pts.reshape(0, 3)  # no data
    cloud = PointCloud(pts) if len(pts) else None
    distinct = 0 if cloud is None else len(cloud.points)
    if distinct < 4:
        raise ValueError(f"point cloud needs at least 4 distinct points, got {distinct}")
    return cloud


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
