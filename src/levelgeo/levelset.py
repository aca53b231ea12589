"""Implicit surfaces represented as scalar level-set fields.

A surface is the zero set {x in R^3 : phi(x) = 0} of a scalar field phi.
Every surface here exposes the field value, its gradient and its Hessian,
which is all the curve solvers need: the constraint force is lambda * grad(phi)
and the convergence theory constrains |grad phi|^2 and ||D^2 phi|| on a band
around the surface.  value_and_grad(x) returns phi and grad phi from one
evaluation that shares their intermediate results.

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
    """Coerce to an (n, 3) float array; report whether the input was a single point."""
    arr = np.asarray(x, dtype=float)
    if arr.shape == (3,):
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == 3:
        return arr, False
    raise ValueError(f"expected shape (3,) or (n, 3), got {arr.shape}")


class LevelSet:
    """Base class for scalar fields whose zero set is the surface of interest."""

    kind: str = "abstract"
    #: True when hessian() is a finite-difference estimate rather than analytic.
    hessian_is_approximate: bool = False

    def value(self, x):
        """phi(x); vectorized over a leading point axis."""
        raise NotImplementedError

    def grad(self, x):
        """grad phi(x); vectorized like value()."""
        return self.value_and_grad(x)[1]

    def value_and_grad(self, x):
        """(value(x), grad(x)) bit for bit, from one evaluation; raises where grad() does."""
        raise NotImplementedError

    def hessian(self, x):
        """D^2 phi(x) as (..., 3, 3)."""
        raise NotImplementedError

    def bounding_box(self):
        """Axis-aligned (lo, hi) box containing the nominal surface."""
        raise NotImplementedError

    def surface_point(self, rng: np.random.Generator):
        """A pseudo-random point on the nominal surface."""
        raise NotImplementedError


class _Sphere(LevelSet):
    """A field whose zero set is the sphere of a given radius about the origin."""

    def __init__(self, radius: float = 1.0):
        if not 0 < radius < np.inf:
            raise ValueError("sphere radius must be positive and finite")
        self.radius = float(radius)

    def bounding_box(self):
        r = self.radius
        return -r * np.ones(3), r * np.ones(3)

    def surface_point(self, rng):
        v = rng.normal(size=3)
        return self.radius * v / np.linalg.norm(v)


class SphereQuadratic(_Sphere):
    """phi(x) = (|x|^2 - R^2)/2; smooth everywhere, grad = x, Hessian = I."""

    kind = "sphere-quadratic"

    def value(self, x):
        pts, single = _as_points(x)
        out = 0.5 * (np.einsum("ij,ij->i", pts, pts) - self.radius**2)
        return out[0] if single else out

    def value_and_grad(self, x):
        pts, single = _as_points(x)
        phi = 0.5 * (np.einsum("ij,ij->i", pts, pts) - self.radius**2)
        grad = pts.copy()
        return (phi[0], grad[0]) if single else (phi, grad)

    def hessian(self, x):
        pts, single = _as_points(x)
        out = np.broadcast_to(np.eye(3), (len(pts), 3, 3)).copy()
        return out[0] if single else out


class SphereSDF(_Sphere):
    """phi(x) = R - |x|: signed distance to the sphere, positive inside.

    |grad phi| = 1 everywhere except the center, where the field has a
    gradient singularity.  ||D^2 phi(x)|| = 1/|x|.
    """

    kind = "sphere-sdf"

    def value(self, x):
        pts, single = _as_points(x)
        out = self.radius - _row_norms(pts)
        return out[0] if single else out

    def value_and_grad(self, x):
        pts, single = _as_points(x)
        r = _row_norms(pts)
        if not r.all():
            raise SingularityError("gradient of R - |x| undefined at the origin")
        phi = self.radius - r
        grad = -pts / r[:, None]
        return (phi[0], grad[0]) if single else (phi, grad)

    def hessian(self, x):
        pts, single = _as_points(x)
        r = _row_norms(pts)
        if np.any(r == 0.0):
            raise SingularityError("Hessian of R - |x| undefined at the origin")
        unit = pts / r[:, None]
        # D^2 (R - |x|) = -(I - u u^T)/|x|
        proj = np.eye(3)[None] - unit[:, :, None] * unit[:, None, :]
        out = -proj / r[:, None, None]
        return out[0] if single else out


class Torus(LevelSet):
    """Distance field of a torus: phi = sqrt((rho - R)^2 + z^2) - r, rho = sqrt(x^2+y^2).

    Negative inside the tube.  Singular on the z-axis (rho = 0) and on the
    core circle (rho = R, z = 0).
    """

    kind = "torus"

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

    def value(self, x):
        pts, single = _as_points(x)
        _, _, w = self._parts(pts)
        out = w - self.minor_radius
        return out[0] if single else out

    def value_and_grad(self, x):
        pts, single = _as_points(x)
        rho, u, w = self._parts(pts)
        if np.any(rho == 0.0) or np.any(w == 0.0):
            raise SingularityError("torus field gradient undefined on the axis or core circle")
        phi = w - self.minor_radius
        gx = (u / w) * (pts[:, 0] / rho)
        gy = (u / w) * (pts[:, 1] / rho)
        gz = pts[:, 2] / w
        grad = np.stack([gx, gy, gz], axis=1)
        return (phi[0], grad[0]) if single else (phi, grad)

    def hessian(self, x):
        pts, single = _as_points(x)
        rho, u, w = self._parts(pts)
        if np.any(rho == 0.0) or np.any(w == 0.0):
            raise SingularityError("torus field Hessian undefined on the axis or core circle")
        n = len(pts)
        rho_hat = np.zeros((n, 3))
        rho_hat[:, 0] = pts[:, 0] / rho
        rho_hat[:, 1] = pts[:, 1] / rho
        g = self.grad(pts)
        # H = (rho_hat rho_hat^T + (u/rho) P_theta + e3 e3^T - g g^T) / w, where
        # P_theta projects onto the azimuthal direction.  Eigenvalues: 0 along g,
        # 1/w in the meridian plane, u/(rho w) azimuthally.
        theta_hat = np.zeros((n, 3))
        theta_hat[:, 0] = -pts[:, 1] / rho
        theta_hat[:, 1] = pts[:, 0] / rho
        e3 = np.zeros((n, 3))
        e3[:, 2] = 1.0
        outer = lambda v: v[:, :, None] * v[:, None, :]
        H = (
            outer(rho_hat)
            + (u / rho)[:, None, None] * outer(theta_hat)
            + outer(e3)
            - outer(g)
        ) / w[:, None, None]
        return H[0] if single else H

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

    kind = "plane"

    def __init__(self, normal=(0.0, 0.0, 1.0)):
        a = np.asarray(normal, dtype=float)
        if a.shape != (3,) or not 0 < np.linalg.norm(a) < np.inf:
            raise ValueError("plane normal must be a finite nonzero 3-vector")
        self.normal = a

    def value(self, x):
        pts, single = _as_points(x)
        out = pts @ self.normal
        return out[0] if single else out

    def value_and_grad(self, x):
        pts, single = _as_points(x)
        phi = pts @ self.normal
        grad = np.broadcast_to(self.normal, (len(pts), 3)).copy()
        return (phi[0], grad[0]) if single else (phi, grad)

    def hessian(self, x):
        pts, single = _as_points(x)
        out = np.zeros((len(pts), 3, 3))
        return out[0] if single else out

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

    kind = "point-cloud"
    hessian_is_approximate = True
    _fd_step = 1e-3

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
            raise ValueError("point cloud must be a nonempty (n, 3) array")
        if not np.isfinite(pts).all():
            raise ValueError("point cloud coordinates must be finite")
        # exact duplicates go: in a stable sort of the rows a repeat follows an
        # equal row, so each row's first occurrence stays, in the input order
        order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
        ranked = pts[order]
        keep = np.empty(len(pts), dtype=bool)
        keep[order[0]] = True
        keep[order[1:]] = (ranked[1:] != ranked[:-1]).any(axis=1)
        self.points = pts[keep]
        self.points.setflags(write=False)
        from scipy.spatial import cKDTree  # the one field that needs scipy
        self._tree = cKDTree(self.points)
        self._hint = np.empty((0, 3)), np.zeros(0, np.intp), np.zeros(0)

    def value(self, x):
        pts, single = _as_points(x)
        d, _ = self._tree.query(pts)
        return d[0] if single else d

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

    def value_and_grad(self, x):
        pts, single = _as_points(x)
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
        grad = diff / near[:, None]
        return (near[0], grad[0]) if single else (near, grad)

    def hessian(self, x):
        pts, single = _as_points(x)
        h = self._fd_step
        n = len(pts)
        H = np.empty((n, 3, 3))
        eye = np.eye(3) * h
        f0 = self.value(pts)
        for i in range(3):
            fp = self.value(pts + eye[i])
            fm = self.value(pts - eye[i])
            H[:, i, i] = (fp - 2.0 * f0 + fm) / h**2
            for j in range(i + 1, 3):
                fpp = self.value(pts + eye[i] + eye[j])
                fpm = self.value(pts + eye[i] - eye[j])
                fmp = self.value(pts - eye[i] + eye[j])
                fmm = self.value(pts - eye[i] - eye[j])
                H[:, i, j] = H[:, j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h**2)
        return H[0] if single else H

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
    hessian_approximate: bool = False


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
    hit, and ValueError if that box's squared extent overflows.
    """
    if not 0 < a < np.inf:
        raise ValueError("band half-width a must be positive and finite")
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    rng = np.random.default_rng(seed)
    lo, hi = surface.bounding_box()
    with np.errstate(over="ignore"):
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
        hessian_approximate=surface.hessian_is_approximate,
    )
