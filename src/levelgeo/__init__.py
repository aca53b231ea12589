"""Geodesics on implicit surfaces by regularized primal-dual relaxation.

The solver looks for a curve gamma between two fixed points on a level set
{phi = 0} that minimizes the kinetic energy 0.5 * integral |gamma'|^2 while
a multiplier field lambda enforces phi(gamma) = 0.  A small quadratic
penalty on lambda (weight epsilon) regularizes the saddle problem, and an
extrapolation step (omega) accelerates the multiplier ascent.

Layout:

* :mod:`levelgeo.levelset`    surface catalogue and band sampling checks
* :mod:`levelgeo.curve`       discrete curves, inits, stencils
* :mod:`levelgeo.schemes`     the five iteration rules and the run loop
* :mod:`levelgeo.diagnostics` residuals, errors, Lyapunov value, trace CSV
* :mod:`levelgeo.planar`      plane-constraint model problem and its
  ergodic convergence-rate check
* :mod:`levelgeo.harness`     experiment orchestration and artifact files
* :mod:`levelgeo.cli`         the ``levelgeo`` command
"""

__version__ = "0.1.0"
