"""Riemannian conjugate-gradient descent on stacks of isometries.

A stack holds R independent restarts, each an n x p isometry (X^H X = I): a
point of the Stiefel manifold, with the unitary group U(n) as the square
case.  The metric is the embedded one, <A, B> = Re tr(A^H B), so the
Riemannian gradient is the tangent projection of the Euclidean one.  Each
restart takes Polak-Ribiere+ conjugate-gradient steps with Powell restarts,
carrying its previous direction over by tangent projection, with an Armijo
backtracking line search and the QR retraction, computed as Cholesky QR
(Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 20(2), 1998; Abrudan,
Eriksson & Koivunen, IEEE Trans. Signal Process. 56(3), 2008).

All restarts advance in lockstep: a round makes one objective call that
scores the pending point of every live restart, whether that is the first
trial of a new iteration or a backtracking trial.  Each restart keeps its own
step, direction and exit, so it follows the path it takes alone.  On these
small stacks a round costs mostly NumPy call overhead, so it makes one
retraction, one objective call and, when some trial is accepted, one tangent
projection of the new gradient, the line direction and the line's starting
gradient together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Stops: the Riemannian gradient norm, and the decrease a trial step
# predicts to first order, relative to max(1, |f|); below the latter the
# Armijo test only compares rounding errors.
GRAD_TOL = 1e-9
DECREASE_TOL = 1e-15
# Line search: the Armijo constant; the curvature constant, below which a
# point that passes Armijo is taken but the search goes on along the same
# line; the backtracking factor bounds; and the cap on the growth of the
# first trial step from one step to the next.
ARMIJO = 1e-4
CURVATURE = 0.3
SHRINK = (0.1, 0.5)
GROW = 4.0
# Restart with steepest descent when |<g_new, g_line>| >= POWELL |g_new|^2.
POWELL = 0.2
# Norm of a restart's first step: a rotation by about this angle.
FIRST_ANGLE = 0.5

GRADIENT, NO_DECREASE, CAP = "gradient", "no_decrease", "cap"
_REASONS = ("", GRADIENT, NO_DECREASE, CAP)


@dataclass(frozen=True)
class Descent:
    """Final state of every restart of a stack.

    ``x`` holds the last iterates, and ``values`` the objective there, which
    is the lowest value of the restart's iterates since an accepted step
    always decreases it.  ``iterations`` counts accepted steps,
    ``evaluations`` the objective calls the restart was live for (its
    starting point included), and ``reasons`` says why each restart stopped:
    ``GRADIENT``, ``NO_DECREASE`` or ``CAP``.
    """

    x: np.ndarray
    values: np.ndarray
    iterations: tuple
    evaluations: tuple
    reasons: tuple


def _herm(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


def tangent(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Projection of ``z`` onto the tangent space at ``x``: Z - X sym(X^H Z)."""
    xz = _herm(x) @ z
    return z - x @ ((xz + _herm(xz)) / 2.0)


def retract(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """QR retraction: the Q factor of A = X + V, with a positive diagonal in R.

    Computed as Cholesky QR, Q = A R^-1 with R^H R = A^H A.  The QR factor
    with a positive diagonal is unique, so this is the Householder Q to
    rounding.  For a tangent V, A^H A = I + V^H V has condition number at
    most 1 + |V|_2^2: Q stays orthonormal to rounding for steps of norm up
    to 10, and the steps of ``descend`` stayed below 2.6 in a survey of roof
    and measurement searches on random 2x2, 3x2 and 2x3 states.
    """
    a = x + v
    chol = np.linalg.cholesky(_herm(a) @ a)
    return a @ _herm(np.linalg.inv(chol))


def descend(objective: Callable, x, values, egrad, max_iter: int) -> Descent:
    """Minimize ``objective`` from every isometry of the stack ``x``.

    ``objective`` maps an (R', n, p) stack to its R' values and Euclidean
    gradients (df = Re tr(G^H dX)); ``values`` and ``egrad`` are its output
    at ``x``.  A trial that fails the Armijo test shrinks its step by a
    safeguarded quadratic fit.  A trial that passes becomes the next
    iterate; if the slope there is still below ``CURVATURE`` times the
    line's starting slope the search goes on along the same line, else a
    new Polak-Ribiere+ direction starts (steepest descent under Powell's
    restart test).  Either way the first step along the next line comes
    from the curvature the last trial measured along its line, capped at
    ``GROW`` times that trial's step.  A restart stops
    when its Riemannian gradient norm reaches ``GRAD_TOL``, when its next
    trial predicts a decrease below ``DECREASE_TOL`` (relative to
    max(1, |f|)), or after ``max_iter`` iterates.
    """
    out_x = np.array(x, dtype=complex)
    out_f = np.array(values, dtype=float)
    n_restarts = out_x.shape[0]
    out_iterations = np.zeros(n_restarts, dtype=int)
    out_evaluations = np.zeros(n_restarts, dtype=int)
    reasons = [""] * n_restarts

    # Per live restart (``ids`` maps them to the stack): the iterate x and
    # its value f; in ``lines``, the current line's direction eta (slot 1)
    # and the gradient g_line where the line began (slot 2), with slot 0
    # free for the trial's gradient; the slope along eta and the line's
    # starting slope slope0; the next trial step, the counts, and the index
    # of the stop reason in _REASONS (0 while the restart runs).
    ids = np.arange(n_restarts)
    x, f = out_x.copy(), out_f.copy()
    grad = tangent(x, np.asarray(egrad))
    gnorm2 = np.einsum("rij,rij->r", grad.conj(), grad).real
    lines = np.stack([grad, -grad, grad], axis=1)
    slope = slope0 = -gnorm2
    step = FIRST_ANGLE / np.sqrt(np.where(gnorm2 > 0.0, gnorm2, 1.0))
    iterations = np.zeros(n_restarts, dtype=int)
    evaluations = np.ones(n_restarts, dtype=int)
    done = np.where(gnorm2 <= GRAD_TOL**2, 1, 0)

    while True:
        # Written as "not above" so that a NaN step also stops the restart.
        done[(done == 0) & ~(-step * slope > DECREASE_TOL * np.maximum(1.0, np.abs(f)))] = 2
        if done.any():
            for k in np.flatnonzero(done):
                i = ids[k]
                out_x[i], out_f[i], reasons[i] = x[k], f[k], _REASONS[done[k]]
                out_iterations[i], out_evaluations[i] = iterations[k], evaluations[k]
            keep = done == 0
            if not keep.any():
                break
            ids, x, f, lines = ids[keep], x[keep], f[keep], lines[keep]
            slope, slope0, step = slope[keep], slope0[keep], step[keep]
            iterations, evaluations = iterations[keep], evaluations[keep]
        trial = retract(x, step[:, None, None] * lines[:, 1])
        f_trial, g_trial = objective(trial)
        evaluations += 1
        ok = f_trial <= f + ARMIJO * step * slope

        shrunk = None
        if not ok.all():
            # Rejected: a safeguarded quadratic fit along the line.
            curv = f_trial - f - step * slope
            fit = -slope * step**2 / (2.0 * np.where(curv > 0.0, curv, np.inf))
            shrunk = np.minimum(np.maximum(fit, SHRINK[0] * step), SHRINK[1] * step)
            if not ok.any():
                step, done = shrunk, np.zeros(ids.size, dtype=int)
                continue

        # Accepted: the new gradient, the line direction and the gradient
        # where the line began, all in the tangent space at the trial, and
        # their inner products.
        lines[:, 0] = g_trial
        vecs = tangent(trial[:, None], lines)
        flat = vecs.reshape(ids.size, 3, -1)
        gram = (flat.conj() @ np.swapaxes(flat, -1, -2)).real
        gg, gm, mm, go, oo = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1], gram[:, 0, 2], gram[:, 2, 2]
        # Curvature of f along the line, per unit of squared direction norm.
        kappa = (gm - slope) / (step * mm)
        # The next direction is a g + b moved: the same line, a
        # Polak-Ribiere+ direction, or steepest descent when that one is
        # not a descent direction or when the gradient has kept too much of
        # the line's starting one (Powell's restart test).
        same = gm < CURVATURE * slope0
        beta = np.maximum(0.0, (gg - go) / np.where(oo > 0.0, oo, np.inf))
        beta[np.abs(go) >= POWELL * gg] = 0.0
        a = np.where(same, 0.0, -1.0)
        b = np.where(same, 1.0, np.where(beta * gm < gg, beta, 0.0))
        slope_new = a * gg + b * gm
        # The Newton step along the next direction, where the curvature
        # there is positive (a zero gradient leaves the quadratic at 0).
        quad = (a * a * gg + 2.0 * a * b * gm + b * b * mm) * kappa
        newton = -slope_new / np.where((kappa > 0.0) & (quad > 0.0), quad, np.inf)
        grown = np.where(newton > 0.0, np.minimum(newton, GROW * step), GROW * step)

        fresh = ok & ~same
        x = np.where(ok[:, None, None], trial, x)
        f = np.where(ok, f_trial, f)
        eta = a[:, None, None] * vecs[:, 0] + b[:, None, None] * vecs[:, 1]
        vecs[:, 1] = np.where(ok[:, None, None], eta, lines[:, 1])
        vecs[:, 2] = np.where(fresh[:, None, None], vecs[:, 0], lines[:, 2])
        lines = vecs
        slope = np.where(ok, slope_new, slope)
        slope0 = np.where(fresh, slope_new, slope0)
        step = grown if shrunk is None else np.where(ok, grown, shrunk)
        iterations += ok
        done = np.where(ok, np.where(gg <= GRAD_TOL**2, 1, np.where(iterations >= max_iter, 3, 0)), 0)

    return Descent(
        x=out_x,
        values=out_f,
        iterations=tuple(int(k) for k in out_iterations),
        evaluations=tuple(int(k) for k in out_evaluations),
        reasons=tuple(reasons),
    )


def summary(run: Descent, tol: float) -> tuple[int, float, bool]:
    """The best restart of ``run``, its restart spread, and whether it converged.

    Ties go to the lowest restart index.  The spread is max - min of the
    values of the restarts that stopped before the cap (infinite when none
    did).  The run converged when more than half of its restarts stopped
    before the cap and their spread is at most ``10 * tol``.
    """
    stopped = [v for v, why in zip(run.values, run.reasons) if why != CAP]
    spread = float(max(stopped) - min(stopped)) if stopped else math.inf
    converged = 2 * len(stopped) > len(run.values) and spread <= 10.0 * tol
    return int(np.argmin(run.values)), spread, converged
