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
step, direction and exit, so it follows the path it takes alone.  A round
makes one retraction, one objective call and, when some trial is accepted,
one tangent projection of the new gradient, the line direction and the line's
starting gradient together.  Only these stacks are arrays: with a few live
restarts a NumPy call costs more than the scalar arithmetic it would batch,
so each restart's value, slopes, step and counts are Python floats and ints,
on which it does the same binary64 operations in a stack as alone.
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


def _stall(step: float, slope: float, f: float) -> int:
    # 2 (NO_DECREASE) unless the trial predicts a decrease above DECREASE_TOL
    # relative to max(1, |f|), written "not above" so that a NaN stops it too.
    # max() and min() take the operand that may be NaN first, to keep a NaN.
    return 0 if -step * slope > DECREASE_TOL * max(abs(f), 1.0) else 2


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
    n_restarts = out_x.shape[0]
    out_f, out_iterations, out_evaluations, reasons = ([v] * n_restarts for v in (0.0, 0, 0, ""))

    # Per live restart (``ids`` maps them to the stack), in arrays: the
    # iterate x and, in ``lines``, the current line's direction eta (slot 1)
    # and the gradient g_line where the line began (slot 2), with slot 0 free
    # for the trial's gradient.  In lists: its value f, the slope along eta,
    # the line's starting slope slope0, the next trial step, the iterations
    # and the index of the stop reason in _REASONS (0 while it runs).
    ids = list(range(n_restarts))
    x = out_x.copy()
    grad = tangent(x, np.asarray(egrad))
    gnorm2 = np.einsum("rij,rij->r", grad.conj(), grad).real
    lines = np.stack([grad, -grad, grad], axis=1)
    f = np.array(values, dtype=float).tolist()
    slope, slope0 = (-gnorm2).tolist(), (-gnorm2).tolist()
    step = (FIRST_ANGLE / np.sqrt(np.where(gnorm2 > 0.0, gnorm2, 1.0))).tolist()
    iterations, evaluations = [0] * n_restarts, 1  # the calls each live restart has made
    done = [1 if g2 <= GRAD_TOL**2 else _stall(s, sl, fk)
            for g2, s, sl, fk in zip(gnorm2.tolist(), step, slope, f)]

    while True:
        if any(done):
            for k, i in enumerate(ids):
                if done[k]:
                    out_x[i], out_f[i], reasons[i] = x[k], f[k], _REASONS[done[k]]
                    out_iterations[i], out_evaluations[i] = iterations[k], evaluations
            keep = [k for k in range(len(ids)) if not done[k]]
            if not keep:
                break
            x, lines, done = x[keep], lines[keep], [0] * len(keep)
            ids, f, slope, slope0, step, iterations = (
                [v[k] for k in keep] for v in (ids, f, slope, slope0, step, iterations))
        trial = retract(x, np.array(step)[:, None, None] * lines[:, 1])
        f_trial, g_trial = objective(trial)
        f_trial, evaluations = f_trial.tolist(), evaluations + 1
        ok = [ft <= fk + ARMIJO * s * sl for ft, fk, s, sl in zip(f_trial, f, step, slope)]
        if any(ok):
            # Accepted: the new gradient, the line direction and the gradient
            # where the line began, all in the tangent space at the trial,
            # and their inner products.
            lines[:, 0] = g_trial
            vecs = tangent(trial[:, None], lines)
            flat = vecs.reshape(len(ids), 3, -1)
            gram = (flat.conj() @ np.swapaxes(flat, -1, -2)).real.tolist()
        coef = []
        for k in range(len(ids)):
            s, sl = step[k], slope[k]
            if not ok[k]:
                # Rejected: a safeguarded quadratic fit along the line.
                curv = f_trial[k] - f[k] - s * sl
                fit = -sl * (s * s) / (2.0 * (curv if curv > 0.0 else math.inf))
                step[k] = min(max(fit, SHRINK[0] * s), SHRINK[1] * s)
                done[k] = _stall(step[k], sl, f[k])
                coef.append((0.0, 0.0))
                continue
            (gg, gm, go), (_, mm, _), (_, _, oo) = gram[k]
            # Curvature of f along the line, per unit of squared direction
            # norm (NaN for a zero direction: no Newton step then).
            kappa = (gm - sl) / (s * mm) if s * mm else math.nan
            # The next direction is a g + b moved: the same line, a
            # Polak-Ribiere+ direction, or steepest descent when that one is
            # not a descent direction or when the gradient has kept too much
            # of the line's starting one (Powell's restart test).
            same = gm < CURVATURE * slope0[k]
            beta = max((gg - go) / (oo if oo > 0.0 else math.inf), 0.0)
            beta = 0.0 if abs(go) >= POWELL * gg else beta
            a, b = (0.0, 1.0) if same else (-1.0, beta if beta * gm < gg else 0.0)
            slope_new = a * gg + b * gm
            # The Newton step along the next direction, where the curvature
            # there is positive (a zero gradient leaves the quadratic at 0).
            quad = (a * a * gg + 2.0 * a * b * gm + b * b * mm) * kappa
            newton = -slope_new / (quad if kappa > 0.0 and quad > 0.0 else math.inf)
            step[k] = min(GROW * s, newton) if newton > 0.0 else GROW * s
            f[k], slope[k], slope0[k] = f_trial[k], slope_new, slope0[k] if same else slope_new
            iterations[k] += 1
            done[k] = (1 if gg <= GRAD_TOL**2 else 3 if iterations[k] >= max_iter
                       else _stall(step[k], slope_new, f[k]))
            coef.append((a, b))
        if any(ok):
            # Accepted: the trial, the line a g + b moved and, unless on the
            # same line, g as its start.  Rejected: the old iterate and lines.
            terms = np.array(coef)[:, :, None, None] * vecs[:, :2]
            np.add(terms[:, 0], terms[:, 1], out=vecs[:, 1])
            vecs[:, 2] = vecs[:, 0]
            for k, (a_k, _) in enumerate(coef):
                if not ok[k]:
                    trial[k], vecs[k] = x[k], lines[k]
                elif a_k == 0.0:
                    vecs[k, 2] = lines[k, 2]
            x, lines = trial, vecs

    return Descent(
        x=out_x,
        values=np.array(out_f),
        iterations=tuple(out_iterations),
        evaluations=tuple(out_evaluations),
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
