"""Riemannian limited-memory BFGS descent on stacks of isometries.

A stack holds R independent restarts, each an n x p isometry (X^H X = I): a
point of the Stiefel manifold, with the unitary group U(n) as the square
case.  The metric is the embedded one, <A, B> = Re tr(A^H B), so the
Riemannian gradient is the tangent projection of the Euclidean one.  Each
restart takes L-BFGS steps: the two-loop recursion over its last ``MEMORY``
(s, y) pairs, kept in ambient coordinates and scaled by s.y / y.y of the
newest, with the result projected onto the tangent space (Huang, Gallivan &
Absil, SIAM J. Optim. 25(3), 2015; Nocedal & Wright, Numerical Optimization,
2006, ch. 7).  It searches each line by Armijo backtracking from a unit
step and moves by the QR retraction, computed as Cholesky QR (Edelman, Arias
& Smith, SIAM J. Matrix Anal. Appl. 20(2), 1998).

All restarts advance in lockstep: a round makes one objective call that
scores the pending point of every live restart, whether that is the first
trial of a new iteration or a backtracking trial.  Each restart keeps its own
step, direction, pairs and exit, so it follows the path it takes alone.  A
round makes one retraction, one objective call and, when some trial is
accepted, one tangent projection of the new gradients, one product of the new
gradient and y against every ring slot, one product that builds the
directions from the ring, and one tangent projection of them.  Only these
stacks are arrays: with a few live restarts a NumPy call costs more than the
scalar arithmetic it would batch, so each restart's value, slope, step,
counts, inner-product tables and two-loop recursion are Python floats and
ints, on which it does the same binary64 operations in a stack as alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .states import stream

# Stops: the Riemannian gradient norm, and the decrease a trial step
# predicts to first order, relative to max(1, |f|); below the latter the
# Armijo test only compares rounding errors.
GRAD_TOL = 1e-9
DECREASE_TOL = 1e-15
# Line search: the Armijo constant; the backtracking factor bounds; the
# cap on the growth of a steepest-descent first step from the last step;
# and the cap on the norm of a first trial step.
ARMIJO = 1e-4
SHRINK = (0.1, 0.5)
GROW = 4.0
MAX_STEP = 2.0
# Norm of a restart's first step: a rotation by about this angle.
FIRST_ANGLE = 0.5
# L-BFGS memory: the (s, y) pairs each restart keeps, in a ring with one
# more slot, where the newest pair is written before its s.y is known.
MEMORY = 4
SLOTS = MEMORY + 1

GRADIENT, NO_DECREASE, CAP = "gradient", "no_decrease", "cap"
# A candidate within CERTIFY_TOL of a proved lower bound is optimal to
# rounding and stops both searches before they start, with stop reason
# CERTIFIED.
CERTIFY_TOL = 1e-12
CERTIFIED = "certified"
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
    to 10, and ``descend`` caps its trial steps at norm ``MAX_STEP``.
    """
    a = x + v
    chol = np.linalg.cholesky(_herm(a) @ a)
    return a @ _herm(np.linalg.inv(chol))


def random_isometry(g: np.random.Generator, n: int, p: int) -> np.ndarray:
    """A random n x p isometry, n >= p: the Q factor of a complex Gaussian matrix.

    With n = p it is a random unitary.
    """
    z = g.normal(size=(n, p)) + 1j * g.normal(size=(n, p))
    return np.linalg.qr(z)[0]


@functools.lru_cache(maxsize=64)
def random_starts(n: int, p: int, seed: int, restarts: int) -> np.ndarray:
    """Read-only (restarts - 1, n, p) starts of restarts 1, 2, ... of both searches.

    Restart k starts from ``random_isometry`` on Philox stream k of ``seed``,
    so every search of one shape and configuration shares them; the cache is
    bounded, so a loop over seeds does not grow it without limit.
    """
    starts = np.array([random_isometry(stream(seed, k), n, p) for k in range(1, restarts)], dtype=complex)
    starts = starts.reshape(restarts - 1, n, p)
    starts.setflags(write=False)
    return starts


def _stall(step: float, slope: float, f: float) -> int:
    # 2 (NO_DECREASE) unless the trial predicts a decrease above DECREASE_TOL
    # relative to max(1, |f|), written "not above" so that a NaN stops it too.
    # max() and min() take the operand that may be NaN first, to keep a NaN.
    return 0 if -step * slope > DECREASE_TOL * max(abs(f), 1.0) else 2


def descend(objective: Callable, x, values, egrad, max_iter: int) -> Descent:
    """Minimize ``objective`` from every isometry of the stack ``x``.

    ``objective`` maps an (R', n, p) stack to its R' values and Euclidean
    gradients (df = Re tr(G^H dX)); ``values`` and ``egrad`` are its output
    at ``x``.  The first line is steepest descent with a step of norm
    ``FIRST_ANGLE``.  A trial that fails the Armijo test shrinks its step by
    a safeguarded quadratic fit.  A trial that passes becomes the next
    iterate and stores the pair s = step eta, y = g_new - g_old, unless
    s.y <= 0 (a pair that would make the inverse Hessian indefinite), in
    place of the oldest once ``MEMORY`` are stored.  The next direction is
    the L-BFGS two-loop recursion over the stored pairs, with the initial
    inverse Hessian s.y / y.y of the newest, projected onto the tangent
    space; its first trial step is 1.  With no stored pair, or when that
    direction does not descend, it is steepest descent with a first step of
    ``GROW`` times the last one.  Every first step is capped at norm
    ``MAX_STEP``.  A restart stops when its Riemannian gradient norm reaches
    ``GRAD_TOL``, when its next trial predicts a decrease below
    ``DECREASE_TOL`` (relative to max(1, |f|)), or after ``max_iter``
    iterates.
    """
    out_x = np.array(x, dtype=complex)
    n_restarts = out_x.shape[0]
    out_f, out_iterations, out_evaluations, reasons = ([v] * n_restarts for v in (0.0, 0, 0, ""))

    # Per live restart (``ids`` maps them to the stack), in arrays: the
    # iterate x, the direction eta and, in ``mem``, the pair ring as real
    # views of the flattened complex arrays, so that <A, B> is a real dot
    # product: the gradient g (slot 0), the steps s (slots 1 .. SLOTS) and
    # the gradient changes y (slots SLOTS + 1 .. 2 SLOTS).  In lists: its
    # value f, the slope along eta, the next trial step, the iterations, the
    # index of the stop reason in _REASONS (0 while it runs), the ring slots
    # of the stored pairs (oldest first), the free slot the next pair is
    # written to, and the tables sy[i][j] = <s_i, y_j> (i stored before j,
    # or i = j) and yy[i][j] = <y_i, y_j>.
    ids = list(range(n_restarts))
    x = out_x.copy()
    grad = tangent(x, np.asarray(egrad))
    gnorm2 = np.einsum("rij,rij->r", grad.conj(), grad).real
    eta = -grad
    mem = np.zeros((n_restarts, 1 + 2 * SLOTS, 2 * grad[0].size))
    mem[:, 0] = grad.reshape(n_restarts, -1).view(float)
    f = np.array(values, dtype=float).tolist()
    slope = (-gnorm2).tolist()
    step = (FIRST_ANGLE / np.sqrt(np.where(gnorm2 > 0.0, gnorm2, 1.0))).tolist()
    iterations, evaluations = [0] * n_restarts, 1  # the calls each live restart has made
    done = [1 if g2 <= GRAD_TOL**2 else _stall(s, sl, fk)
            for g2, s, sl, fk in zip(gnorm2.tolist(), step, slope, f)]
    pairs, free = [[] for _ in ids], [0] * n_restarts
    sy = [[[0.0] * SLOTS for _ in range(SLOTS)] for _ in ids]
    yy = [[[0.0] * SLOTS for _ in range(SLOTS)] for _ in ids]

    while True:
        if any(done):
            for k, i in enumerate(ids):
                if done[k]:
                    out_x[i], out_f[i], reasons[i] = x[k], f[k], _REASONS[done[k]]
                    out_iterations[i], out_evaluations[i] = iterations[k], evaluations
            keep = [k for k in range(len(ids)) if not done[k]]
            if not keep:
                break
            x, eta, mem, done = x[keep], eta[keep], mem[keep], [0] * len(keep)
            ids, f, slope, step, iterations, pairs, free, sy, yy = (
                [v[k] for k in keep] for v in (ids, f, slope, step, iterations, pairs, free, sy, yy))
        moves = np.array(step)[:, None, None] * eta
        trial = retract(x, moves)
        f_trial, g_trial = objective(trial)
        f_trial, evaluations = f_trial.tolist(), evaluations + 1
        accepted = []
        for k in range(len(ids)):
            s, sl = step[k], slope[k]
            if f_trial[k] <= f[k] + ARMIJO * s * sl:
                accepted.append(k)
                continue
            # Rejected: a safeguarded quadratic fit along the line.
            curv = f_trial[k] - f[k] - s * sl
            fit = -sl * (s * s) / (2.0 * (curv if curv > 0.0 else math.inf))
            step[k] = min(max(fit, SHRINK[0] * s), SHRINK[1] * s)
            done[k] = _stall(step[k], sl, f[k])
        if not accepted:
            continue

        # Accepted: the new gradient g and pair (s, y) written to the ring,
        # and the inner products of g and y with every slot in one product.
        n_acc = len(accepted)
        every = n_acc == len(ids)
        at = trial if every else trial[accepted]
        g = tangent(at, g_trial if every else g_trial[accepted]).reshape(n_acc, -1).view(float)
        ring = mem if every else mem[accepted]
        s_new = moves.reshape(len(ids), -1).view(float)
        y_new = g - ring[:, 0]
        rows, slot = np.arange(n_acc), [free[k] for k in accepted]
        ring[:, 0] = g
        ring[rows, [1 + t for t in slot]] = s_new if every else s_new[accepted]
        ring[rows, [1 + SLOTS + t for t in slot]] = y_new
        products = (np.stack([g, y_new], axis=1) @ np.swapaxes(ring, 1, 2)).tolist()
        coefs, slopes_new, steps_new = [], [], []
        for (gp, yp), k, t in zip(products, accepted, slot):
            stored, s_y, y_y = pairs[k], sy[k], yy[k]
            y_t = y_y[t]
            for i in stored:
                s_y[i][t] = yp[1 + i]
                y_y[i][t] = y_t[i] = yp[1 + SLOTS + i]
            s_y[t][t], y_t[t] = yp[1 + t], yp[1 + SLOTS + t]
            if s_y[t][t] > 0.0 and y_t[t] > 0.0:
                stored.append(t)
                free[k] = stored.pop(0) if len(stored) > MEMORY else len(stored)
            coef = [0.0] * (1 + 2 * SLOTS)
            slope_new = math.nan
            if stored:
                # The two-loop recursion, on the coefficients of the next
                # direction in the ring, and its slope <g, d>.
                newest = stored[-1]
                gamma = s_y[newest][newest] / y_y[newest][newest]
                alpha, seen = [0.0] * SLOTS, []
                for i in reversed(stored):
                    row, q = s_y[i], gp[1 + i]
                    for j in seen:
                        q -= alpha[j] * row[j]
                    alpha[i] = q / row[i]
                    seen.append(i)
                coef[0], slope_new, seen = -gamma, -gamma * gp[0], []
                for i in stored:
                    row, r = y_y[i], gp[1 + SLOTS + i]
                    for j in stored:
                        r -= alpha[j] * row[j]
                    r *= gamma
                    for j in seen:
                        r -= coef[1 + j] * s_y[j][i]
                    coef[1 + i] = c_s = r / s_y[i][i] - alpha[i]
                    coef[1 + SLOTS + i] = c_y = gamma * alpha[i]
                    slope_new += c_s * gp[1 + i] + c_y * gp[1 + SLOTS + i]
                    seen.append(i)
            if slope_new < 0.0:
                steps_new.append(1.0)
            else:
                # No stored pair (a NaN slope) or no descent: steepest descent.
                coef = [-1.0] + [0.0] * (2 * SLOTS)
                slope_new = -gp[0]
                steps_new.append(GROW * step[k])
            coefs.append(coef)
            slopes_new.append(slope_new)
        eta_new = tangent(at, (np.array(coefs)[:, None, :] @ ring).view(complex).reshape(at.shape))
        flat = eta_new.reshape(n_acc, -1).view(float)
        norms2 = np.einsum("ri,ri->r", flat, flat).tolist()
        for (gp, _), k, slope_new, s, d2 in zip(products, accepted, slopes_new, steps_new, norms2):
            if s * s * d2 > MAX_STEP**2:
                s = MAX_STEP / math.sqrt(d2)
            f[k], slope[k], step[k] = f_trial[k], slope_new, s
            iterations[k] += 1
            done[k] = (1 if gp[0] <= GRAD_TOL**2 else 3 if iterations[k] >= max_iter
                       else _stall(s, slope_new, f[k]))
        if every:
            x, eta = trial, eta_new
        else:
            x[accepted], eta[accepted], mem[accepted] = at, eta_new, ring

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
