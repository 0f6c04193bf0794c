"""Riemannian quasi-Newton (BFGS) descent on stacks of isometries.

A stack holds R independent restarts, each an n x p isometry (X^H X = I):
a point of the Stiefel manifold, with U(n) as the square case.  Each
restart takes quasi-Newton steps from its (s, y) pairs (Huang, Gallivan &
Absil, SIAM J. Optim. 25(3), 2015; Nocedal & Wright, Numerical
Optimization, 2006, ch. 6-7) with Armijo backtracking, in a chart and on a
curvature model both chosen once per stack.  The start's shape picks the
chart: a square stack is a measurement on U(d) and steps in ``_Cayley``,
any other in ``_Embedded`` (the square-start rule, ``descend``).  The
chart's coordinate count picks the model (``coordinates``, ``DENSE_MAX``).
On a dense embedded stack of more than ``RESEED_MIN`` coordinates each
restart that is not padded replaces its inverse Hessian once with the
regularized inverse of a finite-difference Riemannian Hessian (the re-seed,
``descend``), as BFGS alone stays in its linear phase on the rank-3 roof.

All restarts advance in lockstep, one objective call a round for every
live restart's pending trial.  Only the stacks are arrays: with a few live
restarts a NumPy call costs more than the scalar arithmetic it would
batch, so each restart's value, slope, step, counts and L-BFGS tables are
Python floats and ints, on which it does the same binary64 operations in a
stack as alone.  So a restart follows the path it takes alone, and a stack
may hold the restarts of several problems of one shape (``search``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import OptimizerConfig
from .qstate import _ensemble_objective
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
# The curvature model, by the D ``coordinates`` of a stack: up to DENSE_MAX
# a dense D x D inverse Hessian per restart (``_Dense``), above it L-BFGS
# over the last MEMORY pairs (``_LimitedMemory``).  The dense update costs
# O(D^2) a step against O(MEMORY D), and pays only where it saves rounds.
# On U(d) in the Cayley chart it takes fewer rounds and less time than
# L-BFGS at d = 4, 6 and 8 (D = 12, 30, 56) and ties at d = 10 (D = 90),
# so every measurement search up to d = 8 is dense; on the embedded roof
# the rank-3 roof (D = 54) is dense and the rank-4 roof (D = 128) L-BFGS.
DENSE_MAX = 64
# The re-seed (``descend``): a dense stack in the embedded chart of more than
# RESEED_MIN coordinates replaces a restart's H, once, with (S + mu I)^-1, S
# its finite-difference Riemannian Hessian of step RESEED_H (``_hessians``),
# at its first accepted iterate whose gradient norm is at most RESEED_AT
# times its start's; mu = 1 / (RESEED_DAMP s), s its BFGS scale
# (``_Dense.reseed``).  BFGS alone stays in its linear phase on the rank-3
# roof (D = 54), the gap to the final value shrinking by about 0.4 a step;
# the re-seed cuts its rounds by about 40% (43.3 -> 27.6 on
# random_mixed((3, 2), 3, 1, i), i < 16).  At D = 16 the rounds fall too,
# but a prototype re-seed cost about 3 rounds there: rank-2 roofs took
# 2.55 -> 4.37 ms a solve (15.2 -> 11.2 rounds), and the paired 2 x 2
# rank-3 stack 4.55 -> 6.35 ms (13.7 -> 9.3 rounds), hence the gate.  A
# fixed-round trigger (round 12 or 16) sent one state from 28 to 5,190
# rounds, and mu = 1 / (100 s) one from 85 to 338.
RESEED_MIN = 32
RESEED_AT = 0.03
RESEED_H = 1e-6
RESEED_DAMP = 10.0
# L-BFGS memory: the (s, y) pairs each restart keeps, in a ring with one
# more slot, where the newest pair is written before its s.y is known.
MEMORY = 4
SLOTS = MEMORY + 1

GRADIENT, NO_DECREASE, CAP = "gradient", "no_decrease", "cap"
# The agreement cut (``descend``): its stop reason, how close the lowest
# stopped values must be, and at most how many of them it compares.
AGREED = "agreed"
AGREE_TOL = 1e-9
AGREE_K = 3
# A candidate within CERTIFY_TOL of a proved lower bound is optimal to
# rounding and stops both searches before they start, with stop reason
# CERTIFIED (``certify``).
CERTIFY_TOL = 1e-12
CERTIFIED = "certified"
_REASONS = ("", GRADIENT, NO_DECREASE, CAP, AGREED)


@dataclass(frozen=True)
class Descent:
    """Final state of every restart of a stack.

    ``x`` holds the last iterates and ``values`` the objective there, the
    lowest of the restart's iterates since an accepted step always decreases
    it.  ``iterations`` counts accepted steps, ``evaluations`` the objective
    calls the restart was live for (its start included) plus one for its
    re-seed call, if it re-seeded (``descend``), and ``reasons`` why
    it stopped: ``GRADIENT``, ``NO_DECREASE``, ``CAP``, ``AGREED`` (cut when
    its problem's stopped restarts agreed), or ``CERTIFIED`` for the one
    restart of a ``certify`` run.
    """

    x: np.ndarray
    values: np.ndarray
    iterations: tuple
    evaluations: tuple
    reasons: tuple


def _herm(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


def tangent(x: np.ndarray, z: np.ndarray, xh: np.ndarray | None = None) -> np.ndarray:
    """Projection of ``z`` onto the tangent space at ``x``: Z - X sym(X^H Z); ``xh``, when given, is X^H."""
    xz = (_herm(x) if xh is None else xh) @ z
    return z - x @ ((xz + _herm(xz)) / 2.0)


def retract(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """QR retraction: the Q factor of A = X + V, with a positive diagonal in R.

    Computed as Cholesky QR, Q = A R^-1 with R^H R = A^H A, which is the
    unique Householder Q to rounding.  For a tangent V, A^H A = I + V^H V has
    condition number at most 1 + |V|_2^2: Q stays orthonormal to rounding
    for steps of norm up to 10, and ``descend`` caps its trial steps at
    ``MAX_STEP``.  At p = 2 the Cholesky factor L of the 2 x 2 Gram and
    R^-1 = L^-H are closed forms (Gram-Schmidt on the two columns), since
    batched LAPACK makes one call per 2 x 2 matrix; Q agrees with LAPACK's
    Cholesky QR to about 1e-15.  Wider stacks take LAPACK's ``cholesky`` and
    ``inv``.
    """
    a = x + v
    gram = _herm(a) @ a
    if a.shape[-1] != 2:
        return a @ _herm(np.linalg.inv(np.linalg.cholesky(gram)))
    l11 = np.sqrt(gram[..., 0, 0].real)
    l21 = gram[..., 1, 0] / l11
    i11, i22 = 1.0 / l11, 1.0 / np.sqrt(gram[..., 1, 1].real - (l21.real**2 + l21.imag**2))
    r_inv = np.zeros_like(gram)
    r_inv[..., 0, 0], r_inv[..., 0, 1], r_inv[..., 1, 1] = i11, (-l21 * i11 * i22).conj(), i22
    return a @ r_inv


def coordinates(n: int, p: int) -> int:
    """The reals of a tangent vector of an n x p stack: n^2 - n on U(n) (``_Cayley``), else 2 n p (``_Embedded``)."""
    return n * n - n if n == p else 2 * n * p


class _Embedded:
    """The embedded chart of the Stiefel manifold: a tangent vector is the 2 n p reals of an n x p array.

    Under <A, B> = Re tr(A^H B), a gradient is the ``tangent`` projection of
    the Euclidean one, a direction is projected onto the new tangent space,
    and a step is the QR ``retract`` (Edelman, Arias & Smith, SIAM J. Matrix
    Anal. Appl. 20(2), 1998).  Both charts give ``descend`` the same maps,
    all on (R, D) real coordinates, D = ``coordinates(n, p)``: ``gradient``
    and ``direction`` a tangent vector, ``norms2`` its squared norm, and
    ``move`` the trial points of a step with the step's coordinates s.
    ``gradient`` and ``direction`` at one iterate take its X^H as ``xh``,
    formed once by the caller (None forms it).
    """

    @staticmethod
    def gradient(x: np.ndarray, egrad: np.ndarray, xh: np.ndarray | None = None) -> np.ndarray:
        return tangent(x, egrad, xh).reshape(len(x), -1).view(float)

    @staticmethod
    def norms2(a: np.ndarray) -> np.ndarray:
        """Squared norms, summed over whole complex entries.

        A flat real sum differs from it in the last bit on most stacks, and
        moves seeded (2, 3) rank-4 L-BFGS roofs by up to 2.4e-13, with other
        iteration counts.
        """
        c = a.view(complex)
        return np.einsum("ri,ri->r", c.conj(), c).real

    @staticmethod
    def move(x: np.ndarray, step: list, eta: np.ndarray):
        moves = np.array(step)[:, None] * eta
        return retract(x, moves.view(complex).reshape(x.shape)), moves

    @staticmethod
    def direction(at: np.ndarray, d: np.ndarray, xh: np.ndarray | None = None) -> np.ndarray:
        return _Embedded.gradient(at, d.view(complex).reshape(at.shape), xh)


class _Cayley:
    """The left-trivialized chart of U(n): a tangent vector at V is Omega V, Omega skew-Hermitian.

    Its coordinates are the n^2 - n reals of sqrt(2) times Omega's strict
    upper triangle, so that |u| = |Omega|_F.  Omega's diagonal, which only
    moves the row phases, is left out (the square-start rule, ``descend``).
    The gradient is read off as
    (G V^H - V G^H) / sqrt(2) above the diagonal, with no projection; a step
    is the Cayley transform V' = (I - Omega/2)^-1 (I + Omega/2) V = 2 (I -
    Omega/2)^-1 V - V, one batched solve (Wen & Yin, Math. Program. 142,
    397, 2013); and (s, y) pairs need no transport, as the coordinates do
    not turn with the tangent space (Huang, Gallivan & Absil, SIAM J. Optim.
    25, 1660, 2015).
    """

    def __init__(self, n: int):
        upper = np.triu_indices(n, 1)
        self.upper, self.mirror = (np.ravel_multi_index(ij, (n, n)) for ij in (upper, upper[::-1]))
        self.off, self.step = np.concatenate([self.upper, self.mirror]), n + 1

    def gradient(self, x: np.ndarray, egrad: np.ndarray, xh: np.ndarray | None = None) -> np.ndarray:
        a = (egrad @ (_herm(x) if xh is None else xh)).reshape(len(x), -1)
        return ((a.take(self.upper, axis=1) - a.take(self.mirror, axis=1).conj()) * math.sqrt(0.5)).view(float)

    @staticmethod
    def norms2(a: np.ndarray) -> np.ndarray:
        return np.einsum("ri,ri->r", a, a)

    def move(self, x: np.ndarray, step: list, eta: np.ndarray):
        moves = np.array(step)[:, None] * eta
        w = moves.view(complex) * math.sqrt(0.125)  # Omega / 2 above the diagonal
        a = np.zeros((len(x), x.shape[1] ** 2), dtype=complex)  # I - Omega / 2, flattened
        a[:, self.off] = np.concatenate([-w, w.conj()], axis=1)
        a[:, :: self.step] = 1.0
        return 2.0 * np.linalg.solve(a.reshape(x.shape), x) - x, moves

    @staticmethod
    def direction(_at: np.ndarray, d: np.ndarray, _xh=None) -> np.ndarray:
        return d


def random_isometries(gens, n: int, p: int) -> np.ndarray:
    """One random n x p isometry (n >= p) per generator in ``gens``, as a (len(gens), n, p) stack.

    Each is the Q factor of its own complex Gaussian matrix, all from one
    stacked ``np.linalg.qr``.  At n = p it is unitary but not Haar-random, as
    R's diagonal phases are not fixed (Mezzadri, Notices AMS 54, 592, 2007):
    starts and bases need only be spread over the manifold.
    """
    z = np.array([g.normal(size=(n, p)) + 1j * g.normal(size=(n, p)) for g in gens], dtype=complex)
    return np.linalg.qr(z.reshape(len(gens), n, p))[0]


@functools.lru_cache(maxsize=64)
def seeded_isometries(n: int, p: int, seed: int, first: int, count: int) -> np.ndarray:
    """Read-only (count, n, p) ``random_isometries`` on Philox streams first .. first + count - 1 of ``seed``.

    The one cache of seeded draws: the random starts of every search
    (``restart_stack``) and ``verify.check_kw_pointwise``'s bases.  It is
    bounded, so a loop over seeds does not grow it without limit.
    """
    draws = random_isometries([stream(seed, k) for k in range(first, first + count)], n, p)
    draws.setflags(write=False)
    return draws


def restart_stack(first: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    """A search's starts: restart 0 ``first``, an m x n isometry, then restart k from stream k of ``cfg.seed``.

    Every search of one shape and configuration shares its random starts
    (``seeded_isometries``).  A square ``first`` takes the conjugate
    transposes of the draws (the square-start rule, ``descend``).
    """
    later = seeded_isometries(*first.shape, cfg.seed, 1, cfg.restarts - 1)
    return np.concatenate([first[None], _herm(later) if first.shape[0] == first.shape[1] else later])


def _stall(step: float, slope: float, f: float) -> int:
    # 2 (NO_DECREASE) unless the trial predicts a decrease above DECREASE_TOL
    # relative to max(1, |f|), written "not above" so that a NaN stops it too.
    # max() and min() take the operand that may be NaN first, to keep a NaN.
    return 0 if -step * slope > DECREASE_TOL * max(abs(f), 1.0) else 2


def _cholesky(a: np.ndarray) -> list:
    """The Cholesky factor of each matrix of the stack ``a``, None where one is not positive definite."""
    try:
        return list(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        return [None] if len(a) == 1 else [_cholesky(m[None])[0] for m in a]


@functools.lru_cache(maxsize=8)
def _hermitian_basis(p: int) -> np.ndarray:
    """The p^2 p x p Hermitian E_b, orthonormal under Re tr(A^H B), side by side: the p x p^3 [E_1 ... E_p^2]."""
    basis = []
    for j in range(p):
        for k in range(j, p):
            for u in [1.0] if j == k else [math.sqrt(0.5), 1j * math.sqrt(0.5)]:
                e = np.zeros((p, p), dtype=complex)
                e[j, k], e[k, j] = u, np.conj(u)
                basis.append(e)
    return np.concatenate(basis, axis=1)


def _hessians(objective: Callable, x: np.ndarray, egrad: np.ndarray, counts: list):
    """Finite-difference Riemannian Hessians S of a (T, n, p) stack of isometries, and the frames they are read in.

    The frame of X is an orthonormal basis, as real rows, of its tangent
    vectors orthogonal to the row phases i diag(theta) X, which the objective
    of a ``search`` does not see: 2 n p - p^2 - n of them (36 on a rank-3
    roof), the complement of the orthonormal row phases i E_jj X / |X_j| and
    normal space X S (S Hermitian), from one complete QR.  S[a, b] = <xi_a,
    Hess f(X)[xi_b]>, with Hess f(X)[xi] = P_X(D grad f(X)[xi] - xi sym(X^H
    grad f(X))) (Absil, Mahony & Sepulchre, Optimization Algorithms on
    Matrix Manifolds, 2008, sec. 5.3), D grad f(X)[xi] ~ (grad f(X + h xi) -
    grad f(X)) / h with h = ``RESEED_H``, and P_X dropped as the frame is
    tangent; S is then symmetrized.  X + h xi is off the manifold, where the
    ensemble objective is still defined.  ``egrad`` holds the Euclidean
    gradients at ``x``, and ``counts`` the restarts of each problem in ``x``:
    one ``objective`` call scores every restart's frame points, in its
    problem's block.
    """
    t, n, p = x.shape
    known = np.empty((t, n + p * p, n, p), dtype=complex)
    known[:, :n] = 1j * np.eye(n)[:, :, None] * (x / np.linalg.norm(x, axis=2, keepdims=True))[:, None]
    known[:, n:] = np.swapaxes((x @ _hermitian_basis(p)).reshape(t, n, p * p, p), 1, 2)
    q = np.linalg.qr(np.swapaxes(known.reshape(t, n + p * p, -1).view(float), 1, 2), mode="complete")[0]
    frame = np.ascontiguousarray(np.swapaxes(q[:, :, n + p * p :], 1, 2))
    xi = frame.view(complex).reshape(t, -1, n, p)
    sizes = tuple(xi.shape[1] * c for c in counts)
    _values, grads = objective((x[:, None] + RESEED_H * xi).reshape(-1, n, p), sizes)
    xg = _herm(x) @ egrad
    z = (grads.reshape(xi.shape) - egrad[:, None]) / RESEED_H - (
        xi.reshape(t, -1, p) @ ((xg + _herm(xg)) / 2.0)).reshape(xi.shape)
    hess = frame @ np.swapaxes(z.reshape(frame.shape[:2] + (-1,)).view(float), 1, 2)
    return (hess + np.swapaxes(hess, 1, 2)) / 2.0, frame


class _Dense:
    """Dense BFGS: one D x D inverse Hessian H per live restart, as a stack.

    H is zero until the restart's first stored pair, so ``descend`` takes
    steepest descent; that pair sets H = (s.y / y.y) I, and every stored pair
    takes the BFGS update H+ = (I - rho s y^T) H (I - rho y s^T) + rho s s^T,
    rho = 1 / s.y, as one rank-2 product batched over the restarts that store
    a pair.  ``reseed`` may replace a restart's H once.
    """

    def __init__(self, grad: np.ndarray):
        self.g = grad.copy()
        self.h = np.zeros(grad.shape + grad.shape[1:])
        self.started = [False] * len(grad)

    def keep(self, keep: list) -> None:
        self.g, self.h = self.g[keep], self.h[keep]
        self.started = [self.started[k] for k in keep]

    def _put(self, h: np.ndarray, rows: list, live: list, scales: list, frame=None, core=None) -> None:
        """Set h[rows], the H of the live restarts ``live``, to scales I, plus frame^T core frame when given."""
        for k in live:
            self.started[k] = True
        new = np.array(scales)[:, None, None] * np.eye(h.shape[-1])
        if frame is not None:
            new += np.swapaxes(frame, 1, 2) @ core @ frame
        h[rows] = new

    def reseed(self, live: list, hess: np.ndarray, frame: np.ndarray, g: np.ndarray):
        """Put H = (S + mu I)^-1 for each of the live restarts ``live`` where it gives a descent direction.

        ``hess`` and ``frame`` come from ``_hessians`` and ``g`` holds the
        gradients, so S is F^T hess F, F the frame, and H = F^T (hess + mu
        I)^-1 F + (I - F^T F) / mu, with mu = 1 / (``RESEED_DAMP`` s), s the
        restart's BFGS scale: tr H / D, or 1 / max |diag hess| before its
        first stored pair.  H stays where hess + mu I is not positive
        definite (its Cholesky factorization fails) or -H g does not descend.
        Returns the indices into ``live`` that took the new H, and their -H g.
        """
        inverse = [RESEED_DAMP * float(np.trace(self.h[k]) / g.shape[1] if self.started[k]
                                       else 1.0 / np.abs(np.diagonal(a)).max()) for k, a in zip(live, hess)]
        eye = np.eye(hess.shape[1])
        factors = _cholesky(hess + (1.0 / np.array(inverse))[:, None, None] * eye)
        ok = [j for j, chol in enumerate(factors) if chol is not None]
        if not ok:
            return [], []
        inverse, frame, g = [inverse[j] for j in ok], frame[ok], g[ok]
        chol_inv = np.linalg.inv(np.stack([factors[j] for j in ok]))
        core = np.swapaxes(chol_inv, 1, 2) @ chol_inv - np.array(inverse)[:, None, None] * eye  # H - I / mu, in F
        d = -np.array(inverse)[:, None] * g - (np.swapaxes(frame, 1, 2) @ (core @ (frame @ g[:, :, None])))[:, :, 0]
        good = [j for j, slope in enumerate(np.einsum("ri,ri->r", g, d).tolist()) if slope < 0.0]
        rows = [live[ok[j]] for j in good]
        self._put(self.h, rows, rows, [inverse[j] for j in good], frame[good], core[good])
        return [ok[j] for j in good], d[good]

    def directions(self, accepted: list, g: np.ndarray, s: np.ndarray):
        """-H g after storing each accepted restart's pair, its slopes <g, d> and |g|^2."""
        every = len(accepted) == len(self.g)
        y = g - (self.g if every else self.g[accepted])
        gg, sy, yy = (np.einsum("ri,ri->r", g, g).tolist(), np.einsum("ri,ri->r", s, y).tolist(),
                      np.einsum("ri,ri->r", y, y).tolist())
        store = [i for i, (a, b) in enumerate(zip(sy, yy)) if a > 0.0 and b > 0.0]
        h = self.h if every else self.h[accepted]
        if store:
            whole = len(store) == len(accepted)
            hs, ss, ys = (h, s, y) if whole else (h[store], s[store], y[store])
            first = [j for j, i in enumerate(store) if not self.started[accepted[i]]]
            if first:
                self._put(hs, first, [accepted[store[j]] for j in first], [sy[store[j]] / yy[store[j]] for j in first])
            # H+ = H + s w^T + w s^T = H + [s; w]^T [w; s], w = (rho + rho^2 y.Hy) s / 2 - rho Hy.
            hy = (hs @ ys[:, :, None])[:, :, 0]
            rho = 1.0 / np.array([sy[i] for i in store])
            half = 0.5 * rho * (1.0 + rho * np.einsum("ri,ri->r", ys, hy))
            sw = np.concatenate([ss[:, None], (half[:, None] * ss - rho[:, None] * hy)[:, None]], axis=1)
            hs += np.swapaxes(sw, 1, 2) @ sw[:, ::-1]
            if not whole:
                h[store] = hs
        d = -(h @ g[:, :, None])[:, :, 0]
        if every:
            self.g = g
        else:
            self.g[accepted], self.h[accepted] = g, h
        return d, np.einsum("ri,ri->r", g, d).tolist(), gg


class _LimitedMemory:
    """L-BFGS: the last ``MEMORY`` pairs of each live restart, and their two-loop recursion.

    Per live restart, in ``mem``: a ring of real vectors, the gradient g
    (slot 0), the steps s (slots 1 .. SLOTS) and the gradient changes y
    (slots SLOTS + 1 .. 2 SLOTS).  In lists: the ring slots of the stored
    pairs (oldest first), the free slot the next pair is written to, and the
    tables sy[i][j] = <s_i, y_j> (i stored before j, or i = j) and
    yy[i][j] = <y_i, y_j>.
    """

    def __init__(self, grad: np.ndarray):
        n_restarts = len(grad)
        self.mem = np.zeros((n_restarts, 1 + 2 * SLOTS, grad.shape[1]))
        self.mem[:, 0] = grad
        self.pairs, self.free = [[] for _ in range(n_restarts)], [0] * n_restarts
        self.sy = [[[0.0] * SLOTS for _ in range(SLOTS)] for _ in range(n_restarts)]
        self.yy = [[[0.0] * SLOTS for _ in range(SLOTS)] for _ in range(n_restarts)]

    def keep(self, keep: list) -> None:
        self.mem = self.mem[keep]
        self.pairs, self.free, self.sy, self.yy = (
            [v[k] for k in keep] for v in (self.pairs, self.free, self.sy, self.yy))

    def directions(self, accepted: list, g: np.ndarray, s: np.ndarray):
        """The two-loop direction after storing each accepted pair, its slopes (NaN with no pair) and |g|^2."""
        every = len(accepted) == len(self.mem)
        ring = self.mem if every else self.mem[accepted]
        y_new = g - ring[:, 0]
        rows, slot = np.arange(len(accepted)), [self.free[k] for k in accepted]
        ring[:, 0] = g
        ring[rows, [1 + t for t in slot]] = s
        ring[rows, [1 + SLOTS + t for t in slot]] = y_new
        products = (np.stack([g, y_new], axis=1) @ np.swapaxes(ring, 1, 2)).tolist()
        coefs, slopes = [], []
        for (gp, yp), k, t in zip(products, accepted, slot):
            stored, s_y, y_y = self.pairs[k], self.sy[k], self.yy[k]
            y_t = y_y[t]
            for i in stored:
                s_y[i][t] = yp[1 + i]
                y_y[i][t] = y_t[i] = yp[1 + SLOTS + i]
            s_y[t][t], y_t[t] = yp[1 + t], yp[1 + SLOTS + t]
            if s_y[t][t] > 0.0 and y_t[t] > 0.0:
                stored.append(t)
                self.free[k] = stored.pop(0) if len(stored) > MEMORY else len(stored)
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
            coefs.append(coef)
            slopes.append(slope_new)
        if not every:
            self.mem[accepted] = ring
        return (np.array(coefs)[:, None, :] @ ring)[:, 0], slopes, [gp[0] for gp, _ in products]


def _cut_agreed(done: list, f: list, owner: list, agree_k: list, settled: list) -> None:
    """Mark AGREED (4) every live restart of a problem whose lowest restarts stopped on their own agree.

    ``done`` holds this round's stop reasons and ``f`` the values of the live
    restarts, ``owner`` their problems; ``settled[q]`` gains the non-NaN
    values of q's restarts stopping now on GRADIENT or NO_DECREASE.
    """
    checked = set()
    for why, value, q in zip(done, f, owner):
        if why in (1, 2) and agree_k[q] >= 2:
            checked.add(q)
            if value == value:
                settled[q].append(value)
    for q in checked:
        lowest = sorted(settled[q])[: agree_k[q]]
        running = [k for k, p in enumerate(owner) if p == q and not done[k]]
        if (len(lowest) == agree_k[q] and lowest[-1] - lowest[0] <= AGREE_TOL
                and not any(f[k] < lowest[0] for k in running)):
            for k in running:
                done[k] = 4


def descend(objective: Callable, x, values, egrad, max_iter: int, sizes=None) -> Descent:
    """Minimize ``objective`` from every isometry of the stack ``x``.

    The stack holds ``sizes[q]`` restarts of problem q, in blocks in stack
    order (one problem when ``sizes`` is None).  ``objective(x', live)`` maps
    an (R', n, p) stack of live restarts, ``live[q]`` of them problem q's and
    still in stack order, to their values and Euclidean gradients (df = Re
    tr(G^H dX)); ``values`` and ``egrad`` are its output at ``x``.

    The square-start rule: a square stack (n = p) is a measurement on V =
    U^H, U its basis.  It steps in the Cayley chart (``_Cayley``), which
    leaves out the row phases, so its objective must not change under V ->
    Phi V, Phi diagonal unitary, as no function of a projective measurement
    does; and its random starts are the conjugate transposes of the draws
    (``restart_stack``), so that restart k measures in the drawn basis.  Any
    other stack steps in the embedded chart (``_Embedded``).  Vectors, norms and slopes
    are read in the chart's real coordinates, whose count sizes the
    curvature model.  The first line is steepest descent with a step of norm
    ``FIRST_ANGLE``.  A trial that fails the Armijo test shrinks its step by
    a safeguarded quadratic fit.  One that passes becomes the next iterate
    and stores the pair s = step eta, y = g_new - g_old, unless s.y <= 0 (a
    pair that would make the inverse Hessian indefinite).  The next
    direction is the model's -H g, projected in the embedded chart, with a
    first trial step of 1; with no stored pair, or when it does not descend,
    steepest descent with a first step of ``GROW`` times the last.  Every
    first step is capped at norm ``MAX_STEP``.  A restart stops when its
    Riemannian gradient norm reaches ``GRAD_TOL``, when its next trial
    predicts a decrease below ``DECREASE_TOL`` (relative to max(1, |f|)), or
    after ``max_iter`` iterates.

    The re-seed replaces a restart's dense inverse Hessian H once.  It
    applies where the stack is in the embedded chart, on the dense model and
    of more than ``RESEED_MIN`` coordinates, and only to restarts without an
    exactly zero row at the start: a padded problem's (``search``) zero rows
    must stay zero, and the re-seed's directions would move them.  The
    trigger reads the restart alone: its first accepted iterate, before the
    cap, whose gradient norm is above ``GRAD_TOL`` and at most ``RESEED_AT``
    times its start's.  H then becomes (S + mu I)^-1 on the frame of
    ``_hessians``, S its finite-difference Riemannian Hessian, and 1 / mu off
    it, with mu = 1 / (``RESEED_DAMP`` s) and s the BFGS scale tr H / D, or
    1 / max |diag S| before its first stored pair (``_Dense.reseed``); BFGS
    updates go on from it.  H stays where S + mu I is not positive definite
    or -H g does not descend.  The restarts that trigger in one round share
    one extra objective call, each in its problem's block, which counts as
    one evaluation of each of them and of no other restart.

    The agreement cut ends a problem early.  After a round in which a
    restart of problem q stopped on ``GRADIENT`` or ``NO_DECREASE``, let K =
    min(``AGREE_K``, sizes[q] - 1): when the K lowest non-NaN values of such
    restarts of q lie within ``AGREE_TOL`` and no live restart of q is below
    the lowest, every live restart of q stops there with ``AGREED``.  A block
    of one or two restarts is never cut.  The rule reads only q's restarts,
    and every restart makes one call a round, so a problem is cut in the
    same round stacked or alone, and a cut restart's x and value are those
    of its run alone with ``max_iter`` its iterations.
    """
    out_x = np.array(x, dtype=complex)
    n_restarts = out_x.shape[0]
    live = [n_restarts] if sizes is None else list(sizes)
    problem = [q for q, size in enumerate(live) for _ in range(size)]
    agree_k = [min(AGREE_K, size - 1) for size in live]
    settled = [[] for _ in live]  # the non-NaN values of q's restarts that stopped on their own
    out_f, out_iterations, out_evaluations, reasons = ([v] * n_restarts for v in (0.0, 0, 0, ""))

    # Per live restart (``ids`` maps them to the stack), in arrays: the
    # iterate x and, in the chart's real coordinates, the direction eta and
    # the curvature pairs of ``model``, so that <A, B> is a real dot
    # product.  In lists: its value f, the slope along eta, the next trial
    # step, the iterations, and the index of the stop reason in _REASONS (0
    # while it runs).
    ids = list(range(n_restarts))
    x = out_x.copy()
    n, p = x.shape[1:]
    chart = _Cayley(n) if n == p else _Embedded
    grad = chart.gradient(x, np.asarray(egrad))
    gnorm2 = chart.norms2(grad)
    eta = -grad
    model = (_Dense if grad.shape[1] <= DENSE_MAX else _LimitedMemory)(grad)
    f = np.array(values, dtype=float).tolist()
    slope = (-gnorm2).tolist()
    step = (FIRST_ANGLE / np.sqrt(np.where(gnorm2 > 0.0, gnorm2, 1.0))).tolist()
    iterations, evaluations = [0] * n_restarts, 1  # the rounds each live restart has been live for
    # The re-seed: |g|^2 at or below which a restart re-seeds (-1 once it has,
    # or where it never may), and its re-seed calls, which count as evaluations.
    reseed = chart is _Embedded and isinstance(model, _Dense) and grad.shape[1] > RESEED_MIN
    trigger = (np.where(out_x.any(axis=2).all(axis=1), RESEED_AT**2 * gnorm2, -1.0) if reseed
               else np.full(n_restarts, -1.0)).tolist()
    extra = [0] * n_restarts
    done = [1 if g2 <= GRAD_TOL**2 else _stall(s, sl, fk)
            for g2, s, sl, fk in zip(gnorm2.tolist(), step, slope, f)]

    while True:
        if any(done):
            _cut_agreed(done, f, [problem[i] for i in ids], agree_k, settled)
            for k, i in enumerate(ids):
                if done[k]:
                    out_x[i], out_f[i], reasons[i] = x[k], f[k], _REASONS[done[k]]
                    out_iterations[i], out_evaluations[i] = iterations[k], evaluations + extra[k]
                    live[problem[i]] -= 1
            keep = [k for k in range(len(ids)) if not done[k]]
            if not keep:
                break
            x, eta, done = x[keep], eta[keep], [0] * len(keep)
            model.keep(keep)
            ids, f, slope, step, iterations, trigger, extra = (
                [v[k] for k in keep] for v in (ids, f, slope, step, iterations, trigger, extra))
        trial, s_new = chart.move(x, step, eta)
        f_trial, g_trial = objective(trial, tuple(live))
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

        # Accepted: the new gradient g and step s, the model's next
        # directions, and steepest descent where a direction does not descend.
        every = len(accepted) == len(ids)
        at = trial if every else trial[accepted]
        egrad = g_trial if every else g_trial[accepted]
        g = chart.gradient(at, egrad, at_h := _herm(at))
        d, slopes_new, gg = model.directions(accepted, g, s_new if every else s_new[accepted])
        due = [row for row, k in enumerate(accepted)
               if GRAD_TOL**2 < gg[row] <= trigger[k] and iterations[k] + 1 < max_iter] if reseed else ()
        if due:
            # Each due restart's frame points in its problem's block of one call.
            rows = [accepted[row] for row in due]
            counts = [0] * len(live)
            for k in rows:
                counts[problem[ids[k]]] += 1
                trigger[k], extra[k] = -1.0, extra[k] + 1
            hess, frame = _hessians(objective, at[due], egrad[due], counts)
            taken, d_taken = model.reseed(rows, hess, frame, g[due])
            for j, d_row in zip(taken, d_taken):
                d[due[j]], slopes_new[due[j]] = d_row, float(g[due[j]] @ d_row)
        steps_new = []
        for row, k in enumerate(accepted):
            if slopes_new[row] < 0.0:
                steps_new.append(1.0)
            else:
                # No stored pair (a NaN or zero slope) or no descent: steepest descent.
                d[row], slopes_new[row] = -g[row], -gg[row]
                steps_new.append(GROW * step[k])
        eta_new = chart.direction(at, d, at_h)
        norms2 = np.einsum("ri,ri->r", eta_new, eta_new).tolist()
        for k, g2, slope_new, s, d2 in zip(accepted, gg, slopes_new, steps_new, norms2):
            if s * s * d2 > MAX_STEP**2:
                s = MAX_STEP / math.sqrt(d2)
            f[k], slope[k], step[k] = f_trial[k], slope_new, s
            iterations[k] += 1
            done[k] = (1 if g2 <= GRAD_TOL**2 else 3 if iterations[k] >= max_iter
                       else _stall(s, slope_new, f[k]))
        if every:
            x, eta = trial, eta_new
        else:
            x[accepted], eta[accepted] = at, eta_new

    return Descent(
        x=out_x,
        values=np.array(out_f),
        iterations=tuple(out_iterations),
        evaluations=tuple(out_evaluations),
        reasons=tuple(reasons),
    )


def search(objective: Callable, starts, cfg: OptimizerConfig) -> list[Descent]:
    """The searches of P problems in one ``descend``, problem q from its ``restart_stack`` ``starts[q]``.

    Problem q's starts are n_q x p isometries.  The stack holds n x p ones, n
    the largest n_q, and problem q uses only its first n_q rows: the rest are
    zero, and stay zero where the objective gives a zero row a zero gradient,
    as ``qstate._ensemble_objective`` does.  Each problem's ``Descent``, cut
    to its n_q rows, is its search's alone, of at most ``cfg.max_iter``
    iterations a restart, but the problems share every round, whose cost
    grows little with the number of live restarts.
    """
    n = max(stack.shape[1] for stack in starts)
    x = np.zeros((len(starts), cfg.restarts, n, starts[0].shape[-1]), dtype=complex)
    for q, stack in enumerate(starts):
        x[q, :, : stack.shape[1]] = stack
    x = x.reshape(-1, *x.shape[2:])
    sizes = (cfg.restarts,) * len(starts)
    run = descend(objective, x, *objective(x, sizes), cfg.max_iter, sizes)
    fields = (run.values, run.iterations, run.evaluations, run.reasons)
    return [Descent(run.x[k : k + cfg.restarts, : stack.shape[1]], *(v[k : k + cfg.restarts] for v in fields))
            for k, stack in zip(range(0, len(x), cfg.restarts), starts)]


@dataclass(frozen=True, eq=False)
class Problem:
    """One minimization of ``qstate._ensemble_objective`` over m x n isometries V.

    ``rows`` (n x d_A d_B) and ``da`` = d_A define the ensembles V rows;
    ``first`` is restart 0, an m x n isometry, and ``cfg`` the budget.
    ``candidate``, when given, is an isometry of ``first``'s shape scored
    against ``bound``, a proved lower bound (``certify``).  With ``dephasing``
    the value is the entropy of the union of the member spectra, less
    ``offset``.  A square ``first`` makes a measurement on V = U^H (the
    square-start rule, ``descend``; ``correlations._measurement_problem``);
    the convex roof is a problem of its isometries (``entanglement._roof``).
    """

    rows: np.ndarray
    da: int
    first: np.ndarray
    cfg: OptimizerConfig
    candidate: np.ndarray | None = None
    bound: float = 0.0
    dephasing: bool = False
    offset: float = 0.0


def objective_of(problems) -> Callable:
    """``qstate._ensemble_objective`` of the ``problems``' rows, one block each, less their common ``offset``."""
    head = problems[0]
    rows = head.rows[None] if len(problems) == 1 else np.stack([problem.rows for problem in problems])
    ensemble = _ensemble_objective(rows, head.da, rows.shape[-1] // head.da, head.dephasing)
    if not head.offset:
        return ensemble

    def objective(v: np.ndarray, sizes, gradient: bool = True):
        values, grad = ensemble(v, sizes, gradient)
        return values - head.offset, grad

    return objective


def solve(problems) -> list[Descent]:
    """Each problem's run: certified where its candidate meets its bound, else searched.

    Every certificate passes here, and every search but that of a caller's
    own objective (``minimize_over_measurements``).  The problems left run in
    one ``search`` per key: rows shape, d_A, dephasing and offset, ``cfg``,
    and whether the ``coordinates`` of its m x n start are at most
    ``DENSE_MAX``, so each keeps the curvature model of its search alone;
    above it only one shape groups, so no limited-memory search is padded.
    A U(d) problem padded beside a taller one keeps its square starts
    (``restart_stack``) but steps in the embedded chart, as its stack is not
    square (the square-start rule, ``descend``).
    """
    runs = [None if p.candidate is None else certify(objective_of([p]), p.candidate, p.bound) for p in problems]
    groups: dict = {}
    for i, p in enumerate(problems):
        if runs[i] is None:
            dense = coordinates(*p.first.shape) <= DENSE_MAX
            key = (p.rows.shape, p.da, p.dephasing, p.offset, p.cfg, dense or p.first.shape)
            groups.setdefault(key, []).append(i)
    for group in groups.values():
        stack = [problems[i] for i in group]
        starts = [restart_stack(p.first, p.cfg) for p in stack]
        for i, run in zip(group, search(objective_of(stack), starts, stack[0].cfg)):
            runs[i] = run
    return runs


def certify(objective: Callable, x: np.ndarray, bound: float) -> Descent | None:
    """A finished one-restart run at ``x``, or None when ``x`` misses the lower ``bound``.

    ``objective`` scores ``x`` once, for its value alone (``gradient=False``,
    which gives the value the full call gives, bit for bit).  A value within
    ``CERTIFY_TOL`` of a proved lower bound is optimal to rounding, so no
    search needs to run: the run has one evaluation, no iterations and the
    reason ``CERTIFIED``.  A value above that, or NaN, gives None.
    """
    values, _grad = objective(x[None], (1,), gradient=False)
    if not values[0] <= bound + CERTIFY_TOL:  # a NaN value is not certified
        return None
    return Descent(x=x[None], values=np.asarray(values, dtype=float), iterations=(0,), evaluations=(1,),
                   reasons=(CERTIFIED,))


def summary(run: Descent, tol: float) -> tuple[int, float, dict]:
    """The one reader of a finished run: its best restart, its restart spread, and the diagnostics ``fields``.

    The best restart has the lowest value that is not NaN, ties going to the
    lowest index; restart 0 when every value is NaN.  The spread is max - min
    of the values of the restarts that stopped on their own, neither at the
    cap nor ``AGREED`` (infinite when none did, NaN when one of them is NaN).
    ``fields`` holds the keyword fields that every result of a run takes
    (``correlations.OptimizedValue``, ``entanglement.EofResult``):
    ``restarts_stopped``, the restarts that stopped before the cap, an
    ``AGREED`` one included; ``restarts_at_best``, those within ``10 * tol``
    of the best value (a NaN value is at no distance from it, and with every
    value NaN none is); ``converged``, when more than half stopped before the
    cap and the spread is at most ``10 * tol``, which a NaN spread is not;
    and the run's ``iterations``, ``evaluations`` and ``stop_reasons``.
    """
    values = run.values.tolist()
    best = min((k for k, v in enumerate(values) if v == v), key=values.__getitem__, default=0)
    own = [v for v, why in zip(values, run.reasons) if why not in (CAP, AGREED)]
    spread = max(own) - min(own) if own else math.inf
    if any(v != v for v in own):  # max and min would depend on where the NaN sits
        spread = math.nan
    stopped = sum(why != CAP for why in run.reasons)
    return best, spread, {
        "converged": 2 * stopped > len(values) and spread <= 10.0 * tol,
        "restarts_stopped": stopped,
        "restarts_at_best": sum(v - values[best] <= 10.0 * tol for v in values),
        "iterations": run.iterations,
        "evaluations": run.evaluations,
        "stop_reasons": run.reasons,
    }
