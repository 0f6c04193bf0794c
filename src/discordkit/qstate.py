"""Density-matrix algebra on multipartite quantum states.

Construction and validation of density matrices, tensor products, partial
traces, spectral decompositions, von Neumann entropies, and canonical
purification, on small dense matrices (total dimension up to ~64), with
entropies in bits.  Eigenvalues below ``EIG_CLIP`` are treated as exact
zeros and the rest renormalized, which keeps ``0 * log 0`` and positivity
checks stable under floating-point eigensolvers; the searches' batched
entropy floors the logarithm instead (``_ensemble_objective``).

One rank rule: a state's rank is the number of eigenvalues of its kept
decomposition at or above ``EIG_CLIP``.  Every reader of a rank takes it
there: ``is_pure`` (rank 1), and through it ``verify``'s pure-ABC test and
``pure`` E_F route and ``entanglement.eof_pure``'s check; ``spectrum``, and
through it ``purify``'s environment, which sizes ``verify._kw_unmet``'s
rank and ``entanglement._roof``; ``_entropy_bits``; and
``measurement._measurement_factor``, whose column count gives the
zero-discord and Koashi-Winter certificates their rank.  The other floors
are on weights, not ranks: the searches' logarithm floor,
``measurement.OUTCOME_FLOOR`` and the roof witness's weight floor.

This module is the one owner of a state's spectral facts, and every
eigensolver call of the package passes through it (``_kept_eigh``,
``_gram_spectrum``).  A state keeps three things beside its matrix, each
computed once.  Its decomposition (``_decomposition``): ``validate`` takes
one ``eigh`` of the Hermitian part (m + m^H)/2, and the constructor keeps
that pair; a derived state, Hermitian by construction, takes one ``eigh`` of
its matrix on its first spectral read.  Its entropy, which
``von_neumann_entropy`` computes from that pair on first read.  Its
reductions, which ``partial_trace`` keeps keyed by the sorted kept indices,
so that every reader of one reduction reads one object, with one
decomposition and one entropy; a ``keep`` spelled as such a key answers
before it is parsed, and every other spelling is read in full.
``spectrum`` (and so ``purify``), ``measurement._measurement_factor`` on
subsystem 0 and ``entanglement.concurrence_2qubit`` read the kept pair.
Each fact depends only on the matrix, and the arrays are read-only, so
states are safe to share across concurrent workers: two workers that race
on a first read compute the same value.

Validation happens at the boundary.  ``config._integer`` reads every
integer argument, and ``_subsystems`` every subsystem index through it: a
bool, a float or an index out of range raises ``ValueError`` naming the
argument.  Every state built from outside data
(a caller's ``QState(...)``, ``state_from_json``, ``tensor``, the state
families) passes ``validate``'s eigensolver check.  The states that this
package's maps compute from a valid state (``partial_trace``,
``permute_subsystems``, ``measurement.apply_measurement``'s conditional
states, ``measurement.dephase``, and the measured subsystems of
``correlations.re_discord_detailed`` regrouped into one factor) are built
by ``_derived_state`` and not checked again, nor are the conditional
states of ``verify.check_kw_pointwise``, which stay arrays: each map keeps
Hermiticity, unit trace and positivity up to rounding.  A check there
could only reject valid inputs: the -0.9e-10 diagonal entries that pass
for one state sum to -3.6e-10 in its marginal, and dividing a block by a
small outcome probability scales rounding up with it.
``PureStateVector.to_density`` checks the trace alone, since an outer
product is Hermitian and positive semidefinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import _integer

__all__ = [
    "EIG_CLIP",
    "InvalidStateError",
    "PureStateVector",
    "QState",
    "Spectrum",
    "StateDiagnostics",
    "conditional_entropy",
    "is_pure",
    "partial_trace",
    "permute_subsystems",
    "purify",
    "purity",
    "spectrum",
    "state_from_json",
    "state_to_json",
    "tensor",
    "validate",
    "von_neumann_entropy",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-10

# Floor below which eigenvalues are treated as exact zeros.
EIG_CLIP = 1e-10

_EYE2 = np.eye(2)
_MINUS_PLUS = np.array([-1.0, 1.0])


class InvalidStateError(ValueError):
    """A matrix or amplitude vector is not a valid quantum state."""


def _as_dims(dims) -> tuple[int, ...]:
    out = tuple(_integer("dims", d, 1) for d in dims)
    if not out:
        raise ValueError("dims must contain at least one subsystem")
    return out


def _subsystems(name: str, indices, n: int) -> tuple[int, ...]:
    """``indices``, one index or an iterable, as a nonempty sorted tuple of distinct indices in range(n)."""
    try:
        items = list(indices)
    except TypeError:  # one index
        items = [indices]
    out = tuple(sorted({_integer(name, i) for i in items}))
    if not out:
        raise ValueError(f"{name} must name at least one subsystem")
    if out[0] < 0 or out[-1] >= n:
        raise ValueError(f"{name} indices {out} out of range for {n} subsystems")
    return out


def _as_complex_matrix(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class StateDiagnostics:
    """Validation residuals for a candidate density matrix.

    ``decomposition`` is the ``_kept_eigh`` pair behind
    ``min_eigenvalue``, which ``QState`` keeps (``_decomposition``); it is
    left out of ``repr`` and comparison.
    """

    hermiticity_error: float
    trace_error: float
    min_eigenvalue: float
    decomposition: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def hermitian_ok(self) -> bool:
        return self.hermiticity_error <= HERMITICITY_TOL

    @property
    def trace_ok(self) -> bool:
        return self.trace_error <= TRACE_TOL

    @property
    def psd_ok(self) -> bool:
        return self.min_eigenvalue >= -PSD_TOL

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.psd_ok


def validate(matrix, dims) -> StateDiagnostics:
    """Report Hermiticity, trace, and positivity residuals of ``matrix``.

    ``matrix`` is any square complex matrix, or a (..., D, D) stack, which
    reports the worst residual of each kind over its members.  The product of
    ``dims`` must equal the side: a mismatch raises ``ValueError``, and every
    other defect is reported in the diagnostics rather than raised.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    d = _as_dims(dims)
    side = math.prod(d)
    if m.shape[-1] != side:
        raise ValueError(f"matrix side {m.shape[-1]} does not match prod(dims) = {side}")
    mh = m.conj().swapaxes(-1, -2)
    herm = float(np.abs(m - mh).max(initial=0.0))
    tr = float(np.abs(m.trace(axis1=-2, axis2=-1) - 1.0).max(initial=0.0))
    # eigh assumes Hermitian input; symmetrize so the positivity residual
    # stays meaningful even when the Hermiticity check itself fails.
    pair = _kept_eigh((m + mh) / 2.0)
    return StateDiagnostics(herm, tr, float(pair[0][..., 0].min(initial=np.inf)), pair)


def _kept_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of Hermitian ``h`` (``numpy.linalg.eigh``), as read-only arrays."""
    w, v = np.linalg.eigh(h)
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


@dataclass(frozen=True, eq=False)
class QState:
    """A density matrix annotated with ordered subsystem dimensions.

    ``matrix`` is row-major over the tensor-product basis with subsystem 0
    slowest (``numpy.kron`` convention).  Construction validates Hermiticity
    (max-norm residual <= 1e-10), unit trace (<= 1e-10), and positive
    semidefiniteness (min eigenvalue >= -1e-10), except on derived states
    (module docstring); the stored array is a read-only copy.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = _as_dims(self.dims)
        m = _as_complex_matrix(self.matrix)
        diag = validate(m, dims)
        if not diag.ok:
            raise InvalidStateError(f"invalid density matrix: {diag}")
        _store(self, dims, m, diag.decomposition)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def __repr__(self) -> str:
        return f"QState(dims={self.dims})"


def _derived_state(dims: tuple[int, ...], matrix: np.ndarray) -> QState:
    """A ``QState`` computed from a valid state by a map of the module docstring, not validated again.

    ``dims`` must already be a tuple of positive ints.  The matrix is stored
    as a read-only complex copy, bit for bit, with no eigensolver: the
    state's one decomposition waits for its first spectral read.
    """
    return _store(object.__new__(QState), dims, np.array(matrix, dtype=np.complex128), None)


def _store(state: QState, dims: tuple[int, ...], m: np.ndarray, pair: tuple | None) -> QState:
    """``state`` with ``dims``, ``m`` made read-only, and its kept facts, set past the frozen ``__setattr__``.

    The kept facts (module docstring) start as ``pair`` (None for a derived state), no entropy and no reduction.
    """
    m.setflags(write=False)
    vars(state).update(dims=dims, matrix=m, _pair=pair, _entropy=None, _reductions={})
    return state


def _decomposition(state: QState) -> tuple[np.ndarray, np.ndarray]:
    """``state``'s one decomposition (module docstring): kept by the constructor, or computed on first read."""
    if state._pair is None:
        object.__setattr__(state, "_pair", _kept_eigh(state.matrix))
    return state._pair


@dataclass(frozen=True, eq=False)
class PureStateVector:
    """A unit-norm amplitude vector with ordered subsystem dimensions."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _as_dims(self.dims)
        amps = np.array(self.amplitudes, dtype=np.complex128).ravel()
        if amps.size != math.prod(dims):
            raise ValueError(
                f"amplitude length {amps.size} does not match prod(dims)"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
            raise InvalidStateError(f"vector norm deviates from 1 by {abs(norm - 1.0):.3g}")
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def to_density(self) -> QState:
        """The rank-1 density matrix of this vector, its trace checked alone (module docstring).

        The check takes ``validate``'s residual and bound: a norm within
        ``NORM_TOL`` of 1 may still give a trace off by more than ``TRACE_TOL``,
        which raises ``InvalidStateError``.
        """
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        trace_error = float(abs(m.trace() - 1.0))
        if not trace_error <= TRACE_TOL:  # a NaN residual fails too
            raise InvalidStateError(f"invalid density matrix: trace deviates from 1 by {trace_error:.3g}")
        return _derived_state(self.dims, m)

    def __repr__(self) -> str:
        return f"PureStateVector(dims={self.dims})"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Clipped, renormalized spectral decomposition, eigenvalues descending.

    Each eigenvector column is phased so that its first component of
    magnitude above 1e-8 is real and positive, which keeps purification
    outputs reproducible under degenerate spectra.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.eigenvalues > 0.0))

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def spectrum(state: QState) -> Spectrum:
    """Spectral decomposition of ``state`` with clipping and phase fixing, from its kept pair."""
    w, v = _decomposition(state)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    w = np.where(w < EIG_CLIP, 0.0, w)
    total = w.sum()
    if total > 0.0:
        w = w / total
    big = np.abs(v) > 1e-8
    pivot = v[big.argmax(axis=0), np.arange(v.shape[1])]
    has = big.any(axis=0)
    # np.hypot, not np.abs: it rounds |pivot| as the scalar abs does.
    phase = pivot.conjugate() / np.where(has, np.hypot(pivot.real, pivot.imag), 1.0)
    return Spectrum(w, np.where(has, v * phase, v))


def _entropy_bits(weights: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of clipped, renormalized weights along the last axis."""
    w = np.where(weights < EIG_CLIP, 0.0, weights)
    total = w.sum(axis=-1, keepdims=True)
    w = w / np.where(total > 0.0, total, 1.0)
    return -(w * np.log2(np.where(w > 0.0, w, 1.0))).sum(axis=-1) + 0.0


def _gram_spectrum(blocks: np.ndarray) -> tuple[np.ndarray, Callable]:
    """Ascending eigenvalues of a (..., k, k) stack of Hermitian blocks, and h -> sum_j h_j P_j.

    The function maps values h of shape (..., k), h_j belonging to the j-th
    eigenvalue, to the stack of sum_j h_j P_j over the spectral projectors.
    Sides 1 and 2 take the closed form: lambda_+- = mean +- hypot((a - d)/2,
    |c|), and h_- I + (h_+ - h_-)(G - lambda_- I)/(lambda_+ - lambda_-),
    which is h_- I at a double eigenvalue.  Larger sides take one batched
    LAPACK ``eigh``.
    """
    side = blocks.shape[-1]
    if side == 1:
        return blocks[..., 0].real, lambda h: h[..., None]
    if side == 2:
        a, d = blocks[..., 0, 0].real, blocks[..., 1, 1].real
        rad = np.hypot((a - d) / 2.0, np.abs(blocks[..., 1, 0]))
        w = ((a + d) / 2.0)[..., None] + rad[..., None] * _MINUS_PLUS

        def apply(h: np.ndarray) -> np.ndarray:
            coef = (h[..., 1] - h[..., 0]) / np.where(rad > 0.0, 2.0 * rad, np.inf)
            return coef[..., None, None] * blocks + (h[..., 0] - coef * w[..., 0])[..., None, None] * _EYE2

        return w, apply
    w, v = np.linalg.eigh(blocks)
    return w, lambda h: (v * h[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _ensemble_objective(rows: np.ndarray, da: int, db: int, dephasing: bool = False) -> Callable:
    """Batched entropy of the ensembles V rows, with its Euclidean gradient, for P problems.

    ``rows`` is a (P, n, da db) stack, one set of rows per problem.  The
    objective maps an (R, m, n) stack V and ``sizes``, the restarts of each
    problem in stack order (P blocks, some perhaps empty), to R values and R
    gradients G_V (df = Re tr(G^H dV)); each block takes the products it
    takes alone, on a slice, so it scores as its problem alone.  Member i is
    the row (V rows)_i cut into a da x db block M_i = sum_k V_ik B_k, with
    state rho_i = M_i M_i^H of weight p_i = tr rho_i.  The value is sum_i p_i
    S(rho_i / p_i), or with ``dephasing`` the entropy S of the union of all
    member spectra, normalized to unit sum.  A zero row of V is a member of
    zero weight with a zero gradient row, so padding rows stay zero.

    Spectra come from the s x s Gram G_i of the smaller side, s = min(da, db)
    (``_gram_spectrum``).  With C_k = B_k, or B_k^T when da > db (G_i is
    then the transpose of M_i^H M_i, of the same spectrum), the kernel
    K[(k, l), (a, c)] = sum_b C_k[a, b] conj(C_l[c, b]), built once per
    problem, gives every Gram of the stack in one product, G_i = (V_i (x)
    conj V_i) K.

    This is the one eigenvalue floor of the searches: each normalized
    eigenvalue mu enters as -mu log2 max(mu, EIG_CLIP), continuous in mu, so
    that no line search meets a jump.  The value is never high, and it is low
    by at most EIG_CLIP / (e ln 2) ~ 5.3e-11 bits per floored eigenvalue: by
    at most (s - 1) 5.3e-11, or for the union the count of all member
    eigenvalues less one times that.  The derivative is sum_i tr[W_i dG_i]
    with W_i = -log2 max(mu, EIG_CLIP), or -(log2 max(mu, EIG_CLIP) + S) /
    sum for the union, so G_V_i = 2 T_i V_i with T_i = W_i K^H (W_i read as a
    row of s^2 entries): a second product.
    """
    s = min(da, db)
    n = rows.shape[1]
    kernels, kernels_h = [], []
    for c in rows.reshape(len(rows), n, da, db):
        if da > db:
            c = np.swapaxes(c, -1, -2)
        c2 = c.reshape(n * s, -1)
        kernel = (c2 @ c2.conj().T).reshape(n, s, n, s).transpose(0, 2, 1, 3).reshape(n * n, s * s)
        kernels.append(kernel)
        kernels_h.append(np.ascontiguousarray(kernel.conj().T))
    axes = (-2, -1) if dephasing else -1

    def objective(v: np.ndarray, sizes):
        outer = (v[..., :, None] * v.conj()[..., None, :]).reshape(-1, n * n)
        grams = _blockwise(outer, sizes, kernels).reshape(v.shape[:-1] + (s, s))
        w, apply = _gram_spectrum(grams)
        w = np.maximum(w, 0.0)
        p = w.sum(axis=axes, keepdims=True)
        mu = w / np.where(p > 0.0, p, 1.0)
        logs = np.log2(np.maximum(mu, EIG_CLIP))
        values = -((mu if dephasing else w) * logs).sum(axis=(-2, -1)) + 0.0  # no -0.0 for all-zero terms
        if dephasing:
            logs = (logs + values[..., None, None]) / p
        t = _blockwise(apply(logs).reshape(-1, s * s), sizes, kernels_h).reshape(v.shape + (n,))  # -T
        return values, -2.0 * (t @ v[..., None])[..., 0]

    return objective


def _blockwise(a: np.ndarray, sizes: tuple, mats) -> np.ndarray:
    """The row blocks of ``a``, one per problem of ``sizes[q]`` restarts of equal rows, each times ``mats[q]``."""
    if len(mats) == 1:  # one problem: one product on the whole stack, no copy
        return a @ mats[0]
    out = np.empty((len(a), mats[0].shape[1]), dtype=np.result_type(a, mats[0]))
    per, start = len(a) // sum(sizes), 0
    for size, mat in zip(sizes, mats):
        stop = start + size * per
        np.matmul(a[start:stop], mat, out=out[start:stop])
        start = stop
    return out


def von_neumann_entropy(state: QState) -> float:
    """Von Neumann entropy of ``state`` in bits; ``0 * log 0`` is 0.  Kept on the state after the first read."""
    if state._entropy is None:
        object.__setattr__(state, "_entropy", float(_entropy_bits(_decomposition(state)[0])))
    return state._entropy


def tensor(a: QState, b: QState) -> QState:
    """Kronecker product of two states; dims are concatenated."""
    return QState(a.dims + b.dims, np.kron(a.matrix, b.matrix))


def partial_trace(state: QState, keep: Iterable[int]) -> QState:
    """Trace out the subsystems not in ``keep`` (read by ``_subsystems``); the rest keep order.

    Kept on ``state`` under the sorted kept indices: every spelling of ``keep`` returns one object.
    A kept key itself, a sorted tuple of ``int``, answers before parsing; any other spelling (a
    bool, a float, a NumPy scalar, unsorted or repeated indices) is read in full.
    """
    if type(keep) is tuple and all(type(i) is int for i in keep) and keep in state._reductions:
        return state._reductions[keep]
    kept = _subsystems("keep", keep, state.n_subsystems)
    if kept not in state._reductions:
        dims = state.dims
        t = state.matrix.reshape(dims + dims)
        for ax in reversed([i for i in range(state.n_subsystems) if i not in kept]):
            t = t.trace(axis1=ax, axis2=ax + t.ndim // 2)
        kept_dims = tuple(dims[i] for i in kept)
        side = math.prod(kept_dims)
        state._reductions[kept] = _derived_state(kept_dims, t.reshape(side, side))
    return state._reductions[kept]


def permute_subsystems(state: QState, order: Sequence[int]) -> QState:
    """Reorder subsystems so that new position ``k`` holds old ``order[k]``."""
    order = tuple(_integer("order", o) for o in order)
    n = state.n_subsystems
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of range({n})")
    dims = state.dims
    axes = order + tuple(n + o for o in order)
    t = state.matrix.reshape(dims + dims).transpose(axes)
    new_dims = tuple(dims[o] for o in order)
    side = state.dim
    return _derived_state(new_dims, t.reshape(side, side))


def normalize_partition(n: int, partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Validate a bipartition ``(A, B)`` of ``n`` subsystems; ``None`` means 0 versus the rest."""
    if partition is None:
        if n < 2:
            raise ValueError("a bipartition needs at least two subsystems")
        return (0,), tuple(range(1, n))
    part_a, part_b = (tuple(_integer("partition", i) for i in part) for part in partition[:2])
    if sorted(part_a + part_b) != list(range(n)) or not part_a or not part_b:
        raise ValueError(
            f"partition {partition} must split all {n} subsystems into two nonempty groups"
        )
    return part_a, part_b


def conditional_entropy(state: QState, target: int, condition: int) -> float:
    """S(target | condition) = S(joint) - S(condition marginal), in bits.

    ``target`` and ``condition`` are disjoint subsystems of ``state``, each
    one index or a set (``_subsystems``), and the joint is the reduction onto
    both.  May be negative for entangled states.
    """
    target = _subsystems("target", target, state.n_subsystems)
    condition = _subsystems("condition", condition, state.n_subsystems)
    if set(target) & set(condition):
        raise ValueError("target and condition must be distinct subsystems")
    joint = partial_trace(state, target + condition)
    marginal = partial_trace(state, condition)
    return von_neumann_entropy(joint) - von_neumann_entropy(marginal)


def purity(state: QState) -> float:
    """Tr(rho^2), in (0, 1]."""
    m = state.matrix
    return float(np.real(np.trace(m @ m)))


def is_pure(state: QState) -> bool:
    """Whether ``state`` has rank 1: exactly one eigenvalue of its kept decomposition is at least ``EIG_CLIP``."""
    return np.count_nonzero(_decomposition(state)[0] >= EIG_CLIP) == 1


def purify(state: QState) -> PureStateVector:
    """Canonical purification sum_i sqrt(l_i) |e_i> |i> over an environment of dimension rank(state).

    Built from ``spectrum``'s descending, clipped, phase-fixed decomposition,
    so the output is reproducible.  The environment is the last subsystem;
    tracing it out recovers ``state``.
    """
    sp = spectrum(state)
    r = sp.rank
    amps = sp.eigenvectors[:, :r] * np.sqrt(sp.eigenvalues[:r])
    return PureStateVector(state.dims + (r,), amps.reshape(-1))


def matrix_to_json(matrix: np.ndarray) -> list:
    """Complex matrix as nested lists of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]


def matrix_from_json(rows) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidStateError(f"matrix entries must be [re, im] pairs: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidStateError(
            f"matrix must be a square grid of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def state_to_json(state: QState) -> dict:
    """JSON-ready dict with ``dims`` and a [re, im]-pair matrix."""
    return {"dims": list(state.dims), "matrix": matrix_to_json(state.matrix)}


def state_from_json(obj) -> QState:
    """Parse and re-validate a state from its JSON dict form."""
    if not isinstance(obj, dict):
        raise InvalidStateError("state JSON must be an object")
    for field in ("dims", "matrix"):
        if field not in obj:
            raise InvalidStateError(f"state JSON is missing the '{field}' field")
    try:
        dims = _as_dims(obj["dims"])
    except (TypeError, ValueError) as exc:
        raise InvalidStateError(f"bad 'dims' field: {exc}") from None
    return QState(dims, matrix_from_json(obj["matrix"]))
