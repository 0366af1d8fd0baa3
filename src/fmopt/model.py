"""Core state containers and the matrix-free stiffness operator.

A design is a list of m symmetric k-by-k material blocks; the stiffness
operator A(E) = sum_i sum_l B_{i,l}^T E_i B_{i,l} is never materialized
here, it is applied through the per-element operators B_{i,l}, stored
packed on their column supports in ``ProblemInstance``.  ``apply_B`` and
its adjoint ``apply_Bt`` are the one element kernel every sweep in the
package goes through.

Per-element arrays are stored with the element axis last and contiguous:
the operators as (nig, k, n_loc, m), material blocks and the dual sums as
(k, k, m), strains as (L, nig, k, m).  The m independent k-by-k problems
of an iteration are then a few multiply-adds (einsum and elementwise
kernels) over length-m vectors.  A mesh repeats one element operator over
most of its elements (fem2d builds two: interior and fixed-edge), so the
instance finds the most common one, by exact comparison, once at
construction; when at least ``SHARED_SHARE`` of the elements use it,
``apply_B`` and ``apply_Bt`` apply it to every element as one matmul per
load and redo only the elements that differ through the einsum.  Every function
still takes and returns the element axis first -- (m, k, k), (L, m, nig, k)
-- as zero-copy transposed views of that storage: ``elements_first`` and
``elements_last`` convert between the two orders, e.g.
``elements_first(blocks)`` for (k, k, m) blocks; inputs in C order are
accepted and give the same results.

States are value types, safe to hand between threads.  Per-element
contributions reduce through an associative sum in a fixed element order,
so repeated runs on the same build are bit-reproducible.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-9  # eigenvalue/trace slack after a double-precision projection
QUAD_CLAMP = 1e-9  # quad form more negative than this signals corrupted state
DENSE_THRESHOLD = 4000  # largest N for which an N x N matrix (A(E), B^T B) is formed
# least share of elements on one operator for the element kernels to share it:
# the split beat the all-element einsum with 25% of the operators differing
# and lost with 50%
SHARED_SHARE = 0.75


# np.moveaxis's permutations, built once per (ndim, axis): _TO_LAST[ndim][axis]
# moves ``axis`` to the end, _FROM_LAST[ndim][axis] moves the last axis to ``axis``
_TO_LAST = tuple(
    tuple(tuple(a for a in range(n) if a != axis) + (axis,) for axis in range(n))
    for n in range(6)
)
_FROM_LAST = tuple(
    tuple(tuple(range(axis)) + (n - 1,) + tuple(range(axis, n - 1)) for axis in range(n))
    for n in range(6)
)


def elements_last(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """The view of ``a`` with its element axis ``axis`` moved to the end.

    ``np.moveaxis(a, axis, -1)`` as one ``ndarray.transpose``: the same view
    of the same memory, without building the permutation on every call
    (``moveaxis`` costs 4-6 us, ``transpose`` 0.2 us).  (m, k, k) blocks
    give (k, k, m), (L, m, nig, k) strains with ``axis=1`` give
    (L, nig, k, m); a 1-d array is returned as a view of itself.
    """
    return a.transpose(_TO_LAST[a.ndim][axis])


def elements_first(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """The view of ``a`` with its last (element) axis moved to ``axis``.

    ``np.moveaxis(a, -1, axis)`` as one ``ndarray.transpose``; the inverse
    of ``elements_last``.
    """
    return a.transpose(_FROM_LAST[a.ndim][axis])


class FmoError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(FmoError):
    """Shapes of states, operators, or vectors do not agree."""


class InvalidInstance(FmoError):
    """Problem data violates a documented invariant."""


class NumericalFailure(FmoError):
    """A numerical routine produced an untrustworthy result."""


@dataclass
class FlopCounter:
    """Named floating-point-operation tallies: the run's flop ledger.

    The per-call charge of every key is written once, in
    ``diagnostics.flop_model``, and only ``saddle.run_solver`` charges it,
    at the calls it makes; no kernel takes a counter.  Element loops are
    charged with the standard multiply-add model on the touched column
    support only (``n_loc`` columns per element, not N); dense-width
    equivalents are reported separately by ``diagnostics.flop_report``.
    """

    counts: dict = field(default_factory=dict)

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + float(n)

    @property
    def total(self) -> float:
        return float(sum(self.counts.values()))

    def snapshot(self) -> dict:
        return dict(self.counts)


def _pack_indices(k: int):
    return np.triu_indices(k)


@dataclass(frozen=True)
class MaterialState:
    """m symmetric k-by-k blocks, stored as packed upper triangles.

    The packed storage makes symmetry a structural property rather than a
    numerical one.  Treat instances as immutable values; they are safe to
    hand between threads.
    """

    packed: np.ndarray  # (m, k*(k+1)//2)
    k: int

    @classmethod
    def from_dense(cls, blocks: np.ndarray) -> "MaterialState":
        blocks = np.asarray(blocks, dtype=float)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise DimensionMismatch(
                f"expected (m, k, k) block array, got {blocks.shape}"
            )
        k = blocks.shape[1]
        sym = 0.5 * (blocks + np.swapaxes(blocks, 1, 2))
        iu, ju = _pack_indices(k)
        return cls(packed=sym[:, iu, ju].copy(), k=k)

    @property
    def m(self) -> int:
        return self.packed.shape[0]

    def dense(self) -> np.ndarray:
        """The blocks as a dense (m, k, k) view of (k, k, m) storage (always symmetric)."""
        k = self.k
        iu, ju = _pack_indices(k)
        out = np.zeros((k, k, self.m))
        out[iu, ju] = self.packed.T
        out[ju, iu] = self.packed.T
        return elements_first(out)

    def traces(self) -> np.ndarray:
        k = self.k
        iu, ju = _pack_indices(k)
        return self.packed[:, iu == ju].sum(axis=1)

    def objective(self) -> float:
        """Total trace <I, E>, the material cost."""
        return float(self.traces().sum())


@dataclass(frozen=True)
class DualState:
    """L scaled adjoint displacement vectors of length N."""

    vectors: np.ndarray  # (L, N)

    @classmethod
    def from_array(cls, vectors: np.ndarray) -> "DualState":
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        return cls(vectors=vectors.copy())

    @property
    def L(self) -> int:
        return self.vectors.shape[0]

    @property
    def N(self) -> int:
        return self.vectors.shape[1]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.vectors, axis=1)


@dataclass(frozen=True)
class SharedOperator:
    """The element operator most elements of an instance share, and the rest.

    ``B`` is the shared operator as (nig*k, n_loc); ``others`` lists, in
    increasing order, the elements whose operator differs from it in any
    entry, and ``B_others`` holds their operators in element-last storage,
    (nig, k, n_loc, len(others)).  All three are read-only.
    """

    B: np.ndarray
    others: np.ndarray
    B_others: np.ndarray


def find_shared_operator(B: np.ndarray) -> SharedOperator | None:
    """The most common operator of element-last ``B``, if it covers ``SHARED_SHARE``.

    A fixed-weight hash of each operator proposes the candidate: an
    operator on more than half of the elements holds the median hash.
    Membership is then decided by exact comparison of every entry, so a
    hash collision or a rounding difference in the hash can only cost
    sharing, never a wrong result.  Returns None when fewer than
    ``SHARED_SHARE`` of the elements match the candidate.
    """
    nig, k, n_loc, m = B.shape
    flat = B.reshape(-1, m)
    keys = np.cos(np.arange(flat.shape[0])) @ flat
    median = np.partition(keys, m // 2)[m // 2]
    candidate = flat[:, np.argmax(keys == median)]
    same = (flat == candidate[:, None]).all(axis=0)
    if same.sum() < SHARED_SHARE * m:
        return None
    others = np.flatnonzero(~same)
    shared = SharedOperator(
        B=candidate.reshape(nig * k, n_loc).copy(),
        others=others,
        B_others=np.ascontiguousarray(B[..., others]),
    )
    for array in (shared.B, shared.others, shared.B_others):
        array.flags.writeable = False
    return shared


class ProblemInstance:
    """Immutable description of one material design problem.

    The element operators are stored packed: element i couples the free
    DOFs ``cols_packed[i]`` through the nig dense k-by-n_loc blocks
    ``B_packed[i]``.  Supports narrower than n_loc are padded with columns
    whose B entries are all zero (builders point them at DOF 0); padding
    contributes nothing to any element sweep.

    The storage is element-last and C-contiguous: ``B`` is
    (nig, k, n_loc, m) and ``cols`` is (n_loc, m).  ``B_packed`` and
    ``cols_packed`` are transposed views of it with the element axis first.
    ``shared`` is the ``SharedOperator`` found in ``B`` at construction, or
    None when no operator covers ``SHARED_SHARE`` of the elements.
    ``scatter_index`` is the flat ``bincount`` index of ``apply_Bt`` for L
    rows (``scatter_index(L, N, cols)``), built once.  ``band_layout`` is
    the RCM order and band scatter index of the banded compliance solves
    (``penalty.band_layout``), built on first use.  ``B``, ``cols``, the
    storage they view, ``shared``, ``scatter_index`` and ``band_layout``
    are read-only, so none of them can go stale.  ``with_params`` derives
    an instance with other gamma, eta or nu that shares all of them.

    Parameters
    ----------
    cols : int ndarray (m, n_loc)
        Free-DOF index of each local column of each element.
    B : ndarray (m, nig, k, n_loc)
        Per-element strain operators B_{i,l} on their column supports.
        Views of element-last storage (such as the ``cols_packed`` and
        ``B_packed`` of another instance) are kept as given, and the
        storage they view is made read-only; arrays in element-major order
        are copied once into it.
    loads : ndarray (L, N)
        Load vectors on the free DOFs.
    rho_l, rho_u : ndarray (m,)
        Per-element trace bounds.
    r : float
        Eigenvalue floor of every material block.
    gamma : float
        Compliance cap.
    eta : float
        Radius of the dual ball.
    nu : float
        Penalty weight; 0 disables the penalty term.
    """

    def __init__(self, cols, B, loads, rho_l, rho_u, r, gamma, eta, nu=0.0):
        cols, B = np.asarray(cols), np.asarray(B, dtype=float)
        self.loads = np.atleast_2d(np.asarray(loads, dtype=float))
        if B.ndim != 4 or cols.ndim != 2:
            raise DimensionMismatch(
                f"expected cols (m, n_loc) and B (m, nig, k, n_loc), "
                f"got {cols.shape} and {B.shape}"
            )
        self.m, self.nig, self.k, self.n_loc = B.shape
        if self.m == 0:
            raise InvalidInstance("instance has no elements")
        if cols.shape != (self.m, self.n_loc):
            # the first element whose support and operator disagree
            first = 0 if cols.shape[1] != self.n_loc else min(cols.shape[0], self.m)
            raise DimensionMismatch(
                f"element {first}: column support {cols.shape} does not match "
                f"operator {B.shape}"
            )
        self.cols = np.ascontiguousarray(cols.T)
        self.B = np.ascontiguousarray(elements_last(B))
        self.N = self.loads.shape[1]
        self.L = self.loads.shape[0]
        self.rho_l = np.broadcast_to(np.asarray(rho_l, dtype=float), (self.m,)).copy()
        self.rho_u = np.broadcast_to(np.asarray(rho_u, dtype=float), (self.m,)).copy()
        self.r = float(r)
        self.gamma = float(gamma)
        self.eta = float(eta)
        self.nu = float(nu)
        self._validate()
        for array in (self.B, self.cols):  # and any storage they view
            while isinstance(array, np.ndarray):
                array.flags.writeable = False
                array = array.base
        self.shared = find_shared_operator(self.B)
        self.scatter_index = scatter_index(self.L, self.N, self.cols)
        self.scatter_index.flags.writeable = False

    @property
    def B_packed(self) -> np.ndarray:
        """The operators as an (m, nig, k, n_loc) view of the element-last storage."""
        return elements_first(self.B)

    @property
    def cols_packed(self) -> np.ndarray:
        """The column supports as an (m, n_loc) view of the element-last storage."""
        return self.cols.T

    def _validate(self) -> None:
        cols, B = self.cols, self.B
        if cols.dtype.kind not in "iu":
            raise InvalidInstance(f"column indices must be integers, got {cols.dtype}")
        bad = ~np.isfinite(B).all(axis=(0, 1, 2))
        if bad.any():
            raise InvalidInstance(f"element {bad.argmax()}: non-finite operator entries")
        bad = ((cols < 0) | (cols >= self.N)).any(axis=0)
        if bad.any():
            raise DimensionMismatch(
                f"element {bad.argmax()}: column index outside [0, {self.N})"
            )
        # a DOF may back at most one column that is not padding, or the
        # instance file would list one (row, col) entry twice
        named = np.sort(np.where((B != 0).any(axis=(0, 1)), cols, -1), axis=0)
        bad = ((named[1:] == named[:-1]) & (named[1:] >= 0)).any(axis=0)
        if bad.any():
            raise InvalidInstance(f"element {bad.argmax()}: a DOF backs two columns")
        if not np.all(np.isfinite(self.loads)):
            raise InvalidInstance("loads contain non-finite entries")
        for name in ("rho_l", "rho_u", "r"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidInstance(f"{name} must be finite")
        if not (self.r > 0):
            raise InvalidInstance("eigenvalue floor r must be positive")
        if np.any(self.k * self.r > self.rho_l * (1.0 + FEAS_TOL)):
            raise InvalidInstance("need k*r <= rho_l for every element")
        if np.any(self.rho_l > self.rho_u):
            raise InvalidInstance("need rho_l <= rho_u for every element")
        self._validate_params()

    def _validate_params(self) -> None:
        for name in ("gamma", "eta", "nu"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidInstance(f"{name} must be finite")
        if not (self.gamma > 0 and self.eta > 0 and self.nu >= 0):
            raise InvalidInstance("need gamma > 0, eta > 0, nu >= 0")

    def with_params(self, *, gamma=None, eta=None, nu=None) -> "ProblemInstance":
        """This instance with the given gamma, eta or nu, validated as the constructor does.

        None keeps a value.  Everything else is shared, not rebuilt: the
        operators, loads and bounds, ``shared``, ``scatter_index`` and, once
        built, ``band_layout`` depend on none of the three scalars.
        """
        variant = copy.copy(self)
        for name, value in (("gamma", gamma), ("eta", eta), ("nu", nu)):
            if value is not None:
                setattr(variant, name, float(value))
        variant._validate_params()
        return variant

    @functools.cached_property
    def band_layout(self) -> tuple:
        """``penalty.band_layout(self)``, built on first use and kept."""
        from . import penalty

        return penalty.band_layout(self)

    # -- starting point ----------------------------------------------------

    def start_material(self) -> MaterialState:
        """Identity blocks scaled so every trace sits at its upper bound."""
        eye = np.eye(self.k)[None, :, :] * (self.rho_u / self.k)[:, None, None]
        return MaterialState.from_dense(eye)

    def start_dual(self) -> DualState:
        """Constant vectors scaled to norm eta."""
        v = np.full((self.L, self.N), self.eta / np.sqrt(self.N))
        return DualState.from_array(v)

    def check_material(self, E: MaterialState) -> None:
        if E.m != self.m or E.k != self.k:
            raise DimensionMismatch(
                f"material state (m={E.m}, k={E.k}) does not match "
                f"instance (m={self.m}, k={self.k})"
            )


def check_dense_size(instance: ProblemInstance, what: str, threshold: int = DENSE_THRESHOLD):
    """Refuse, as bad input, work that forms an N x N matrix for N above ``threshold``.

    The one size gate of the package: penalty mode (a dense A(E) per step)
    and the bound data of a rank-deficient B (the dense B^T B spectrum)
    both go through it.
    """
    if instance.N > threshold:
        raise InvalidInstance(
            f"{what} is dense-only: N={instance.N} is above --dense-threshold {threshold}"
        )


@dataclass(frozen=True)
class FeasibilityReport:
    """Worst constraint violations of a material state, one entry per kind."""

    feasible: bool
    max_trace_excess: float
    worst_trace_excess_block: int
    max_trace_deficit: float
    worst_trace_deficit_block: int
    max_eig_deficit: float
    worst_eig_block: int


def feasible_E(instance: ProblemInstance, E: MaterialState, tol: float = FEAS_TOL):
    """Check membership of every block in its feasible set.

    Returns ``(ok, report)`` where ``ok`` is True iff every block satisfies
    the trace window and the eigenvalue floor within ``tol``.
    """
    from .proj import lambda_min

    instance.check_material(E)
    dense = E.dense()
    traces = np.einsum("qkk->q", dense)
    eigmin = lambda_min(elements_last(dense))
    excess = traces - instance.rho_u
    deficit = instance.rho_l - traces
    eig_deficit = instance.r - eigmin
    report = FeasibilityReport(
        feasible=bool(
            np.all(excess <= tol) and np.all(deficit <= tol) and np.all(eig_deficit <= tol)
        ),
        max_trace_excess=float(excess.max()),
        worst_trace_excess_block=int(excess.argmax()),
        max_trace_deficit=float(deficit.max()),
        worst_trace_deficit_block=int(deficit.argmax()),
        max_eig_deficit=float(eig_deficit.max()),
        worst_eig_block=int(eig_deficit.argmax()),
    )
    return report.feasible, report


def _check_vector(instance: ProblemInstance, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (instance.N,):
        raise DimensionMismatch(f"expected vector of length {instance.N}, got {v.shape}")
    return v


def scatter_index(n_rows: int, N: int, cols) -> np.ndarray:
    """Flat index of every (row, local column, element) into n_rows stacked N-vectors.

    Row-major over (row, local column, element), the order of ``apply_Bt``'s
    per-element rows; the first n rows of it are the index for n rows.
    """
    return (np.arange(n_rows)[:, None, None] * N + cols).ravel()


def apply_B(instance: ProblemInstance, X) -> np.ndarray:
    """Element strains B_{i,l} x_j for every row x_j of X: shape (L, m, nig, k).

    One gather of the column supports, then either one einsum over the
    local columns, elementwise along the elements, or -- when the instance
    has a ``shared`` operator -- one matmul of it with the gathered columns
    per load and the einsum on the differing elements alone.  The result
    is a view of (L, nig, k, m) storage.  Padded columns carry zero values
    and contribute nothing.
    """
    gathered = X.take(instance.cols, axis=1)  # (L, n_loc, m)
    shared = instance.shared
    if shared is None:
        W = np.einsum("lkdq,jdq->jlkq", instance.B, gathered)
    else:
        W = np.matmul(shared.B, gathered).reshape(
            len(gathered), instance.nig, instance.k, instance.m
        )
        W[..., shared.others] = np.einsum(
            "lkdq,jdq->jlkq", shared.B_others, gathered[..., shared.others]
        )
    return elements_first(W, 1)


def apply_Bt(instance: ProblemInstance, Y) -> np.ndarray:
    """Adjoint of ``apply_B``: sum_i sum_l B_{i,l}^T y_{j,i,l}, shape (L, N).

    The per-element rows come from the same split as ``apply_B`` (the
    transposed shared operator in one matmul per load, the einsum on the
    differing elements) and are summed into the global DOFs by one
    bincount over all loads, in fixed (load, local column, element) order.
    Up to L rows use a prefix of the instance's ``scatter_index``; more
    rows build their own.
    """
    n_rows, N = Y.shape[0], instance.N
    Y = elements_last(Y, 1)  # (L, nig, k, m)
    shared = instance.shared
    if shared is None:
        local = np.einsum("lkdq,jlkq->jdq", instance.B, Y)
    else:
        local = np.matmul(shared.B.T, Y.reshape(n_rows, -1, instance.m))
        local[..., shared.others] = np.einsum(
            "lkdq,jlkq->jdq", shared.B_others, Y[..., shared.others]
        )
    if n_rows <= instance.L:
        idx = instance.scatter_index[: n_rows * instance.cols.size]
    else:
        idx = scatter_index(n_rows, N, instance.cols)
    return np.bincount(idx, weights=local.ravel(), minlength=n_rows * N).reshape(n_rows, N)


def element_products(E, W) -> np.ndarray:
    """E_i w_{j,i,l} for every strain of W from ``apply_B``; same shape as W."""
    EW = np.einsum("abq,jlbq->jlaq", elements_last(E), elements_last(W, 1))
    return elements_first(EW, 1)


def element_quads(E, W):
    """(E_i W, <W, E W> per load) for strains W from ``apply_B``.

    Tiny negative forms from roundoff near the PSD boundary are clamped to
    zero; anything below -QUAD_CLAMP is treated as corrupted state.
    """
    EW = element_products(E, W)
    quad = np.einsum("jqlk,jqlk->j", W, EW)
    low = float(np.minimum.reduce(quad, initial=0.0))
    if low < -QUAD_CLAMP:
        raise NumericalFailure(
            f"<A(E)x, x> = {low:.3e} is negative beyond roundoff; "
            "material state appears corrupted"
        )
    return EW, np.maximum(quad, 0.0)


def element_gram(W, coef) -> np.ndarray:
    """Weighted per-element Gram blocks sum_j coef_j sum_l w_{j,i,l} w_{j,i,l}^T.

    ``W`` holds strains from ``apply_B``, shape (L, m, nig, k); the result
    is an (m, k, k) view of (k, k, m) storage, from one einsum.
    """
    W = elements_last(W, 1)
    gram = np.einsum("jlaq,jlbq->abq", coef[:, None, None, None] * W, W)
    return elements_first(gram)


def lagrangian_value(instance: ProblemInstance, E_dense, x) -> float:
    """Value of the saddle function at dense-array arguments."""
    _, quad = element_quads(E_dense, apply_B(instance, x))
    traces = np.einsum("qkk->q", E_dense).sum()
    pair = np.einsum("jn,jn->j", instance.loads, x)
    return float(traces + 2.0 * np.sum(pair - math.sqrt(instance.gamma) * np.sqrt(quad)))


def apply_A(instance: ProblemInstance, E: MaterialState, v):
    """Apply the stiffness operator A(E) to a vector, element by element.

    Never materializes A(E): computes sum_i sum_l B_{i,l}^T (E_i (B_{i,l} v)).
    """
    instance.check_material(E)
    v = _check_vector(instance, v)
    EW = element_products(E.dense(), apply_B(instance, v[None]))
    return apply_Bt(instance, EW)[0]
