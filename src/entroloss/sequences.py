"""Converging state sequences and numerical discontinuity-jump estimation.

A jump (loss) of a lower-semicontinuous functional f along a converging
sequence is limsup f(x_n) - f(x_0).  A finite grid can only bound that from
one side, so estimates carry two numbers: the trailing-window supremum of
the measured values ("measured at finite n") and, where the family declares
one, a closed-form per-n estimator of the asymptotic value.  The report
never presents a finite-n number as the limsup.

This module is the one place that evaluates functionals along a family and
reads jumps off the values.  ``FUNCTIONALS`` names the functionals, keyed
like a family's ``closed_forms``.  ``series`` is the walk: it builds each
grid element once and evaluates every requested functional on it, named or
a caller's own callable.  ``jump_loss`` and ``jump_gain`` read the
``trailing_window`` of a series against the limit value, ``DEFAULT_WINDOW``
values unless told otherwise, and ``check_grid`` is the one rule a grid
must meet: nonempty, every n at least 1, and two windows long where a jump
is read off it.  ``read_jump`` is the read: it checks its window by that
rule and forms the full estimate from one functional's values and the
distances to the limit, so a caller that walks the grid once with
``seq.limit_distance`` among the functionals reads every jump off that one
walk.  ``estimate_jump`` is the walk and the read for one functional.  The
mixing family is an ``Ensemble`` average, the package's one convex
combination.

Pure bipartite elements are kept in Schmidt form, their Schmidt weights s
and nothing else, so that sequence runs at dimension 2**16 never
materialize a (dim^2)-sized matrix.  Both marginals have spectrum s^2, so a
pure state keeps its one marginal entropy, and its marginal entropies,
mutual information (twice the marginal entropy), conditional entropy and
pinched entropy score s^2 once.

A derived family is ``mapped`` from its base family (or bases): its n-th
element is an element map of the base's n-th element and its limit is the
same map of the base's limit, so no derived limit is written by hand.  The
correlated, product and triple families and the purification lift are
built this way on the sharp family.  The correlated and triple joints are
support-held diagonals (see ``operators``): their n + 1 weights at their
points, so their entropies and marginals cost O(n), not O(n**2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._optim import random_isometry
from .errors import (
    DimensionMismatchError,
    FunctionalUndefinedError,
    IncompatiblePurificationError,
    InvalidParameterError,
)
from .energy import Q_SLACK, Hamiltonian, sharp_sequence_state, sharp_sequence_weight
from .info import Ensemble, shannon_entropy, von_neumann_entropy, conditional_entropy, mutual_information
from .operators import TraceClassElement, _require_diag_dim, integer_parameter, integer_parameters, partial_trace, tensor, trace_distance

GRID_DIAG = tuple(2**k for k in range(4, 17))
GRID_MEDIUM = tuple(2**k for k in range(4, 10))
GRID_DENSE = tuple(2**k for k in range(4, 8))
DEFAULT_WINDOW = 3
CONVERGENCE_SLACK = 1e-10  # allowed rise of the trace distance between grid points


class PureBipartiteState:
    """Pure bipartite state in Schmidt form, psi = sum_k s_k |k>|k>, on a
    (d, d) space with d = len(s).

    Both marginals are diag(s^2), so marginals, entropies and overlaps never
    touch dense algebra; ``to_element`` materializes |psi><psi| on request.
    """

    __slots__ = ("dims", "_schmidt", "_entropy")

    def __init__(self, schmidt):
        s = np.asarray(schmidt, dtype=float)
        if s.ndim != 1:
            raise DimensionMismatchError(f"Schmidt weights must be 1-D, got shape {s.shape}")
        self._schmidt = s
        self.dims = (s.size, s.size)
        self._entropy = None

    def marginal(self) -> TraceClassElement:
        """Either side's reduced state, diag(s^2)."""
        return TraceClassElement(self._schmidt**2)

    def marginal_entropy(self) -> float:
        """Entropy of either side, scored once and stored."""
        if self._entropy is None:
            self._entropy = von_neumann_entropy(self.marginal())
        return self._entropy

    def overlap(self, other: "PureBipartiteState") -> float:
        """|<psi|phi>| with the smaller state zero-padded."""
        k = min(self._schmidt.size, other._schmidt.size)
        return float(abs(np.dot(self._schmidt[:k], other._schmidt[:k])))

    def to_element(self) -> TraceClassElement:
        d = self._schmidt.size
        psi = np.zeros(d * d, dtype=complex)
        psi[:: d + 1] = self._schmidt
        return TraceClassElement.pure(psi, factor_dims=self.dims)

    def __repr__(self):
        return f"PureBipartiteState(dims={self.dims})"


def pure_trace_distance(a: PureBipartiteState, b: PureBipartiteState) -> float:
    ov2 = min(a.overlap(b) ** 2, 1.0)
    return 2.0 * math.sqrt(max(1.0 - ov2, 0.0))


# ---------------------------------------------------------------------------
# functionals usable on both dense elements and Schmidt-form pure states
# ---------------------------------------------------------------------------


def entropy_of(x) -> float:
    if isinstance(x, PureBipartiteState):
        return 0.0
    return von_neumann_entropy(x)


def marginal_entropy_of(x, side: int = 0) -> float:
    if isinstance(x, PureBipartiteState):
        return x.marginal_entropy()
    return von_neumann_entropy(partial_trace(x, [side]))


def mutual_information_of(x) -> float:
    if isinstance(x, PureBipartiteState):
        return 2.0 * x.marginal_entropy()
    return mutual_information(x)


def conditional_entropy_of(x) -> float:
    if isinstance(x, PureBipartiteState):
        return -x.marginal_entropy()
    return conditional_entropy(x)


def pinched_entropy_of(x) -> float:
    """Shannon entropy of the computational-basis diagonal.

    A diagonal element is its own pinching, and the diagonal of a Schmidt-form
    |psi><psi| is s^2 on the (k, k) entries, so both return a stored entropy
    and the Schmidt form is never densified."""
    if isinstance(x, PureBipartiteState):
        return x.marginal_entropy()
    if x.diagonal:
        return von_neumann_entropy(x)
    return shannon_entropy(np.clip(x.diag, 0.0, None))


FUNCTIONALS = {
    "entropy": entropy_of,
    "marginal_entropy": lambda x: marginal_entropy_of(x, 0),
    "marginal_entropy_b": lambda x: marginal_entropy_of(x, 1),
    "mutual_information": mutual_information_of,
    "conditional_entropy": conditional_entropy_of,
    "pinched_entropy": pinched_entropy_of,
}


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


@dataclass
class StateSequence:
    """Generator n -> element together with the declared limit.

    ``closed_forms`` maps functional keys to per-n closed-form estimators of
    the asymptotic jump, available only for families that admit one.
    """

    generator: object
    limit: object
    n_grid: tuple = GRID_DIAG
    tags: dict = field(default_factory=dict)
    closed_forms: dict = field(default_factory=dict)

    def element(self, n: int):
        return self.generator(integer_parameter(n, "n", 1))

    def embedded_limit(self, like) -> object:
        """The limit zero-padded into the space of a generated element; a
        Schmidt-form limit is returned as it is, since ``overlap`` pads it."""
        lim = self.limit
        if isinstance(lim, PureBipartiteState):
            if not isinstance(like, PureBipartiteState):
                raise DimensionMismatchError("pure limit but non-pure element")
            return lim
        if lim.dim == like.dim:
            return lim
        if lim.factor_dims is not None and like.factor_dims is not None:
            if len(lim.factor_dims) != len(like.factor_dims):
                raise DimensionMismatchError("limit and element factor counts differ")
            if not lim.diagonal:
                raise DimensionMismatchError("a dense factorized limit embeds only into its own dimension")
            src = lim.diag.reshape(lim.factor_dims)
            dst = np.zeros(like.factor_dims)
            dst[tuple(slice(0, d) for d in lim.factor_dims)] = src
            return TraceClassElement(dst.reshape(-1), like.factor_dims)
        return lim.embed(like.dim, like.factor_dims)

    def limit_distance(self, x) -> float:
        """Trace distance from the element ``x`` to the limit."""
        lim = self.embedded_limit(x)
        if isinstance(x, PureBipartiteState):
            return pure_trace_distance(x, lim)
        return trace_distance(x, lim)

    def is_converging(self) -> bool:
        """Trace distance to the limit must be nonincreasing over the grid tail."""
        [profile] = series(self, self.limit_distance)
        return _nonincreasing_tail(profile)

    def closed_form_loss(self, key: str) -> float:
        """The declared asymptotic estimator under ``key`` at the largest grid point."""
        fn = self.closed_forms.get(key)
        if fn is None:
            raise FunctionalUndefinedError(f"no closed form declared under key {key!r}")
        return float(fn(self.n_grid[-1]))


def _nonincreasing_tail(profile) -> bool:
    tail = np.asarray(profile)[len(profile) // 2 :]
    return bool(np.all(np.diff(tail) <= CONVERGENCE_SLACK))


@dataclass(frozen=True)
class JumpEstimate:
    """Windowed jump estimate of a functional along a sequence.

    ``loss`` is the clamped trailing-window supremum minus the limit value;
    ``gain`` is the symmetric quantity for functionals that are not lower
    semicontinuous.  ``loss_closed_form``, when present, evaluates the
    family's declared asymptotic estimator at the largest grid point.
    """

    values: tuple
    limit_value: float
    tail_sup: float
    loss: float
    gain: float
    window: int
    monotone_tail: bool
    converging: bool
    loss_closed_form: float | None = None


def _as_float(value) -> float:
    value = float(value)
    if math.isnan(value):
        raise FunctionalUndefinedError("functional returned NaN")
    return value


def _functional(f):
    return FUNCTIONALS[f] if isinstance(f, str) else f


def series(seq: StateSequence, *functionals) -> list:
    """The values of each functional along ``seq.n_grid``, one list per functional.

    A functional is a key of ``FUNCTIONALS`` or a callable on an element.
    Each grid element is built once and every functional is scored on it.
    """
    fns = [_functional(f) for f in functionals]
    columns = [[] for _ in fns]
    for n in seq.n_grid:
        try:
            x = seq.element(n)
            for column, fn in zip(columns, fns):
                column.append(_as_float(fn(x)))
        except (OverflowError, ValueError) as exc:
            raise FunctionalUndefinedError(f"functional failed at n={n}: {exc}") from exc
    return columns


def check_grid(n_grid, window: int = 0) -> tuple:
    """``n_grid`` as a tuple of ints, refused unless it is nonempty, every n is
    at least 1 and it holds ``2 * window`` points, enough to read a jump over
    a trailing window of ``window`` values."""
    grid = integer_parameters(n_grid, "grid point", 1)
    if not grid:
        raise InvalidParameterError("grid is empty")
    if len(grid) < 2 * window:
        raise InvalidParameterError(f"grid has {len(grid)} points, fewer than 2 * window = {2 * window}")
    return grid


def trailing_window(values, window: int = DEFAULT_WINDOW):
    """The last ``window`` values of a series, the part a jump is read from."""
    return values[-integer_parameter(window, "window", 1) :]


def jump_loss(values, limit: float, window: int = DEFAULT_WINDOW) -> float:
    """Trailing-window supremum minus the limit value, clamped at zero."""
    return max(max(trailing_window(values, window)) - limit, 0.0)


def jump_gain(values, limit: float, window: int = DEFAULT_WINDOW) -> float:
    """The limit value minus the trailing-window infimum, clamped at zero."""
    return max(limit - min(trailing_window(values, window)), 0.0)


def estimate_jump(
    seq: StateSequence,
    functional,
    window: int = DEFAULT_WINDOW,
    closed_form_key: str | None = None,
) -> JumpEstimate:
    """Walk the grid for one functional and read its windowed jump estimate.

    The distance to the limit is read off each element as it is scored, so
    the grid is walked once, after the window is checked."""
    check_grid(seq.n_grid, integer_parameter(window, "window", 1))
    values, distances = series(seq, functional, seq.limit_distance)
    return read_jump(seq, functional, values, distances, window, closed_form_key)


def read_jump(
    seq: StateSequence,
    functional,
    values,
    distances,
    window: int = DEFAULT_WINDOW,
    closed_form_key: str | None = None,
) -> JumpEstimate:
    """The windowed jump estimate of a functional from its values along
    ``seq.n_grid`` and the distances of the grid elements to the limit, as
    ``series(seq, ..., functional, ..., seq.limit_distance)`` returns them."""
    window = integer_parameter(window, "window", 1)
    check_grid(seq.n_grid, window)
    limit_value = _as_float(_functional(functional)(seq.limit))
    tail = trailing_window(values, window)
    tail_sup = max(tail)
    infinite = math.isinf(limit_value)
    if infinite or math.isinf(tail_sup):
        loss = math.inf
    else:
        loss = jump_loss(values, limit_value, window)
    gain = 0.0 if infinite else jump_gain(values, limit_value, window)
    if all(math.isfinite(v) for v in tail):
        diffs = np.diff(tail)
        monotone = bool(np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12))
    else:
        monotone = False
    return JumpEstimate(
        values=tuple(values),
        limit_value=limit_value,
        tail_sup=tail_sup,
        loss=loss,
        gain=gain,
        window=window,
        monotone_tail=monotone,
        converging=_nonincreasing_tail(distances),
        loss_closed_form=None if closed_form_key is None else seq.closed_form_loss(closed_form_key),
    )


# ---------------------------------------------------------------------------
# derived families: element maps of a base family
# ---------------------------------------------------------------------------


def mapped(fn, *bases: StateSequence, tags: dict, closed_forms: dict) -> StateSequence:
    """The family whose n-th element is ``fn`` of the ``bases``' n-th elements
    and whose limit is ``fn`` of their limits, on the first base's grid."""

    def gen(n: int):
        return fn(*(base.element(n) for base in bases))

    return StateSequence(gen, fn(*(base.limit for base in bases)), bases[0].n_grid, tags, closed_forms)


def _purification(rho: TraceClassElement) -> PureBipartiteState:
    """The canonical purification of a diagonal rho, Schmidt weights sqrt(diag rho)."""
    if not rho.diagonal:
        raise IncompatiblePurificationError("only a diagonal state lifts to Schmidt form")
    return PureBipartiteState(np.sqrt(np.clip(rho.diag, 0.0, None)))


def lift_by_purification(seq: StateSequence) -> StateSequence:
    """Lift a diagonal state sequence to pure bipartite states with exact marginals.

    The lift is the purification map of ``seq``, limit included: each rho_n
    maps to the Schmidt-form state with weights sqrt(rho_n), whose marginals
    equal rho_n exactly, so the lift converges whenever ``seq`` does.  A
    non-diagonal element or limit raises ``IncompatiblePurificationError``.
    """
    if isinstance(seq.limit, PureBipartiteState):
        raise IncompatiblePurificationError("sequence is already lifted")
    closed = {}
    if "entropy" in seq.closed_forms:
        base = seq.closed_forms["entropy"]
        closed["marginal_entropy"] = base
        closed["mutual_information"] = lambda n: 2.0 * base(n)
    return mapped(_purification, seq, tags={**seq.tags, "lifted": True}, closed_forms=closed)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def make_sharp_sequence(
    hamiltonian: Hamiltonian | None = None,
    energy: float = 1.0,
    n_grid=GRID_DIAG,
) -> StateSequence:
    """The extremal diagonal family with fixed mean energy, converging to the ground state."""
    grid = check_grid(n_grid)
    h = hamiltonian or Hamiltonian.logarithmic(1.0, 0.0, max(grid) + 1)
    if not energy > h.ground_energy:
        raise InvalidParameterError(f"energy {energy!r} must exceed the ground energy {h.ground_energy!r}")
    q = sharp_sequence_weight(h, energy, min(grid))  # q_n falls with n: the smallest point binds
    if q > 1.0 + Q_SLACK:
        raise InvalidParameterError(f"energy {energy!r} needs q={float(q)!r} > 1 at n={min(grid)}")

    def gen(n: int) -> TraceClassElement:
        return sharp_sequence_state(h, energy, n)

    limit = TraceClassElement(np.array([1.0]))

    def closed_entropy(n: int) -> float:
        # concavity bound H(rho_n) >= q_n log n, whose limsup is the true jump
        return sharp_sequence_weight(h, energy, n) * math.log(n)

    return StateSequence(
        generator=gen,
        limit=limit,
        n_grid=grid,
        tags={"family": "sharp", "energy": energy, "hamiltonian": h},
        closed_forms={"entropy": closed_entropy},
    )


def make_mixing_sequence(sigma: TraceClassElement, n_grid=GRID_MEDIUM) -> StateSequence:
    """rho_n = (1/n) sigma + (1 - 1/n) |0><0| in the dimension and factorization of sigma."""
    grid = check_grid(n_grid)
    limit = TraceClassElement(np.eye(1, sigma.dim).reshape(-1), sigma.factor_dims)

    def gen(n: int) -> TraceClassElement:
        return Ensemble([1 / n, 1 - 1 / n], [sigma, limit]).average

    return StateSequence(gen, limit, grid, tags={"family": "mix_to_pure"})


def _correlated(rho: TraceClassElement) -> TraceClassElement:
    """The joint distribution with weight p(k) on (k, k), held on its support."""
    p = rho.diag
    d = p.size
    _require_diag_dim(d * d)
    return TraceClassElement._unchecked(diag=p, factor_dims=(d, d), support=np.arange(d) * (d + 1), dim=d * d)


def make_classical_correlated_sequence(energy: float = 1.0, n_grid=GRID_MEDIUM) -> StateSequence:
    """Perfectly correlated classical bipartite family: joint weight p_n(k) on (k, k)."""
    base = make_sharp_sequence(energy=energy, n_grid=n_grid)
    closed = base.closed_forms["entropy"]
    return mapped(
        _correlated,
        base,
        tags={"family": "classical_correlated", "energy": energy},
        closed_forms={
            "entropy": closed,
            "marginal_entropy": closed,
            "mutual_information": closed,
        },
    )


def make_product_sequence(energies=(1.0, 0.5), n_grid=GRID_MEDIUM) -> StateSequence:
    """Product family rho_n(E1) (x) rho_n(E2) of two sharp sequences."""
    if len(energies) != 2:
        raise InvalidParameterError(f"the product family takes two energies, got {len(energies)}")
    first = make_sharp_sequence(energy=energies[0], n_grid=n_grid)
    second = make_sharp_sequence(energy=energies[1], n_grid=n_grid)
    cf1 = first.closed_forms["entropy"]
    cf2 = second.closed_forms["entropy"]
    return mapped(
        tensor,
        first,
        second,
        tags={"family": "product", "energies": tuple(energies)},
        closed_forms={
            "entropy": lambda n: cf1(n) + cf2(n),
            "marginal_entropy": cf1,
            "marginal_entropy_b": cf2,
        },
    )


def _triple(rho: TraceClassElement) -> TraceClassElement:
    """The tripartite distribution with weight p(k) on (k, k mod 2, k), held on its support."""
    p = rho.diag
    d = p.size
    _require_diag_dim(d * 2 * d)
    ks = np.arange(d)
    support = np.ravel_multi_index((ks, ks % 2, ks), (d, 2, d))
    return TraceClassElement._unchecked(diag=p, factor_dims=(d, 2, d), support=support, dim=d * 2 * d)


def make_classical_triple_sequence(energy: float = 1.0, n_grid=GRID_MEDIUM) -> StateSequence:
    """Classical tripartite family supported on (k, k mod 2, k)."""
    base = make_sharp_sequence(energy=energy, n_grid=n_grid)
    tags = {"family": "classical_triple", "energy": energy}
    return mapped(_triple, base, tags=tags, closed_forms={"entropy": base.closed_forms["entropy"]})


def make_rotated_sharp_sequence(
    energy: float = 1.0,
    n_grid=GRID_DENSE,
    seed: int = 7,
) -> StateSequence:
    """Dense family U_n rho_n U_n^dag with a seeded rotation of the excited block.

    The ground level is left fixed, so the limit remains the base's |0><0|
    and the computational-basis pinching has the same limit value as the
    entropy.
    """
    base = make_sharp_sequence(energy=energy, n_grid=n_grid)

    def rotation(d: int) -> np.ndarray:
        u = np.eye(d, dtype=complex)
        u[1:, 1:] = random_isometry(np.random.default_rng((seed, d)), d - 1, d - 1)
        return u

    def gen(n: int) -> TraceClassElement:
        diag = base.element(n).diag
        # nonuniform excited weights keep the pinched distribution strictly
        # mixed relative to the spectrum
        d = diag.size
        w = np.linspace(1.0, 2.0, d - 1)
        w = w / w.sum() * diag[1:].sum()
        full = np.concatenate([[diag[0]], w])
        u = rotation(d)
        return TraceClassElement((u * full) @ u.conj().T)

    return StateSequence(gen, base.limit, base.n_grid, tags={"family": "rotated_sharp", "energy": energy})


def builtin_families() -> dict:
    """Registry of deterministic sequence constructors with documented limits."""
    return {
        "sharp": make_sharp_sequence,
        "sharp_lifted": lambda **kw: lift_by_purification(make_sharp_sequence(**kw)),
        "mix_to_pure": make_mixing_sequence,
        "classical_correlated": make_classical_correlated_sequence,
        "product": make_product_sequence,
        "classical_triple": make_classical_triple_sequence,
        "rotated_sharp": make_rotated_sharp_sequence,
    }
