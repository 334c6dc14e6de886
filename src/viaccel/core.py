"""Problem primitives: feasible sets, projections, and problem containers.

Vectors are 1-D float64 numpy arrays. Every public entry point validates
shape and finiteness once, then trusts the data: the feasible-set methods
themselves do no checking, so a solver step that overflows reaches the
caller's divergence guard instead of a validation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Tolerance used to accept a stored solution: the natural residual at the
# solution must not exceed SOLUTION_RTOL * (1 + ||z*||).
SOLUTION_RTOL = 1e-9


def as_vector(z, dim: Optional[int] = None) -> np.ndarray:
    """Coerce ``z`` to a finite 1-D float64 array, optionally of length ``dim``."""
    v = np.asarray(z, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def norm2(z: np.ndarray) -> float:
    """Euclidean norm of a trusted float64 array, bit-identical to np.linalg.norm."""
    z = z.ravel(order="K")
    return math.sqrt(z.dot(z))


# Round-trip text for a float: 17 significant digits, '.' separator.
FLOAT_FORMAT = "%.17g"


def format_float(x, missing: Optional[str] = None) -> str:
    """A float's FLOAT_FORMAT text.

    With ``missing`` given, None and every non-finite float (nan, inf,
    -inf) render as that string instead.
    """
    if missing is not None and (x is None or not math.isfinite(x)):
        return missing
    return FLOAT_FORMAT % float(x)


def typed(key: str, text: str, typ):
    """A config or problem-file value's text as its key's type: an int key
    takes an integer, a bool key true or false, a float key a number, a
    text key its text as written; anything else raises ValueError naming
    the key."""
    if typ is bool and text in ("true", "false"):
        return text == "true"
    if typ is not bool:
        try:
            return typ(text)
        except ValueError:
            pass
    name = {int: "an integer", bool: "true or false", float: "a number"}
    raise ValueError(f"{key} must be {name[typ]}, got {text}")


class FeasibleSet:
    """Closed convex set with a closed-form Euclidean projection."""

    dimension: int

    def project(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, z: np.ndarray, tol: float = 0.0) -> bool:
        z = as_vector(z, self.dimension)
        return bool(norm2(z - self.project(z)) <= tol)

    @property
    def unbounded_whole_space(self) -> bool:
        return isinstance(self, WholeSpace)


class WholeSpace(FeasibleSet):
    """All of R^n; projection is the identity."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)

    def project(self, z: np.ndarray) -> np.ndarray:
        return z

    def __repr__(self):
        return f"WholeSpace({self.dimension})"


class NonnegativeOrthant(FeasibleSet):
    """{z : z >= 0}; projection clips negative entries to zero."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)
        self._zeros = np.zeros(self.dimension)

    def project(self, z: np.ndarray) -> np.ndarray:
        # a zero vector operand: the same bits as the scalar 0.0, dispatched
        # faster
        return np.maximum(z, self._zeros)

    def __repr__(self):
        return f"NonnegativeOrthant({self.dimension})"


@dataclass
class MonotoneProblem:
    """A strongly monotone operator over a feasible set.

    Parameters
    ----------
    dimension : int
        Ambient dimension n.
    operator : callable
        Maps a feasible vector to an n-vector.
    feasible_set : FeasibleSet
        The constraint set of the variational inequality.
    mu : float
        Strong-monotonicity modulus; positive.
    lip : float
        Lipschitz constant of the operator; lip >= mu.
    solution : optional vector
        Known solution. When present its natural residual must sit below
        SOLUTION_RTOL * (1 + ||solution||).
    domain_restricted : bool
        True when the operator is only defined on the feasible set. Methods
        that evaluate the operator at unprojected extrapolated points are
        then unavailable. The flag is declared by the caller and trusted.
    """

    dimension: int
    operator: Callable[[np.ndarray], np.ndarray]
    feasible_set: FeasibleSet
    mu: float
    lip: float
    solution: Optional[np.ndarray] = None
    domain_restricted: bool = False
    kind: str = "custom"
    seed: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension != self.feasible_set.dimension:
            raise ValueError("problem and feasible set dimensions differ")
        if not (0 < self.mu <= self.lip) or not np.isfinite(self.lip):
            raise ValueError("need 0 < mu <= lip < inf")
        if self.solution is not None:
            self.solution = as_vector(self.solution, self.dimension)
            res = bind_vi_merits(self)(self.solution,
                                       self.operator(self.solution))[1]
            bound = SOLUTION_RTOL * (1.0 + norm2(self.solution))
            if res > bound:
                raise ValueError(
                    f"stored solution has natural residual {res:.3e} "
                    f"above the acceptance bound {bound:.3e}"
                )

    @property
    def sigma(self) -> float:
        """Inverse condition ratio mu / lip, in (0, 1]."""
        return self.mu / self.lip

    @property
    def kappa(self) -> float:
        """Condition ratio lip / mu, at least 1."""
        return self.lip / self.mu


@dataclass
class SmoothObjective:
    """A strongly convex objective with Lipschitz gradient.

    value and gradient are callables on n-vectors; mu and lip bound the
    curvature from below and above. value_and_gradient(x) returns the pair
    (value(x), gradient(x)) bit for bit; the generators pass one that shares
    the dense product between the two, and when it is not given it is
    composed from value and gradient. minimizer and optimal_value are
    optional references used by merit reporting when present; with both
    given, optimal_value must be the value at the minimizer (to
    SOLUTION_RTOL relative).
    """

    dimension: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    mu: float
    lip: float
    minimizer: Optional[np.ndarray] = None
    optimal_value: Optional[float] = None
    kind: str = "custom"
    seed: Optional[int] = None
    meta: dict = field(default_factory=dict)
    value_and_gradient: Optional[Callable[[np.ndarray], tuple]] = None

    def __post_init__(self):
        if not (0 < self.mu <= self.lip) or not np.isfinite(self.lip):
            raise ValueError("need 0 < mu <= lip < inf")
        if self.value_and_gradient is None:
            value, gradient = self.value, self.gradient
            self.value_and_gradient = lambda x: (value(x), gradient(x))
        fs = self.optimal_value
        if fs is not None:
            fs = self.optimal_value = float(fs)
            if not math.isfinite(fs):
                raise ValueError(f"optimal_value must be finite, got {fs}")
        if self.minimizer is not None:
            self.minimizer = as_vector(self.minimizer, self.dimension)
            fx, gx = self.value_and_gradient(self.minimizer)
            gn = norm2(gx)
            bound = SOLUTION_RTOL * self.lip * (1.0 + norm2(self.minimizer))
            if gn > bound:
                raise ValueError(
                    f"stored minimizer has gradient norm {gn:.3e} "
                    f"above the acceptance bound {bound:.3e}"
                )
            if fs is not None and \
                    not abs(fs - fx) <= SOLUTION_RTOL * (1.0 + abs(fx)):
                raise ValueError(
                    f"optimal_value {format_float(fs)} is not the value "
                    f"{format_float(fx)} at the stored minimizer"
                )

    @property
    def sigma(self) -> float:
        return self.mu / self.lip

    @property
    def kappa(self) -> float:
        return self.lip / self.mu


def gradient_problem(objective: SmoothObjective) -> MonotoneProblem:
    """View a smooth strongly convex objective as a monotone operator problem.

    The gradient of a mu-strongly convex, lip-smooth function is mu-strongly
    monotone and lip-Lipschitz, so every operator method applies unchanged.
    The minimizer, checked under the objective's rule, is carried over as
    the solution unchecked (MonotoneProblem's rule is lip times tighter).
    """
    problem = MonotoneProblem(
        dimension=objective.dimension,
        operator=objective.gradient,
        feasible_set=WholeSpace(objective.dimension),
        mu=objective.mu,
        lip=objective.lip,
        domain_restricted=False,
        kind=f"gradient-of-{objective.kind}",
        seed=objective.seed,
        meta=dict(objective.meta),
    )
    problem.solution = objective.minimizer
    return problem


def bind_vi_merits(problem: MonotoneProblem) -> Callable:
    """The merit pair of a problem as ``merits(z, fz) -> (primary, natural
    residual)`` for a trusted vector z and its operator value fz.

    The natural residual is ||z - P(z - F(z))||. The primary merit is
    ||F(z)|| on the whole space and the complementarity gap |z . F(z)| on
    any other set. The projection and the set's kind are looked up once;
    fz and the residual's difference are fresh 1-D arrays, so their norms
    are taken as sqrt(x . x), the bits of norm2. The returned function's
    ``calls`` maps "project" to the projections one evaluation makes.
    """
    fset = problem.feasible_set
    project, whole = fset.project, fset.unbounded_whole_space

    def merits(z: np.ndarray, fz: np.ndarray) -> tuple:
        d = z - project(z - fz)
        primary = math.sqrt(fz.dot(fz)) if whole else float(abs(z.dot(fz)))
        return primary, math.sqrt(d.dot(d))

    merits.calls = {"project": 1}
    return merits


def bind_objective_merits(objective: SmoothObjective) -> Callable:
    """The merit pair of an objective as ``merits(fx, gx) ->
    (||grad f(x)||, f(x) - f*)`` from fx = f(x) and the fresh 1-D
    gx = grad f(x); the gap is None when the objective records no optimal
    value. The returned function's ``calls`` is empty: it calls no
    oracle."""
    fs = objective.optimal_value

    def merits(fx: float, gx: np.ndarray) -> tuple:
        return math.sqrt(gx.dot(gx)), None if fs is None else float(fx - fs)

    merits.calls = {}
    return merits
