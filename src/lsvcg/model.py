"""Static resource-allocation model: types, utilities, influences, populations.

An agent's type is a pair ``(theta, zeta)``.  ``theta`` indexes a row of
utility weights, ``zeta`` a row of influence coefficients.  Utility of an
allocation ``x`` (one nonnegative amount per resource) is

    U(theta, x) = sum_n weights[theta, n] * log(1 + x_n)

and the load an agent places on resource ``n`` is

    f_{zeta,n}(x_n) = linear[zeta, n] * x_n + quadratic[zeta, n] * x_n**2.

Both families are chosen for closed-form best responses: the utility is
strictly increasing and strictly concave, the influence increasing and
convex with f(0) = 0 and f' bounded below by the linear coefficient.

Flattened type indices are row-major: ``r = theta * num_zeta + zeta``.
A :class:`Profile` holds a population of agents as head counts per
(true type, announced type) *cell*, so that the mechanisms work once per
cell rather than once per agent.
All model objects are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "TypeSpace",
    "UtilityParams",
    "InfluenceParams",
    "Population",
    "Cells",
    "Profile",
    "Scenario",
    "INFINITE",
    "utility_value",
    "empirical_population",
    "load_scenario",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
]

#: Sentinel for an unbounded (mean-field) population.  Serialized as the
#: string ``"infinite"``.
INFINITE = None

_SHARE_SUM_TOL = 1e-12


class ValidationError(ValueError):
    """A model object or scenario document violates an invariant."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TypeSpace:
    """Cardinalities of the utility types, influence types, and resources."""

    num_theta: int
    num_zeta: int
    num_resources: int

    def __post_init__(self):
        for name in ("num_theta", "num_zeta", "num_resources"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise ValidationError(f"{name} must be a positive integer, got {v!r}")

    @property
    def num_types(self) -> int:
        return self.num_theta * self.num_zeta

    def flat_index(self, theta: int, zeta: int) -> int:
        if not (0 <= theta < self.num_theta and 0 <= zeta < self.num_zeta):
            raise ValidationError(f"type ({theta}, {zeta}) outside the type space")
        return theta * self.num_zeta + zeta

    def unflatten(self, r: int) -> tuple[int, int]:
        if not (0 <= r < self.num_types):
            raise ValidationError(f"flat type index {r} outside the type space")
        return divmod(r, self.num_zeta)


@dataclass(frozen=True)
class UtilityParams:
    """Log-utility weights, one row per theta, one column per resource."""

    weights: np.ndarray  # (num_theta, num_resources), all > 0

    def __post_init__(self):
        w = _frozen_array(self.weights)
        if w.ndim != 2:
            raise ValidationError("utility.weights must be a 2-D array (theta x resource)")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValidationError("utility.weights must be finite and strictly positive")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class InfluenceParams:
    """Linear-plus-quadratic influence coefficients, one row per zeta."""

    linear: np.ndarray  # (num_zeta, num_resources), all > 0
    quadratic: np.ndarray  # (num_zeta, num_resources), all >= 0

    def __post_init__(self):
        a = _frozen_array(self.linear)
        b = _frozen_array(self.quadratic)
        if a.ndim != 2 or b.shape != a.shape:
            raise ValidationError("influence.linear and influence.quadratic must be equal-shape 2-D arrays")
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise ValidationError("influence.linear must be finite and strictly positive")
        if not np.all(np.isfinite(b)) or np.any(b < 0):
            raise ValidationError("influence.quadratic must be finite and nonnegative")
        object.__setattr__(self, "linear", a)
        object.__setattr__(self, "quadratic", b)

    def load(self, zeta, x):
        """``f_zeta(x) = a*x + b*x*x`` row-wise: ``zeta`` indexes rows (``...`` takes
        them all), ``x`` broadcasts against them."""
        return self.linear[zeta] * x + self.quadratic[zeta] * x * x

    def slope(self, zeta, x):
        """``f'_zeta(x) = a + 2*b*x``, indexed and broadcast as :meth:`load`."""
        return self.linear[zeta] + 2.0 * self.quadratic[zeta] * x

    @property
    def derivative_lower_bound(self) -> float:
        """Global lower bound on f' over x >= 0 (the smallest linear coefficient)."""
        return float(np.min(self.linear))


@dataclass(frozen=True)
class Population:
    """Distribution of agents over flattened types, plus the head count.

    ``shares`` sums to one.  ``num_agents`` is a positive integer, or
    :data:`INFINITE` for the mean-field regime.  Finite populations must be
    empirical: every ``share * num_agents`` is an integer.
    """

    shares: np.ndarray  # (num_types,), all > 0, sums to 1
    num_agents: int | None = INFINITE

    def __post_init__(self):
        s = _frozen_array(self.shares)
        if s.ndim != 1:
            raise ValidationError("population.shares must be a 1-D array over flattened types")
        if not np.all(np.isfinite(s)) or np.any(s <= 0):
            raise ValidationError("population.shares must be finite and strictly positive")
        if abs(float(s.sum()) - 1.0) > _SHARE_SUM_TOL:
            raise ValidationError(f"population.shares must sum to 1 (got {float(s.sum())!r})")
        object.__setattr__(self, "shares", s)
        if self.num_agents is not INFINITE:
            n = self.num_agents
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise ValidationError(f"population.num_agents must be a positive integer or 'infinite', got {n!r}")
            counts = s * n
            if np.any(np.abs(counts - np.round(counts)) > 1e-9):
                raise ValidationError("population.shares times num_agents must be integral (empirical population)")
            object.__setattr__(self, "num_agents", int(n))

    @property
    def is_finite(self) -> bool:
        return self.num_agents is not INFINITE

    def counts(self) -> np.ndarray:
        """Integer count per flattened type.  Finite populations only."""
        if not self.is_finite:
            raise ValidationError("an infinite population has no counts")
        return np.round(self.shares * self.num_agents).astype(int)


def _flat_types(pairs: Sequence, type_space: TypeSpace) -> np.ndarray:
    """Flat indices of ``(theta, zeta)`` pairs, each checked against the type space."""
    arr = np.asarray(pairs, dtype=int).reshape(-1, 2)
    theta, zeta = arr[:, 0], arr[:, 1]
    bad = (theta < 0) | (theta >= type_space.num_theta) | (zeta < 0) | (zeta >= type_space.num_zeta)
    if np.any(bad):
        type_space.flat_index(*(int(v) for v in arr[np.argmax(bad)]))  # raises with the offending pair
    return theta * type_space.num_zeta + zeta


class Cells(NamedTuple):
    """The occupied (true type, report) cells of a profile, in row-major order."""

    true_idx: np.ndarray  # (C,) true type of each cell
    report_idx: np.ndarray  # (C,) announced type of each cell
    counts: np.ndarray  # (C,) agents in each cell


@dataclass(frozen=True, eq=False)
class Profile:
    """A population of agents held as head counts per (true type, report) cell.

    ``counts[t, r]`` agents of true flat type ``t`` announce (report, or
    impersonate in the distributed algorithm) flat type ``r``.  Agents of one
    cell are treated identically by every mechanism, so results are computed
    once per occupied cell, in the row-major order of ``cells``.
    """

    type_space: TypeSpace
    counts: np.ndarray  # (R, R) int

    def __post_init__(self):
        num_types = self.type_space.num_types
        counts = np.asarray(self.counts)
        if counts.shape != (num_types, num_types) or counts.dtype.kind not in "iu":
            raise ValidationError(f"profile counts must be a ({num_types}, {num_types}) integer matrix")
        if np.any(counts < 0):
            raise ValidationError("profile counts must be nonnegative")
        object.__setattr__(self, "counts", _frozen_array(counts, dtype=np.int64))

    @classmethod
    def truthful(cls, population: Population, type_space: TypeSpace) -> Profile:
        """Every agent of a finite population reporting its own type."""
        return cls(type_space, np.diag(population.counts()))

    @classmethod
    def from_agents(
        cls,
        true_types: Sequence[tuple[int, int]],
        type_space: TypeSpace,
        reports: Sequence[tuple[int, int]] | None = None,
    ) -> Profile:
        """Adapter for explicit agent lists of ``(theta, zeta)`` pairs; ``reports``
        (announced pairs, one per agent) defaults to the truth."""
        true_idx = _flat_types(true_types, type_space)
        if reports is None:
            report_idx = true_idx
        elif len(reports) != len(true_types):
            raise ValidationError("reports and true_types must have equal length")
        else:
            report_idx = _flat_types(reports, type_space)
        num_types = type_space.num_types
        flat = np.bincount(true_idx * num_types + report_idx, minlength=num_types * num_types)
        return cls(type_space, flat.reshape(num_types, num_types))

    @property
    def num_agents(self) -> int:
        return int(self.counts.sum())

    def with_report(self, true_type: tuple[int, int], report: tuple[int, int]) -> Profile:
        """Copy in which one truthful agent of ``true_type`` announces ``report``
        instead: it moves from cell (true_type, true_type) to (true_type, report)."""
        t = self.type_space.flat_index(*true_type)
        if self.counts[t, t] == 0:
            raise ValidationError(f"no agent of type {tuple(true_type)} reports truthfully")
        counts = self.counts.copy()
        counts[t, t] -= 1
        counts[t, self.type_space.flat_index(*report)] += 1
        return Profile(self.type_space, counts)

    def cell_index(self, true_type: tuple[int, int], report: tuple[int, int]) -> int:
        """Position of the occupied cell (true_type, report) in ``cells``, and so
        the row of an outcome's ``cell_*`` arrays that its agents receive."""
        t, r = self.type_space.flat_index(*true_type), self.type_space.flat_index(*report)
        if self.counts[t, r] == 0:
            raise ValidationError(f"no agent of type {tuple(true_type)} announces {tuple(report)}")
        return int(np.count_nonzero(self.counts.ravel()[: t * self.type_space.num_types + r]))

    @cached_property
    def cells(self) -> Cells:
        true_idx, report_idx = np.nonzero(self.counts)
        return Cells(true_idx, report_idx, self.counts[true_idx, report_idx])

    def report_counts(self) -> np.ndarray:
        """Head count per announced flat type, as floats."""
        return self.counts.sum(axis=0).astype(float)


@dataclass(frozen=True)
class Scenario:
    """A complete static problem instance.

    ``capacities`` are the per-resource constraint levels of the
    share-weighted program ``sum_r shares[r] * f_r(z_r) <= C_n``; operations
    that solve a head-count program rescale them explicitly.  ``z_max`` caps
    each per-resource allocation so the price-zero best response is finite.
    """

    type_space: TypeSpace
    utility: UtilityParams
    influence: InfluenceParams
    population: Population
    capacities: np.ndarray  # (num_resources,), all > 0
    beta: float = 0.0
    z_max: float = 1e6

    def __post_init__(self):
        ts = self.type_space
        c = _frozen_array(self.capacities)
        if c.shape != (ts.num_resources,):
            raise ValidationError(f"capacities must have shape ({ts.num_resources},), got {c.shape}")
        if not np.all(np.isfinite(c)) or np.any(c <= 0):
            raise ValidationError("capacities must be finite and strictly positive")
        object.__setattr__(self, "capacities", c)
        if self.utility.weights.shape != (ts.num_theta, ts.num_resources):
            raise ValidationError(
                f"utility.weights must have shape ({ts.num_theta}, {ts.num_resources}), "
                f"got {self.utility.weights.shape}"
            )
        if self.influence.linear.shape != (ts.num_zeta, ts.num_resources):
            raise ValidationError(
                f"influence.linear must have shape ({ts.num_zeta}, {ts.num_resources}), "
                f"got {self.influence.linear.shape}"
            )
        if self.population.shares.shape != (ts.num_types,):
            raise ValidationError(
                f"population.shares must have shape ({ts.num_types},), got {self.population.shares.shape}"
            )
        if not (0.0 <= self.beta <= 1.0):
            raise ValidationError(f"beta must lie in [0, 1], got {self.beta!r}")
        if not (math.isfinite(self.z_max) and self.z_max > 0):
            raise ValidationError(f"z_max must be finite and positive, got {self.z_max!r}")

    # Flattened per-type parameter tables (num_types x num_resources).

    def type_weights(self) -> np.ndarray:
        return np.repeat(self.utility.weights, self.type_space.num_zeta, axis=0)

    def type_zeta(self) -> np.ndarray:
        """Influence row of every flattened type."""
        return np.arange(self.type_space.num_types) % self.type_space.num_zeta

    def type_linear(self) -> np.ndarray:
        return np.tile(self.influence.linear, (self.type_space.num_theta, 1))

    def type_quadratic(self) -> np.ndarray:
        return np.tile(self.influence.quadratic, (self.type_space.num_theta, 1))

    def per_capita_capacities(self) -> np.ndarray:
        """Capacities per agent: totals shared by a finite population are
        divided by its head count; a mean-field scenario's are already per capita."""
        if self.population.is_finite:
            return self.capacities / self.population.num_agents
        return self.capacities

    def check_profile(self, profile: Profile) -> None:
        """Raise unless ``profile`` indexes this scenario's type space."""
        if profile.type_space != self.type_space:
            raise ValidationError("the profile and the scenario have different type spaces")

    def saturation_headroom(self) -> np.ndarray:
        """Per-resource share-weighted influence at ``z_max`` minus per-capita capacity.

        Nonnegative everywhere means the cap can never bind before capacity
        does; scenario documents are required to satisfy this at load time.
        """
        f_at_cap = self.influence.load(self.type_zeta(), self.z_max)
        return self.population.shares @ f_at_cap - self.per_capita_capacities()


def utility_value(utility: UtilityParams, theta, x):
    """``sum_n w[theta, n] * log(1 + x_n)`` for nonnegative allocations ``x`` (..., N).

    ``theta`` (an int or an int array) and the rows of ``x`` broadcast
    together; one value per row, a float for a single row.  Each value is
    one stacked dot over contiguous rows, which sums as ``np.dot`` does.
    """
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ValidationError("allocation components must be nonnegative")
    log_x = np.ascontiguousarray(np.log1p(x))
    value = (utility.weights[theta][..., None, :] @ log_x[..., :, None])[..., 0, 0]
    return float(value) if value.ndim == 0 else value


def empirical_population(assignments: Sequence[tuple[int, int]], type_space: TypeSpace) -> Population:
    """Population with shares equal to observed type frequencies."""
    if len(assignments) == 0:
        raise ValidationError("cannot build a population from an empty assignment list")
    counts = np.bincount(_flat_types(assignments, type_space), minlength=type_space.num_types)
    total = int(counts.sum())
    present = counts > 0
    if not np.all(present):
        # Shares must be strictly positive; absent types are not part of the
        # empirical support, so the population is defined on the full space
        # only when every type occurs.
        raise ValidationError(
            "assignments must include at least one agent of every type "
            "(types with zero count violate the positive-share invariant)"
        )
    return Population(shares=counts / total, num_agents=total)


# -- Scenario document (JSON-compatible tree) --------------------------------


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "type_space": {
            "num_theta": s.type_space.num_theta,
            "num_zeta": s.type_space.num_zeta,
            "num_resources": s.type_space.num_resources,
        },
        "utility": {"weights": s.utility.weights.tolist()},
        "influence": {
            "linear": s.influence.linear.tolist(),
            "quadratic": s.influence.quadratic.tolist(),
        },
        "population": {
            "shares": s.population.shares.tolist(),
            "num_agents": "infinite" if not s.population.is_finite else s.population.num_agents,
        },
        "capacities": s.capacities.tolist(),
        "beta": s.beta,
        "z_max": s.z_max,
    }


_SCENARIO_FIELDS = ("type_space", "utility", "influence", "population", "capacities", "beta", "z_max")


def _require(doc: dict, key: str):
    node = doc
    for part in key.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ValidationError(f"scenario document is missing field {key!r}")
        node = node[part]
    return node


def _numbers_only(value) -> bool:
    """Whether ``value`` is a JSON number or nested lists of them (a ``bool``
    is not a number here)."""
    pending = [[value]]
    while pending:
        row = pending.pop()
        kinds = set(map(type, row))
        if list in kinds:
            kinds.discard(list)
            pending.extend(v for v in row if type(v) is list)
        if not kinds <= {int, float}:
            return False
    return True


def _require_number(doc: dict, key: str):
    """:func:`_require` for a number or nested lists of numbers.  numpy would
    read ``true`` as 1.0 and ``"2"`` as 2.0, so those are errors here."""
    value = _require(doc, key)
    if not _numbers_only(value):
        raise ValidationError(f"{key} must hold numbers only, not true, false, null or strings")
    return value


def scenario_from_dict(doc: dict) -> Scenario:
    unknown = sorted(set(doc) - set(_SCENARIO_FIELDS))
    if unknown:
        raise ValidationError(f"scenario document has unknown fields {', '.join(map(repr, unknown))}")
    ts = TypeSpace(
        num_theta=_require(doc, "type_space.num_theta"),
        num_zeta=_require(doc, "type_space.num_zeta"),
        num_resources=_require(doc, "type_space.num_resources"),
    )
    raw_agents = _require(doc, "population.num_agents")
    num_agents = INFINITE if raw_agents == "infinite" else raw_agents
    try:
        scenario = Scenario(
            type_space=ts,
            utility=UtilityParams(weights=_require_number(doc, "utility.weights")),
            influence=InfluenceParams(
                linear=_require_number(doc, "influence.linear"),
                quadratic=_require_number(doc, "influence.quadratic"),
            ),
            population=Population(shares=_require_number(doc, "population.shares"), num_agents=num_agents),
            capacities=_require_number(doc, "capacities"),
            beta=_require_number(doc, "beta"),
            z_max=_require_number(doc, "z_max"),
        )
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scenario document: {exc}") from exc
    headroom = scenario.saturation_headroom()
    if np.any(headroom < 0):
        bad = int(np.argmin(headroom))
        raise ValidationError(
            f"z_max too small: share-weighted influence at z_max falls short of per-capita capacity {bad}"
        )
    return scenario


def save_scenario(s: Scenario) -> bytes:
    """Serialize to a JSON document; floats keep full round-trip precision."""
    return json.dumps(scenario_to_dict(s), indent=2, sort_keys=True).encode("utf-8")


def _read_document(source: bytes | str, kind: str) -> dict:
    """Decode ``source`` as UTF-8 and parse it as one JSON object.

    Every failure, including hostile input (undecodable bytes, nesting too
    deep for the parser), raises :class:`ValidationError` naming ``kind``.
    """
    try:
        doc = json.loads(source.decode("utf-8") if isinstance(source, bytes) else source)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ValidationError(f"{kind} document is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{kind} document must be a JSON object")
    return doc


def load_scenario(source: bytes | str) -> Scenario:
    """Parse and validate a scenario document produced by :func:`save_scenario`."""
    return scenario_from_dict(_read_document(source, "scenario"))
