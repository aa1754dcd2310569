"""Generator dataset specs: ``(spec, params, seed) -> data``, deterministically.

The CORTEX model of a benchmark dataset (SNIPPETS.md Snippet 2): a
dataset is not a file but a *parametric generator* - the spec names the
generator, the params are its arguments, and the same ``(params,
seed)`` pair is guaranteed to produce bit-identical data in any
process.  That contract is what lets the scaling sweep
(:mod:`repro.bench.sweep`) benchmark kernels at row counts no static
file covers, the runner cache key sweep cells on their config alone,
and the regression gate (:mod:`repro.bench.gate`) pin each cell's
generated bytes with a content hash.

Three layers:

- :class:`ParamField` - one parameter's schema (type, bounds,
  choices); violations raise :class:`~repro.exceptions.ValidationError`
  naming the offending key *before* any generation work runs;
- :class:`GeneratorSpec` - a named, registered generator: ordered
  fields, a cross-field check, and a builder mapping validated params
  plus two spawned child seeds (data, mask) to a
  :class:`BenchDataset`;
- the registry - :data:`GENERATOR_SPECS` / :func:`get_spec` /
  :func:`available_specs`, the namespace sweep CLIs select from.

Determinism rules every builder follows:

1. all randomness flows from ``np.random.SeedSequence(seed)`` spawned
   into independent data / mask streams - generation and masking never
   share a stream, so changing the mask protocol cannot shift the data;
2. params are validated and defaulted *first*, so two calls that mean
   the same configuration hash the same even if one spelled out a
   default;
3. no clocks, no process state, no filesystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..exceptions import ValidationError
from ..hashing import content_hash
from ..masking.injection import (
    MissingSpec,
    MNARSpec,
    inject_missing,
    inject_missing_mnar,
)
from ..masking.mask import ObservationMask

__all__ = [
    "ParamField",
    "GeneratorSpec",
    "BenchDataset",
    "GENERATOR_SPECS",
    "available_specs",
    "get_spec",
    "generate",
]


@dataclass(frozen=True)
class ParamField:
    """Schema of one generator parameter.

    ``kind`` is ``"int"``, ``"float"`` or ``"str"``; bounds apply to
    the numeric kinds (``open_bounds=True`` makes both ends exclusive,
    e.g. a rate in (0, 1)), ``choices`` to strings.  ``validate``
    returns the normalised value or raises
    :class:`~repro.exceptions.ValidationError` with the field name in
    the message - the up-front contract the property tests pin.
    """

    name: str
    kind: str
    default: Any
    low: float | None = None
    high: float | None = None
    open_bounds: bool = False
    choices: tuple[str, ...] | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("int", "float", "str"):
            raise ValidationError(
                f"param field {self.name!r}: unknown kind {self.kind!r}"
            )

    def validate(self, value: Any) -> Any:
        if self.kind == "str":
            if not isinstance(value, str):
                raise ValidationError(
                    f"param {self.name!r} must be a string, "
                    f"got {type(value).__name__}"
                )
            if self.choices is not None and value not in self.choices:
                raise ValidationError(
                    f"param {self.name!r} must be one of "
                    f"{', '.join(self.choices)}; got {value!r}"
                )
            return value
        if self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(
                    f"param {self.name!r} must be an integer, "
                    f"got {type(value).__name__}"
                )
            out: Any = int(value)
        else:
            if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)
            ):
                raise ValidationError(
                    f"param {self.name!r} must be a number, "
                    f"got {type(value).__name__}"
                )
            out = float(value)
            if not np.isfinite(out):
                raise ValidationError(f"param {self.name!r} must be finite, got {out!r}")
        if self.low is not None:
            if out < self.low or (self.open_bounds and out == self.low):
                op = ">" if self.open_bounds else ">="
                raise ValidationError(
                    f"param {self.name!r} must be {op} {self.low}, got {out}"
                )
        if self.high is not None:
            if out > self.high or (self.open_bounds and out == self.high):
                op = "<" if self.open_bounds else "<="
                raise ValidationError(
                    f"param {self.name!r} must be {op} {self.high}, got {out}"
                )
        return out


@dataclass(frozen=True)
class BenchDataset:
    """One generated benchmark instance: data, mask, and provenance.

    ``dataset.values`` is the ground truth, ``x_missing`` the matrix
    handed to solvers (injected cells zeroed), ``mask.observed`` the
    Omega set.  :meth:`content_hash` digests the configuration plus the
    generated bytes through :mod:`repro.hashing`, so two processes (or
    two commits) can assert bit-identical generation by comparing one
    string.
    """

    spec: str
    params: dict[str, Any]
    seed: int
    dataset: Any  # SpatialDataset; typed loosely to keep imports lazy
    x_missing: np.ndarray
    mask: ObservationMask

    def content_hash(self) -> str:
        return content_hash(
            {"spec": self.spec, "params": self.params, "seed": self.seed},
            arrays={
                "values": self.dataset.values,
                "observed": self.mask.observed,
            },
        )


@dataclass(frozen=True)
class GeneratorSpec:
    """A named parametric generator with an up-front param schema."""

    name: str
    description: str
    fields: tuple[ParamField, ...]
    builder: Callable[
        [dict[str, Any], np.random.Generator, np.random.Generator], tuple[Any, Any, Any]
    ]
    cross_check: Callable[[dict[str, Any]], None] | None = None
    _by_name: dict[str, ParamField] = field(init=False, repr=False, compare=False,
                                            default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_by_name", {f.name: f for f in self.fields}
        )

    def validate(self, params: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Defaults + per-field checks + cross-field checks, up front.

        Returns the fully defaulted, normalised param dict - the
        canonical form every hash and cache key is computed over.
        Unknown keys raise with the key named.
        """
        supplied = dict(params or {})
        unknown = sorted(set(supplied) - set(self._by_name))
        if unknown:
            raise ValidationError(
                f"unknown parameter {unknown[0]!r} for spec {self.name!r}; "
                f"known: {', '.join(f.name for f in self.fields)}"
            )
        validated: dict[str, Any] = {}
        for spec_field in self.fields:
            value = supplied.get(spec_field.name, spec_field.default)
            validated[spec_field.name] = spec_field.validate(value)
        if self.cross_check is not None:
            self.cross_check(validated)
        return validated

    def generate(
        self, params: Mapping[str, Any] | None = None, *, seed: int = 0
    ) -> BenchDataset:
        """Validate, spawn child streams, build: the only entry point."""
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ValidationError(
                f"seed must be an integer, got {type(seed).__name__}"
            )
        seed = int(seed)
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
        validated = self.validate(params)
        data_seq, mask_seq = np.random.SeedSequence(seed).spawn(2)
        dataset, x_missing, mask = self.builder(
            validated,
            np.random.default_rng(data_seq),
            np.random.default_rng(mask_seq),
        )
        return BenchDataset(
            spec=self.name,
            params=validated,
            seed=seed,
            dataset=dataset,
            x_missing=x_missing,
            mask=mask,
        )


def _inject(
    dataset: Any,
    params: dict[str, Any],
    mask_rng: np.random.Generator,
) -> tuple[Any, np.ndarray, ObservationMask]:
    """Shared masking tail: MCAR or MNAR over the attribute columns."""
    if params["mask"] == "mnar":
        x_missing, mask = inject_missing_mnar(
            dataset.values,
            MNARSpec(
                missing_rate=params["missing"],
                strength=params["mnar_strength"],
                columns=dataset.attribute_columns,
            ),
            random_state=mask_rng,
        )
    else:
        x_missing, mask = inject_missing(
            dataset.values,
            MissingSpec(
                missing_rate=params["missing"],
                columns=dataset.attribute_columns,
            ),
            random_state=mask_rng,
        )
    return dataset, x_missing, mask


_MASK_FIELDS = (
    ParamField("missing", "float", 0.3, low=0.0, high=1.0, open_bounds=True,
               description="fraction of eligible attribute cells removed"),
    ParamField("mask", "str", "mcar", choices=("mcar", "mnar"),
               description="missingness mechanism"),
    ParamField("mnar_strength", "float", 2.0, low=0.0, high=10.0,
               description="MNAR selection-bias exponent (0 = MCAR)"),
)


def _build_lowrank_landmark(
    params: dict[str, Any],
    data_rng: np.random.Generator,
    mask_rng: np.random.Generator,
) -> tuple[Any, np.ndarray, ObservationMask]:
    from ..data.generators import make_planted_lowrank
    from ..data.preprocessing import minmax_normalize

    dataset = make_planted_lowrank(
        params["rows"],
        params["cols"],
        params["rank"],
        noise=params["noise"],
        random_state=data_rng,
    )
    dataset = dataset.with_values(minmax_normalize(dataset.values))
    return _inject(dataset, params, mask_rng)


def _check_lowrank(params: dict[str, Any]) -> None:
    limit = min(params["rows"], params["cols"])
    if params["rank"] > limit:
        raise ValidationError(
            f"param 'rank'={params['rank']} exceeds min(rows, cols)={limit}"
        )


def _build_paper(
    params: dict[str, Any],
    data_rng: np.random.Generator,
    mask_rng: np.random.Generator,
) -> tuple[Any, np.ndarray, ObservationMask]:
    from ..data.registry import load_dataset

    dataset = load_dataset(
        params["dataset"], n_rows=params["rows"], random_state=data_rng
    )
    return _inject(dataset, params, mask_rng)


GENERATOR_SPECS: dict[str, GeneratorSpec] = {
    spec.name: spec
    for spec in (
        GeneratorSpec(
            name="lowrank_landmark",
            description=(
                "planted low-rank matrix whose factors align with "
                "landmark geometry; rows/cols/rank fully parametric"
            ),
            fields=(
                ParamField("rows", "int", 1024, low=8, high=5_000_000,
                           description="tuple count N"),
                ParamField("cols", "int", 16, low=3, high=10_000,
                           description="column count M (2 spatial + M-2 attrs)"),
                ParamField("rank", "int", 6, low=1, high=512,
                           description="planted rank K"),
                ParamField("noise", "float", 0.05, low=0.0, high=1.0,
                           description="relative observation noise"),
                *_MASK_FIELDS,
            ),
            builder=_build_lowrank_landmark,
            cross_check=_check_lowrank,
        ),
        GeneratorSpec(
            name="paper",
            description=(
                "the paper-shaped synthetic datasets (economic / farm / "
                "lake / vehicle) at any row count"
            ),
            fields=(
                ParamField("dataset", "str", "lake",
                           choices=("economic", "farm", "lake", "vehicle"),
                           description="which Table III shape to generate"),
                ParamField("rows", "int", 1000, low=8, high=2_000_000,
                           description="tuple count N"),
                *_MASK_FIELDS,
            ),
            builder=_build_paper,
        ),
    )
}
"""Registered generator specs, by name."""


def available_specs() -> tuple[str, ...]:
    """Registered spec names, sorted."""
    return tuple(sorted(GENERATOR_SPECS))


def get_spec(name: str) -> GeneratorSpec:
    """Look a spec up by name, or raise naming the alternatives."""
    spec = GENERATOR_SPECS.get(str(name))
    if spec is None:
        raise ValidationError(
            f"unknown generator spec {name!r}; available: "
            f"{', '.join(available_specs())}"
        )
    return spec


def generate(
    name: str, params: Mapping[str, Any] | None = None, *, seed: int = 0
) -> BenchDataset:
    """Convenience: ``get_spec(name).generate(params, seed=seed)``."""
    return get_spec(name).generate(params, seed=seed)
