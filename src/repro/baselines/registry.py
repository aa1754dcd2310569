"""Imputer registry: build any method of Table IV by name.

Both the baselines and the paper's methods (NMF, SMF, SMFL) are exposed
through one factory so the experiment harness can sweep them uniformly.
Spatial-aware constructors receive ``n_spatial``; others ignore it.

The MF family is additionally registered under stochastic variants
(``nmf_sgd``, ``smf_sgd``, ``smfl_sgd``, ``smfl_svrg``, see
:data:`STOCHASTIC_VARIANTS`) so every table/figure regenerator can run
the mini-batch path simply by naming it in its ``methods`` tuple.
"""

from __future__ import annotations

from typing import Callable

from ..core.nmf import MaskedNMF
from ..core.smf import SMF
from ..core.smfl import SMFL
from ..exceptions import ValidationError
from .camf import CAMFImputer
from .dlm import DLMImputer
from .gain import GAINImputer
from .iim import IIMImputer
from .iterative import IterativeImputer
from .knn import KNNImputer
from .knne import KNNEnsembleImputer
from .loess import LoessImputer
from .mc import MatrixCompletionImputer
from .meanimpute import MeanImputer
from .softimpute import SoftImputeImputer

__all__ = ["IMPUTER_NAMES", "STOCHASTIC_VARIANTS", "make_imputer"]

_DEFAULT_RANK = 5

#: Mini-batch hyper-parameters of the registered stochastic variants —
#: the configuration tests/engine/test_stochastic.py::TestAgainstFullBatch
#: holds within 5% of full-batch RMSE at >= 2x fewer row updates per
#: unit decrease.
STOCHASTIC_DEFAULTS: dict[str, object] = {
    "method": "stochastic",
    "batch_size": 64,
    "learning_rate": 0.04,
    "lr_decay": 0.02,
    "max_iter": 180,
}


def _build_nmf(n_spatial: int, rank: int, random_state: object) -> MaskedNMF:
    return MaskedNMF(rank=rank, random_state=random_state)


def _build_smf(n_spatial: int, rank: int, random_state: object) -> SMF:
    return SMF(rank=rank, n_spatial=n_spatial, random_state=random_state)


def _build_smfl(n_spatial: int, rank: int, random_state: object) -> SMFL:
    return SMFL(rank=rank, n_spatial=n_spatial, random_state=random_state)


def _build_nmf_sgd(n_spatial: int, rank: int, random_state: object) -> MaskedNMF:
    return MaskedNMF(rank=rank, random_state=random_state, **STOCHASTIC_DEFAULTS)


def _build_smf_sgd(n_spatial: int, rank: int, random_state: object) -> SMF:
    return SMF(
        rank=rank, n_spatial=n_spatial, random_state=random_state,
        **STOCHASTIC_DEFAULTS,
    )


def _build_smfl_sgd(n_spatial: int, rank: int, random_state: object) -> SMFL:
    return SMFL(
        rank=rank, n_spatial=n_spatial, random_state=random_state,
        **STOCHASTIC_DEFAULTS,
    )


def _build_smfl_svrg(n_spatial: int, rank: int, random_state: object) -> SMFL:
    return SMFL(
        rank=rank, n_spatial=n_spatial, random_state=random_state,
        **{**STOCHASTIC_DEFAULTS, "update_rule": "svrg"},
    )


_FACTORIES: dict[str, Callable[[int, int, object], object]] = {
    "mean": lambda n_spatial, rank, seed: MeanImputer(),
    "knn": lambda n_spatial, rank, seed: KNNImputer(),
    "knne": lambda n_spatial, rank, seed: KNNEnsembleImputer(),
    "loess": lambda n_spatial, rank, seed: LoessImputer(),
    "iim": lambda n_spatial, rank, seed: IIMImputer(),
    "mc": lambda n_spatial, rank, seed: MatrixCompletionImputer(),
    "dlm": lambda n_spatial, rank, seed: DLMImputer(),
    "softimpute": lambda n_spatial, rank, seed: SoftImputeImputer(),
    "iterative": lambda n_spatial, rank, seed: IterativeImputer(),
    "gain": lambda n_spatial, rank, seed: GAINImputer(random_state=seed),
    "camf": lambda n_spatial, rank, seed: CAMFImputer(
        rank=rank, random_state=seed
    ),
    "nmf": _build_nmf,
    "smf": _build_smf,
    "smfl": _build_smfl,
    "nmf_sgd": _build_nmf_sgd,
    "smf_sgd": _build_smf_sgd,
    "smfl_sgd": _build_smfl_sgd,
    "smfl_svrg": _build_smfl_svrg,
}

IMPUTER_NAMES: tuple[str, ...] = tuple(sorted(_FACTORIES))
"""All method names accepted by :func:`make_imputer`."""

STOCHASTIC_VARIANTS: tuple[str, ...] = (
    "nmf_sgd", "smf_sgd", "smfl_sgd", "smfl_svrg",
)
"""Mini-batch variants of the MF family: pass any of these in a
table/figure regenerator's ``methods`` tuple to run the stochastic path
(e.g. ``table_iv(methods=("smfl", "smfl_sgd"))`` or
``figure_9(methods=("smfl", "smfl_sgd"))``)."""


def make_imputer(
    name: str,
    *,
    n_spatial: int = 2,
    rank: int = _DEFAULT_RANK,
    random_state: object = None,
) -> object:
    """Build an imputer by its Table IV name.

    Every returned object exposes ``fit_impute(x, mask) -> x_hat``.

    Parameters
    ----------
    name:
        One of :data:`IMPUTER_NAMES` (case-insensitive).
    n_spatial:
        Spatial-column count, consumed by the spatial-aware methods.
    rank:
        Factorization rank for the MF-family methods.
    random_state:
        Seed or Generator for the stochastic methods.
    """
    key = str(name).lower()
    if key not in _FACTORIES:
        raise ValidationError(
            f"unknown imputer {name!r}; available: {', '.join(IMPUTER_NAMES)}"
        )
    return _FACTORIES[key](n_spatial, rank, random_state)
