"""repro: a full reproduction of "Matrix Factorization with Landmarks
for Spatial Data" (Fang, Mei, Song; ICDE 2023).

The package implements the paper's contribution - **SMFL**, Spatial
Matrix Factorization with Landmarks - together with every substrate and
baseline its evaluation depends on:

- :mod:`repro.core` - masked NMF, SMF, and SMFL with the paper's
  multiplicative and gradient update rules;
- :mod:`repro.spatial` - p-NN similarity graph and Laplacian;
- :mod:`repro.clustering` - K-means (landmarks) and Hungarian matching;
- :mod:`repro.masking` - Omega/Psi masks and error injection;
- :mod:`repro.data` - spatial dataset generators matching Table III;
- :mod:`repro.baselines` - the 12 competitor imputation methods;
- :mod:`repro.repair` - repair task (HoloClean/Baran-style baselines);
- :mod:`repro.apps` - route planning and clustering applications;
- :mod:`repro.experiments` - regenerators for every table and figure.

Quickstart
----------
>>> from repro import SMFL
>>> from repro.data import load_dataset
>>> from repro.masking import MissingSpec, inject_missing
>>> from repro.metrics import rms_over_mask
>>> data = load_dataset("lake", n_rows=200, random_state=0)
>>> x_missing, mask = inject_missing(
...     data.values, MissingSpec(missing_rate=0.1, columns=data.attribute_columns),
...     random_state=0)
>>> model = SMFL(rank=5, n_spatial=data.n_spatial, random_state=0)
>>> imputed = model.fit_impute(x_missing, mask)
>>> error = rms_over_mask(imputed, data.values, mask)
"""

from .core import SMF, SMFL, LandmarkSet, MaskedNMF, kmeans_landmarks
from .exceptions import (
    ConvergenceWarning,
    DegenerateDataError,
    NotFittedError,
    NumericalDivergenceError,
    ReproError,
    ValidationError,
)
from .masking import ObservationMask
from .versioning import __version__

__all__ = [
    "SMF",
    "SMFL",
    "MaskedNMF",
    "LandmarkSet",
    "kmeans_landmarks",
    "ObservationMask",
    "ReproError",
    "ValidationError",
    "NotFittedError",
    "DegenerateDataError",
    "NumericalDivergenceError",
    "ConvergenceWarning",
    "__version__",
]
