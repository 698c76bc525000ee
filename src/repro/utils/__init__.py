"""Shared utilities: seeded RNG streams, parameter vector packing, validation.

Everything in :mod:`repro` is deterministic given a seed.  The helpers here
centralize how randomness is derived (:func:`spawn_rng`), how model parameter
lists are flattened to vectors and back (:class:`ParamSpec`), and small
validation utilities used across subsystems.
"""

from repro.utils.rng import seed_sequence, spawn_rng
from repro.utils.params import (
    ParamBank,
    ParamSpec,
    cosine_similarity_matrix,
    flatten_params,
    resolve_dtype,
    stack_params,
    weighted_average,
)
from repro.utils.validation import (
    check_probability_vector,
    check_2d,
    normalize_histogram,
)
from repro.utils.serialization import (
    save_run_result,
    load_run_result_dict,
)

__all__ = [
    "seed_sequence",
    "spawn_rng",
    "ParamBank",
    "ParamSpec",
    "cosine_similarity_matrix",
    "resolve_dtype",
    "stack_params",
    "flatten_params",
    "weighted_average",
    "check_probability_vector",
    "check_2d",
    "normalize_histogram",
    "save_run_result",
    "load_run_result_dict",
]
