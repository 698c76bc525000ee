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
    unflatten_params,
    zeros_like_params,
    add_scaled,
    weighted_average,
    params_cosine_similarity,
    params_l2_distance,
)
from repro.utils.validation import (
    check_probability_vector,
    check_2d,
    check_same_shape,
    normalize_histogram,
)
from repro.utils.serialization import (
    save_params,
    load_params,
    save_expert_registry,
    load_expert_registry,
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
    "unflatten_params",
    "zeros_like_params",
    "add_scaled",
    "weighted_average",
    "params_cosine_similarity",
    "params_l2_distance",
    "check_probability_vector",
    "check_2d",
    "check_same_shape",
    "normalize_histogram",
    "save_params",
    "load_params",
    "save_expert_registry",
    "load_expert_registry",
    "save_run_result",
    "load_run_result_dict",
]
