"""Shared utilities: seeded RNG streams, parameter vector packing, validation.

Everything in :mod:`repro` is deterministic given a seed.  The helpers here
centralize how randomness is derived (:func:`spawn_rng`), how model parameter
lists are flattened to vectors and back (:class:`ParamSpec`), and small
validation utilities used across subsystems.
"""
