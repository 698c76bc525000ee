"""Shared utilities: seeded RNG streams, the parameter plane, validation.

Everything in :mod:`repro` is deterministic given a seed.  The helpers here
centralize how randomness is derived (:func:`spawn_rng`), how flat parameter
vectors are banked and compared (:mod:`repro.utils.params`), and small
validation utilities used across subsystems.
"""
