"""Small validation helpers shared across subsystems."""

from __future__ import annotations

import dataclasses
from typing import Collection, Mapping

import numpy as np


def field_names(cls) -> set[str]:
    """A dataclass's field names: the allowed keys of the block it parses."""
    return {f.name for f in dataclasses.fields(cls)}


def check_keys(where: str, mapping: Mapping, allowed: Collection[str],
               retired: Mapping[str, str] | None = None) -> dict:
    """Return ``mapping`` as a dict, rejecting keys outside ``allowed``.

    ``where`` names the block in the error (``"scenario block 'data'"``,
    ``"plan"``).  ``retired`` maps keys that older files may still carry to
    a sentence saying what replaced them; it is appended when such a key is
    among the unknown ones.
    """
    if not isinstance(mapping, Mapping):
        raise ValueError(f"{where} must be a table/mapping; "
                         f"got {type(mapping).__name__}")
    unknown = set(mapping) - set(allowed)
    if unknown:
        notes = sorted({retired[k] for k in unknown if k in retired}) \
            if retired else []
        raise ValueError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"valid keys: {sorted(allowed)}" + "".join(f". {n}" for n in notes))
    return dict(mapping)


def parse_spec(where: str, text: str) -> dict[str, str]:
    """Split a ``key=value,key=value`` spec string into stripped strings.

    Empty items are skipped; an item without ``=`` or without a value is
    an error naming ``where`` (``"privacy"``, ``"precision"``).
    """
    fields: dict[str, str] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, val = item.partition("=")
        if not sep or not val.strip():
            raise ValueError(f"{where} spec item '{item}' is not key=value")
        fields[key.strip()] = val.strip()
    return fields


def check_2d(x: np.ndarray, name: str = "array") -> np.ndarray:
    """Return ``x`` as a 2-D float array, raising a clear error otherwise."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (n_samples, n_features); got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one sample")
    return arr


def check_probability_vector(p: np.ndarray, name: str = "distribution") -> np.ndarray:
    """Validate a discrete probability vector (non-negative, sums to ~1)."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D; got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.any(arr < -1e-12):
        raise ValueError(f"{name} has negative entries")
    total = float(arr.sum())
    # np.isclose(total, 1.0, atol=1e-6) spelled out, its default rtol * |1.0|
    # included; written negated so a NaN total is still rejected.
    if not abs(total - 1.0) <= 1e-6 + 1e-5:
        raise ValueError(f"{name} must sum to 1; sums to {total}")
    return np.clip(arr, 0.0, None)


def normalize_histogram(counts: np.ndarray) -> np.ndarray:
    """Turn a count vector into a probability vector (uniform if all zero)."""
    arr = np.asarray(counts, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"histogram must be 1-D; got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("histogram must be non-empty")
    if np.any(arr < 0):
        raise ValueError("histogram counts must be non-negative")
    total = arr.sum()
    if total == 0:
        return np.full(arr.size, 1.0 / arr.size)
    return arr / total


def doc_first_line(obj, fallback: str = "") -> str:
    """First line of an object's docstring, or ``fallback`` when absent."""
    import inspect
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else fallback
