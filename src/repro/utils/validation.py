"""Small validation helpers shared across subsystems, and the knob reader.

Every run sub-plan (:class:`~repro.utils.precision.PrecisionPlan`,
:class:`~repro.privacy.plan.PrivacyPlan`,
:class:`~repro.federation.async_engine.FederationConfig` with its
:class:`~repro.federation.availability.AvailabilityConfig`,
:class:`~repro.federation.pool.PopulationConfig`) is a frozen dataclass that
mixes in :class:`Knob`, so plan files, scenario documents and CLI flags all
build it through one :func:`read_knob`:

* an instance is returned as it is;
* a mapping has its keys checked against the fields and each value typed
  by its field (nested blocks recursively), every error naming the dotted
  path (``plan federation.availability.dropout_prob``);
* a spec string ``[SHORTHAND][,key=value]*`` is the same mapping written on
  one line: the bare first word is the class's shorthand, and a nested
  block's keys are dotted (``availability.dropout_prob=0.2``);
* any other value but a bool is the shorthand's value (a bare int
  population size); ``privacy = true`` is rejected, not read as masking.

:meth:`Knob.spec` writes a value back as the shortest spec string that reads
to it.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import typing
from typing import Collection, Mapping

import numpy as np

_TRUE = ("on", "true", "yes", "1")
_FALSE = ("off", "false", "no", "0")
_EXPECTED = {bool: "on/off", int: "an integer", float: "a number",
             str: "a string", type(None): "null"}


def field_names(cls) -> set[str]:
    """A dataclass's field names: the allowed keys of the block it parses."""
    return {f.name for f in dataclasses.fields(cls)}


def check_int(where: str, value) -> int:
    """``value`` as an int; a bool or a non-integral number names ``where``."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{where} must be an integer; got {value!r}")
    return int(value)


def _scalar(kind, value):
    """``value`` as ``kind`` (bool, int, float or str); text is parsed."""
    if isinstance(value, bool) and kind is not bool:
        raise ValueError("a bool is only a bool")
    if isinstance(value, str):
        text = value.strip()
        if kind is not bool:
            return kind(text)
        if text.lower() in _TRUE + _FALSE:
            return text.lower() in _TRUE
    elif kind is bool and isinstance(value, bool) or kind is str:
        return value  # a str field's class normalises what it accepts
    elif kind is int:
        return check_int("", value)
    elif kind is float and isinstance(value, numbers.Real):
        return value
    raise ValueError(f"not {_EXPECTED[kind]}")


@functools.cache
def _field_types(cls) -> dict[str, tuple]:
    """Each field's accepted types (a union's members, else the one type)."""
    return {name: typing.get_args(hint) or (hint,)
            for name, hint in typing.get_type_hints(cls).items()}


def _typed(where: str, options: tuple, value):
    """``value`` as the first of the field types ``options`` it reads as."""
    if value is None:
        if type(None) in options:
            return None
    else:
        for kind in options:
            if dataclasses.is_dataclass(kind):
                return kind.from_value(value, where)
            if kind is not type(None):
                try:
                    return _scalar(kind, value)
                except ValueError:
                    continue
    expected = " or ".join(_EXPECTED.get(kind, "a table or spec string")
                           for kind in options)
    raise ValueError(f"{where} must be {expected}; got {value!r}")


def _spec_fields(cls, where: str, text: str) -> dict:
    """A spec string as the mapping it abbreviates (values still text)."""
    word, items = parse_spec(where, text)
    fields = dict(cls.shorthand(word)) if word is not None else {}
    nested: dict[str, list[str]] = {}
    for key, value in items.items():
        head, dot, rest = key.partition(".")
        if dot:
            nested.setdefault(head, []).append(f"{rest}={value}")
        else:
            fields[key] = value
    for head, parts in nested.items():
        fields[head] = ",".join(filter(None, [fields.get(head), *parts]))
    return fields


def read_knob(cls, value, where: str,
              retired: Mapping[str, str] | None = None):
    """Build the :class:`Knob` dataclass ``cls`` from any of its inputs.

    ``None`` stays ``None`` (the caller's default applies).  ``where`` is
    the dotted path errors name (``"plan federation"``); ``retired`` is
    :func:`check_keys`'s note per retired key of the top block.
    """
    if value is None or isinstance(value, cls):
        return value
    if isinstance(value, str):
        value = _spec_fields(cls, where, value)
    elif isinstance(value, bool):
        raise ValueError(f"{where} must be a table or spec string; "
                         f"got {value!r} (a bool is not a plan)")
    elif not isinstance(value, Mapping):
        value = cls.shorthand(value)
    kwargs = check_keys(where, value, field_names(cls), retired)
    types = _field_types(cls)
    kwargs = {key: _typed(f"{where}.{key}", types[key], item)
              for key, item in kwargs.items()}
    missing = sorted(f.name for f in dataclasses.fields(cls)
                     if f.name not in kwargs
                     and f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)
    if missing:
        raise ValueError(f"{where} is missing required key(s) {missing}")
    return cls(**kwargs)


def _text(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value)


class Knob:
    """Mixin for a frozen dataclass read by :func:`read_knob`.

    ``SHORTHAND`` names the field a spec string's bare first word sets;
    :meth:`shorthand` says what that word stands for.
    """

    SHORTHAND = ""

    @classmethod
    def from_value(cls, value, where: str | None = None,
                   retired: Mapping[str, str] | None = None):
        """An instance, a mapping, a spec string or a shorthand value."""
        return read_knob(cls, value, where or cls.__name__, retired)

    @classmethod
    def shorthand(cls, word) -> dict:
        """The field values a bare shorthand stands for."""
        return {cls.SHORTHAND: word}

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def spec(self) -> str:
        """The shortest spec string :meth:`from_value` reads back to this."""
        items: list[str] = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            default = (f.default_factory() if f.default_factory
                       is not dataclasses.MISSING else f.default)
            if value == default:
                continue
            if isinstance(value, Knob):
                items += [f"{f.name}.{item}" if "=" in item
                          else f"{f.name}={item}"
                          for item in value.spec().split(",")]
            elif f.name == self.SHORTHAND:
                items.insert(0, _text(value))
            else:
                items.append(f"{f.name}={_text(value)}")
        return ",".join(items)


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


def parse_spec(where: str, text: str) -> tuple[str | None, dict[str, str]]:
    """Split ``[SHORTHAND][,key=value]*`` into its bare first word (or
    ``None``) and stripped ``key -> value`` strings.

    Empty items are skipped; any later item without ``=``, a key or a value
    is an error naming ``where`` (``"--privacy"``, ``"plan precision"``).
    """
    word, fields = None, {}
    for index, item in enumerate(text.split(",")):
        item = item.strip()
        if not item:
            continue
        key, sep, val = item.partition("=")
        if not sep and index == 0:
            word = item
        elif not sep or not key.strip() or not val.strip():
            raise ValueError(f"{where} spec item '{item}' is not key=value")
        else:
            fields[key.strip()] = val.strip()
    return word, fields


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
