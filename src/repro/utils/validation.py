"""Small validation helpers shared across subsystems, and the plan reader.

:func:`read_knob` builds a dataclass from a plan value, typing each field by
its annotation (:func:`read_kwargs` types a strategy factory's keyword
arguments by its signature the same way).  Every plan block goes through
it; the run sub-plans (:class:`~repro.utils.precision.PrecisionPlan`,
:class:`~repro.privacy.plan.PrivacyPlan`,
:class:`~repro.federation.async_engine.FederationConfig` with its
:class:`~repro.federation.availability.AvailabilityConfig`,
:class:`~repro.federation.pool.PopulationConfig`) mix in :class:`Knob`, so
CLI flags read them too:

* an instance is returned as it is;
* a mapping has its keys checked against the fields and each value typed
  by its field (text reads as the field's type, a text field takes only
  text, a tuple is read element by element, a nested block recursively),
  every error naming the dotted path
  (``plan federation.availability.dropout_prob``; :func:`read_value` is
  that rule for one value);
* for a knob, a spec string ``[SHORTHAND][,key=value]*`` is the same
  mapping written on one line: the bare first word is the class's
  shorthand, and a nested block's keys are dotted
  (``availability.dropout_prob=0.2``); any other value but a bool is the
  shorthand's value (a bare int population size); ``privacy = true`` is
  rejected, not read as masking.

:meth:`Knob.spec` writes a value back as the shortest spec string that reads
to it.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import numbers
import types
import typing
from typing import Collection, Mapping

import numpy as np

_TRUE = ("on", "true", "yes", "1")
_FALSE = ("off", "false", "no", "0")
_EXPECTED = {bool: "on/off", int: "an integer", float: "a number",
             str: "a string", type(None): "null"}
_PLURAL = {bool: "on/off values", int: "integers", float: "numbers",
           str: "strings"}


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
    elif kind is bool and isinstance(value, bool):
        return value
    elif kind is int:
        return check_int("", value)
    elif kind is float and isinstance(value, numbers.Real):
        return value
    raise ValueError(f"not {_EXPECTED[kind]}")


@functools.cache
def _parameters(factory) -> tuple[dict[str, tuple], bool]:
    """``factory``'s keyword parameters (a dataclass's ``init`` fields) as
    ``name -> (annotation or None, required)``, and whether it takes any
    other keyword (``**kwargs``)."""
    hints = typing.get_type_hints(
        factory.__init__ if isinstance(factory, type) else factory)
    params, open_ = {}, False
    for param in inspect.signature(factory).parameters.values():
        if param.kind is param.VAR_KEYWORD:
            open_ = True
        elif param.kind is not param.VAR_POSITIONAL:
            params[param.name] = (hints.get(param.name),
                                  param.default is param.empty)
    return params, open_


def read_value(where: str, hint, value, base=None):
    """``value`` read as the annotation ``hint``, errors naming ``where``:
    the rule every plan field is typed by.

    A union takes the first member ``value`` reads as.  A dataclass is read
    by :func:`read_knob`, overlaying ``base`` unless it is a knob; a type
    the reader does not know passes as given, for its class to check.
    """
    options = (typing.get_args(hint)
               if typing.get_origin(hint) in (typing.Union, types.UnionType)
               else (hint,))
    if value is None and type(None) in options:
        return None
    for kind in options:
        if dataclasses.is_dataclass(kind):
            return read_knob(kind, value, where,
                             None if issubclass(kind, Knob) else base)
        if typing.get_origin(kind) is tuple:
            return _items(where, typing.get_args(kind), value)
        if kind not in _EXPECTED:
            return value
        if kind is not type(None):
            try:
                return _scalar(kind, value)
            except ValueError:
                continue
    expected = " or ".join(_EXPECTED[kind] for kind in options)
    raise ValueError(f"{where} must be {expected}; got {value!r}")


def _items(where: str, kinds: tuple, value) -> tuple:
    """A list read one element at a time, naming ``where[i]``: ``kinds`` is
    ``(X, ...)`` for any length, else one annotation per position."""
    many = kinds[-1] is Ellipsis
    if not isinstance(value, (list, tuple)) or (
            not many and len(value) != len(kinds)):
        what = _PLURAL.get(kinds[0], "entries") if many else \
            f"{len(kinds)} items"
        raise ValueError(f"{where} must be a list of {what}; got {value!r}")
    return tuple(
        read_value(f"{where}[{i}]", kinds[0] if many else kinds[i], item)
        for i, item in enumerate(value))


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


def read_kwargs(factory, value: Mapping, where: str, base=None) -> dict:
    """``value`` as keyword arguments of ``factory`` (a dataclass or a
    strategy factory), each typed by its annotation and named ``where.key``.

    ``base`` (an override's profile value, a zero-argument callable) fills
    every omitted parameter and is called only when one is omitted.
    """
    params, open_ = _parameters(factory)
    kwargs = check_keys(where, value, set(value) if open_ else params)
    for key, item in kwargs.items():
        # A plan's own keys read "plan federation", nested ones are dotted.
        path = f"{where} {key}" if where == "plan" else f"{where}.{key}"
        kwargs[key] = read_value(path, params.get(key, (None,))[0], item,
                                 base and (lambda key=key: getattr(base(), key)))
    omitted = [name for name in params if name not in kwargs]
    if base is not None and omitted:
        default = base()
        kwargs.update({name: getattr(default, name) for name in omitted})
    missing = sorted(name for name, (_hint, required) in params.items()
                     if required and name not in kwargs)
    if missing:
        raise ValueError(f"{where} is missing required key(s) {missing}")
    return kwargs


def read_knob(cls, value, where: str, base=None):
    """The dataclass ``cls`` read from a plan value (see the module
    docstring); ``where`` is the dotted path errors name (``"plan
    federation"``), ``base`` makes a mapping an overlay.

    An instance is returned as it is, and for a :class:`Knob` ``None``
    stays ``None`` (the caller's default applies).
    """
    knob = issubclass(cls, Knob)
    if value is None and knob or isinstance(value, cls):
        return value
    if knob and isinstance(value, str):
        value = _spec_fields(cls, where, value)
    elif knob and not isinstance(value, (bool, Mapping)):
        value = cls.shorthand(value)
    if not isinstance(value, Mapping):
        expected = "a table or spec string" if knob else "a table"
        note = " (a bool is not a plan)" if isinstance(value, bool) else ""
        raise ValueError(f"{where} must be {expected}; got {value!r}{note}")
    return cls(**read_kwargs(cls, value, where, base))


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
    def from_value(cls, value, where: str | None = None):
        """An instance, a mapping, a spec string or a shorthand value."""
        return read_knob(cls, value, where or cls.__name__)

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

    ``where`` names the block in the error (``"plan spec_override"``,
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


def check_2d(x: np.ndarray, name: str = "array", finite: bool = False) -> np.ndarray:
    """Return ``x`` as a 2-D float array, raising a clear error otherwise;
    ``finite`` also names the first row holding a NaN or an infinity."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (n_samples, n_features); got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one sample")
    if finite and not (rows := np.isfinite(arr).all(axis=1)).all():
        raise ValueError(f"{name} must be finite; row {int(rows.argmin())} is not")
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
