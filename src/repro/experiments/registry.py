"""Strategy registry: map names to :class:`ContinualStrategy` factories.

Every strategy the experiment layer can run — the paper's five baselines,
ShiftEx itself, and any user-defined method — lives in one registry.  A
factory is anything callable that returns a strategy instance (usually the
class itself):

    from repro.experiments.registry import register_strategy

    @register_strategy("my-method")
    class MyStrategy(ContinualStrategy):
        name = "my-method"
        ...

    build_strategy("my-method", alpha=0.3)   # -> MyStrategy(alpha=0.3)

Built-in strategies register themselves when their modules import; the
registry loads them lazily on first lookup so importing this module stays
cheap and cycle-free.
"""

from __future__ import annotations

from typing import Callable

from repro.utils.validation import doc_first_line

_REGISTRY: dict[str, Callable[..., object]] = {}
_builtins_loaded = False
_builtins_loading = False


def _ensure_builtins() -> None:
    """Import the modules whose decorators register the built-in methods."""
    global _builtins_loaded, _builtins_loading
    if _builtins_loaded or _builtins_loading:
        return
    # The flag flips only on success so a failed import is retried, not
    # silently cached as an empty registry; the in-progress guard keeps the
    # imports below (which call back into this module) from recursing.
    _builtins_loading = True
    try:
        import repro.baselines.fedavg  # noqa: F401
        import repro.baselines.fedprox  # noqa: F401
        import repro.baselines.oort  # noqa: F401
        import repro.baselines.fielding  # noqa: F401
        import repro.baselines.feddrift  # noqa: F401
        import repro.core.server  # noqa: F401  registers shiftex
        _builtins_loaded = True
    finally:
        _builtins_loading = False


def register_strategy(name: str, *, overwrite: bool = False):
    """Class/function decorator adding a strategy factory under ``name``.

    Raises :class:`ValueError` when ``name`` is already taken unless
    ``overwrite=True`` (useful for notebooks that re-execute cells).
    """
    if not isinstance(name, str) or not name:
        raise TypeError("strategy name must be a non-empty string")

    def decorator(factory: Callable[..., object]):
        if not callable(factory):
            raise TypeError(f"strategy '{name}' factory must be callable")
        if name in _REGISTRY and not overwrite:
            raise ValueError(
                f"strategy '{name}' is already registered; pass overwrite=True "
                f"to replace it")
        _REGISTRY[name] = factory
        return factory

    return decorator


def strategy_names() -> tuple[str, ...]:
    """All registered names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def strategy_factory(name: str) -> Callable[..., object]:
    """The factory registered under ``name``."""
    _ensure_builtins()
    if name not in _REGISTRY:
        raise KeyError(f"unregistered strategy '{name}'; "
                       f"available: {list(strategy_names())}")
    return _REGISTRY[name]


def build_strategy(name: str, **kwargs):
    """Instantiate a registered strategy, forwarding ``kwargs`` to its factory."""
    return strategy_factory(name)(**kwargs)


def strategy_description(name: str) -> str:
    """One-line description of a registered strategy (docstring first line)."""
    factory = strategy_factory(name)
    describe = getattr(factory, "describe", None)
    if callable(describe):
        return describe()
    return doc_first_line(factory, fallback=name)
