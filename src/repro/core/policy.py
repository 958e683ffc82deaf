"""Pluggable scheduler-policy registry.

The simulator only requires the :class:`~repro.core.controller.
TLPController` hook protocol (``start`` / ``on_window`` /
``on_attach`` / ``on_detach``); this module makes implementations of it
*nameable*, so experiment configs, the CLI, and pool-worker job specs
can refer to a policy by a short string instead of carrying a live
controller object (which would not survive pickling into a worker).

Two sources feed the registry:

* the built-in policies below (PBS variants, DynCTA, CCWS, Mod+Bypass,
  static), registered at import time;
* third-party plugins published under the ``repro.policies`` entry-point
  group, discovered lazily the first time a lookup misses so importing
  this module stays cheap and discovery failures never break built-ins.

Factories must be module-level callables (picklable — devtools rule
R005 checks registrations) taking ``n_apps`` plus policy-specific
keyword arguments and returning a fresh controller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import TLPController

__all__ = [
    "register_policy",
    "get_policy",
    "make_policy",
    "available_policies",
]

PolicyFactory = Callable[..., "TLPController"]

_REGISTRY: dict[str, PolicyFactory] = {}
_entry_points_loaded = False


def register_policy(name: str, factory: PolicyFactory) -> PolicyFactory:
    """Register ``factory`` under ``name``; returns the factory.

    The factory must be a module-level callable so job specs naming the
    policy stay picklable for pool workers; lambdas and nested functions
    are rejected by devtools rule R005.
    """
    if not callable(factory):
        raise TypeError(f"policy factory for {name!r} is not callable")
    if name in _REGISTRY and _REGISTRY[name] is not factory:
        raise ValueError(f"policy {name!r} is already registered")
    # Per-process state by design: each pool worker rebuilds its own
    # registry from module imports and entry points, so nothing written
    # here ever needs to cross back over the process boundary.
    _REGISTRY[name] = factory  # repro: noqa[R010]
    return factory


def _load_entry_points() -> None:
    """Discover third-party policies (``repro.policies`` group), once."""
    global _entry_points_loaded
    if _entry_points_loaded:
        return
    # Once-per-process flag (see register_policy: the registry is
    # rebuilt independently in every worker, never written back).
    _entry_points_loaded = True  # repro: noqa[R010]
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - ancient interpreter
        return
    try:
        eps = entry_points(group="repro.policies")
    except TypeError:  # pragma: no cover - Python < 3.10 dict API
        eps = entry_points().get("repro.policies", [])
    for ep in eps:
        try:
            factory = ep.load()
        except Exception:  # pragma: no cover - broken plugin must not
            continue  # take down the built-ins
        if ep.name not in _REGISTRY:
            register_policy(ep.name, factory)


def get_policy(name: str) -> PolicyFactory:
    """Look up a registered policy factory by name."""
    if name not in _REGISTRY:
        _load_entry_points()
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown policy {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[name]


def make_policy(name: str, **kwargs: object) -> "TLPController":
    """Instantiate a fresh controller for the named policy."""
    return get_policy(name)(**kwargs)


def available_policies() -> tuple[str, ...]:
    """All registered policy names, sorted (triggers plugin discovery)."""
    _load_entry_points()
    return tuple(sorted(_REGISTRY))


# --- built-in policies -----------------------------------------------------
#
# Module-level functions (not lambdas) so job specs naming them pickle
# cleanly into pool workers.


def make_pbs_ws(n_apps: int = 2, **kwargs: object) -> "TLPController":
    from repro.core.pbs import PBSController

    return PBSController("ws", n_apps=n_apps, **kwargs)


def make_pbs_fi(n_apps: int = 2, **kwargs: object) -> "TLPController":
    from repro.core.pbs import PBSController

    kwargs.setdefault("scale", "sampled")
    return PBSController("fi", n_apps=n_apps, **kwargs)


def make_pbs_hs(n_apps: int = 2, **kwargs: object) -> "TLPController":
    from repro.core.pbs import PBSController

    kwargs.setdefault("scale", "sampled")
    return PBSController("hs", n_apps=n_apps, **kwargs)


def make_dyncta(n_apps: int = 2, **kwargs: object) -> "TLPController":
    from repro.core.dyncta import DynCTAController

    return DynCTAController(n_apps, **kwargs)


def make_ccws(n_apps: int = 2, **kwargs: object) -> "TLPController":
    from repro.core.ccws import CCWSController

    return CCWSController(n_apps, **kwargs)


def make_modbypass(n_apps: int = 2, **kwargs: object) -> "TLPController":
    from repro.core.modbypass import ModBypassController

    return ModBypassController(n_apps, **kwargs)


def make_static(
    n_apps: int = 2, combo: dict[int, int] | None = None, **kwargs: object
) -> "TLPController":
    from repro.config import TLP_LEVELS
    from repro.core.controller import StaticController

    if combo is None:
        combo = {a: TLP_LEVELS[-1] for a in range(n_apps)}
    return StaticController(dict(combo), **kwargs)


register_policy("pbs-ws", make_pbs_ws)
register_policy("pbs-fi", make_pbs_fi)
register_policy("pbs-hs", make_pbs_hs)
register_policy("dyncta", make_dyncta)
register_policy("ccws", make_ccws)
register_policy("modbypass", make_modbypass)
register_policy("static", make_static)
