"""Named workload factories: build workloads from plain data.

The sweep engine describes an experiment entirely as data
(:class:`repro.bench.spec.ExperimentSpec`), so workloads must be
constructible from a ``(name, params, seed)`` triple that pickles cheaply
across process boundaries and hashes stably into a cache key. The
registry maps a public workload name to a factory callable;
:class:`WorkloadRef` is the picklable reference the bench layer stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple

from repro.errors import ConfigError
from repro.workloads.base import Workload
from repro.workloads.blank import BlankWorkload
from repro.workloads.custom import CustomWorkload, CustomWorkloadParams
from repro.workloads.smallbank import SmallbankParams, SmallbankWorkload

_FACTORIES: Dict[str, Callable[..., Workload]] = {}


def register_workload(name: str, factory: Callable[..., Workload]) -> None:
    """Register ``factory`` under ``name``.

    The factory must accept a ``seed`` keyword plus the workload's own
    parameter keywords and return a fresh :class:`Workload`.
    """
    if name in _FACTORIES:
        raise ConfigError(f"workload {name!r} is already registered")
    _FACTORIES[name] = factory


def workload_names() -> Tuple[str, ...]:
    """The registered workload names, sorted."""
    return tuple(sorted(_FACTORIES))


def make_workload(name: str, seed: int = 0, **params) -> Workload:
    """Build a fresh workload instance from its name and parameters."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(workload_names())
        raise ConfigError(f"unknown workload {name!r}; known: {known}") from None
    try:
        return factory(seed=seed, **params)
    except TypeError as error:
        raise ConfigError(f"bad parameters for workload {name!r}: {error}") from error


@dataclass(frozen=True)
class WorkloadRef:
    """A picklable, data-only reference to a registered workload.

    Unlike a :class:`Workload` instance or a closure, a ref can be
    fingerprinted for the result cache and shipped to worker processes
    without dragging simulation state along.
    """

    name: str
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    def build(self) -> Workload:
        """Instantiate the workload this ref describes."""
        return make_workload(self.name, seed=self.seed, **self.params)


# -- built-in workloads ---------------------------------------------------------


def _make_smallbank(seed: int = 0, **params) -> Workload:
    return SmallbankWorkload(SmallbankParams(**params), seed=seed)


def _make_custom(seed: int = 0, **params) -> Workload:
    return CustomWorkload(CustomWorkloadParams(**params), seed=seed)


def _make_blank(seed: int = 0, **params) -> Workload:
    if params:
        raise ConfigError(f"blank workload takes no parameters, got {sorted(params)}")
    return BlankWorkload()


def _make_ycsb(seed: int = 0, preset: str = None, **params) -> Workload:
    from repro.workloads.ycsb import YcsbParams, YcsbWorkload

    if preset is not None:
        ycsb_params = YcsbParams.preset(preset, **params)
    else:
        ycsb_params = YcsbParams(**params)
    return YcsbWorkload(ycsb_params, seed=seed)


register_workload("smallbank", _make_smallbank)
register_workload("custom", _make_custom)
register_workload("blank", _make_blank)
register_workload("ycsb", _make_ycsb)
