"""Picklable experiment descriptions — the sweep engine's unit of work.

An :class:`ExperimentSpec` captures everything one simulated run needs as
plain data: the network configuration, a workload reference, the firing
duration, the post-run drain window, a display label, and the report
parameters the run should carry into its result row. The run's seed is
``config.seed``. Because a spec is only data, it can be pickled to a
worker process, hashed into a stable on-disk cache key, and stored in a
checkpoint as JSON (:meth:`ExperimentSpec.to_dict`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Mapping

from repro.bench.results import ExperimentResult
from repro.dataform import load_dataclass
from repro.fabric.config import FabricConfig
from repro.workloads.registry import WorkloadRef

#: Default simulated run length for benchmark experiments. The paper fires
#: for 90 s; shapes stabilise far earlier in the deterministic simulator,
#: so benchmarks default to a shorter window and report the value used.
DEFAULT_DURATION = 5.0

#: Default post-run drain window (simulated seconds) during which in-flight
#: transactions may still resolve; matches :meth:`FabricNetwork.run`.
DEFAULT_DRAIN = 3.0


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, described entirely as data.

    ``run_experiment(spec)`` is the canonical entry point consuming it;
    :func:`repro.bench.sweep.run_sweep` fans lists of specs across worker
    processes and :class:`repro.bench.cache.ResultCache` keys results on
    its data form.
    """

    config: FabricConfig
    workload: WorkloadRef
    duration: float = DEFAULT_DURATION
    label: str = ""
    #: Simulated seconds the network keeps running after clients stop.
    drain: float = DEFAULT_DRAIN
    #: Report parameters carried verbatim into the result row (e.g. the
    #: swept axis value: ``{"BS": 1024}``).
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    def to_dict(self) -> Dict[str, object]:
        """The spec as plain JSON-ready data, which :meth:`from_dict`
        rebuilds exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: object, path: str = "spec") -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output; raises
        :class:`~repro.errors.ConfigError` naming the dotted path of the
        first unknown, missing or mistyped field."""
        return load_dataclass(cls, data, path)

    def resolved_label(self) -> str:
        """The explicit label, or the system name the config implies."""
        return self.label or (
            "Fabric++" if self.config.is_fabric_plus_plus else "Fabric"
        )

    def build_network(self, tracer=None):
        """A fresh, not yet run network for this spec: a sharded fleet
        when ``config.channels >= 2``, else one :class:`FabricNetwork`."""
        # Imported here: repro.channels sits above the fabric layer, and
        # the bench package is imported by modules repro.channels depends on.
        from repro.channels import build_network

        return build_network(self.config, self.workload.build(), tracer=tracer)

    def result(self, metrics) -> ExperimentResult:
        """The result row this spec's run yields, given its metrics."""
        return ExperimentResult(
            label=self.resolved_label(),
            config=self.config,
            metrics=metrics,
            duration=self.duration,
            params=dict(self.params),
        )

    def describe(self) -> str:
        """Short human-readable form for progress lines."""
        if self.params:
            knobs = ", ".join(f"{key}={value}" for key, value in self.params.items())
            return f"{self.resolved_label()} ({knobs})"
        return self.resolved_label()
