"""On-disk result cache keyed by a stable experiment fingerprint.

Re-running a benchmark grid recomputes only the grid points whose spec
actually changed: every completed run is stored under
``.repro-cache/<fingerprint>.json``, where the fingerprint is a SHA-256
over the canonical JSON of (configuration, workload reference, duration,
drain, package version, cache format). Any field change — a config knob,
a workload parameter, the seed, the duration — produces a different key;
bumping the package version invalidates everything at once.

Only specs whose workload is a :class:`~repro.workloads.registry.WorkloadRef`
are cacheable; closures and ad-hoc workload instances cannot be
fingerprinted and always run live.

The cache stores the run's *full* metrics snapshot, so a cache hit
reconstructs an :class:`ExperimentResult` that is row-for-row identical
to the live run that produced it (floats round-trip exactly through
JSON). The requesting spec's label and report params are re-applied on
load — they identify the row, not the simulation, and are deliberately
not part of the key.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Optional, Union

from repro.bench.results import (
    ExperimentResult,
    metrics_from_dict,
    metrics_to_dict,
)
from repro.bench.spec import ExperimentSpec
from repro.errors import ConfigError
from repro.ledger.export import _publish

#: Bump when the stored payload layout changes; invalidates old entries.
#: 2: metrics snapshots may carry a "validation" key (pipeline stats),
#: and configs gained the validation_workers/scheduler/pipeline_depth
#: knobs — which flow into the key via config_to_dict automatically.
#: 3: metrics snapshots may carry a "consensus" key, and configs gained
#: orderer_nodes plus the nested ConsensusConfig timing knobs (also in
#: the key via config_to_dict).
#: 4: metrics snapshots may carry an "overload" key, and configs gained
#: the nested traffic (ArrivalProcess) and backpressure
#: (BackpressureConfig) knobs plus FaultSchedule.misbehaviors (all in
#: the key via config_to_dict).
#: 5: configs gained the cc_strategy knob (in the key via
#: config_to_dict), ValidationStats snapshots gained a "strategy"
#: field, and outcome tables may carry "abort_occ_ww".
#: 6: configs gained the streaming_metrics knob (in the key via
#: config_to_dict) and metric snapshots may carry a conditional
#: "streaming" aggregate block.
#: 7: configs lost the validation_scheduler knob (cc_strategy
#: "dependency" is the one spelling), so config_to_dict has no such key.
#: 8: the client retry fields nest as one ``retry`` policy, and configs
#: lost ``resubmit_failed`` and ``max_resubmits``.
CACHE_FORMAT = 8

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def _package_version() -> str:
    """The installed package version (part of every cache key)."""
    import repro

    return repro.__version__


def spec_fingerprint(spec: ExperimentSpec, version: Optional[str] = None) -> str:
    """Stable hex fingerprint of everything that determines a run's output.

    The payload is the spec's data form (:meth:`ExperimentSpec.to_dict`)
    with the seed override applied and the label and report params left
    out. Raises :class:`TypeError` for non-cacheable specs (workload not
    a :class:`WorkloadRef`).
    """
    form = spec.to_dict()
    config = form["config"]
    if form["seed"] is not None:
        config["seed"] = form["seed"]
    payload = {
        "cache_format": CACHE_FORMAT,
        "version": version if version is not None else _package_version(),
        "config": config,
        "workload": form["workload"],
        "duration": form["duration"],
        "drain": form["drain"],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """File-per-entry result cache under a root directory.

    The directory is created lazily on the first ``put``. ``hits`` and
    ``misses`` count ``get`` calls for sweep statistics.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        version: Optional[str] = None,
    ) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self._version = version
        self.hits = 0
        self.misses = 0

    @property
    def version(self) -> str:
        """The package version keyed into every fingerprint."""
        return self._version if self._version is not None else _package_version()

    def key(self, spec: ExperimentSpec) -> Optional[str]:
        """The spec's cache key, or None when the spec is not cacheable."""
        if not spec.is_cacheable:
            return None
        return spec_fingerprint(spec, version=self.version)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        """The cached result for ``spec``, or None on a miss.

        Corrupt or unreadable entries count as misses (and are removed),
        so a damaged cache degrades to recomputation, never to an error;
        each one is named on stderr with its reason.
        """
        key = self.key(spec)
        if key is None:
            self.misses += 1
            return None
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            metrics = metrics_from_dict(payload["metrics"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (
            OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
            ConfigError,
        ) as error:
            print(
                f"recomputing corrupt cache entry {path}: {error!r}",
                file=sys.stderr,
            )
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return spec.result(metrics)

    def put(self, spec: ExperimentSpec, result: ExperimentResult) -> bool:
        """Store ``result`` under the spec's key; False if not cacheable."""
        key = self.key(spec)
        if key is None:
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "cache_format": CACHE_FORMAT,
            "version": self.version,
            "fingerprint": key,
            "metrics": metrics_to_dict(result.metrics),
        }
        _publish(self._path(key), json.dumps(payload, sort_keys=True))
        return True

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for entry in self.root.glob("*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
