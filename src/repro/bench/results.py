"""Unified experiment results: one row type, one collection type.

Historically the bench layer juggled three result shapes: bare
:class:`ExperimentResult` objects, the ``{label: result}`` dict returned
by ``compare_fabric_vs_fabricpp``, and ``ReplicatedResult``'s parallel
value lists. :class:`ResultSet` replaces the latter two: an ordered
collection of :class:`ExperimentResult` with mapping-style access by
label, flat ``rows()`` for tables, JSON round-tripping, improvement
factors, and multi-seed aggregation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.dataform import load_dataclass
from repro.errors import ConfigError, ReproError
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import PipelineMetrics

#: Schema version stamped into serialised result sets; bump on breaking change.
RESULTSET_SCHEMA = 1


@dataclass
class ExperimentResult:
    """One experiment's outcome, with the run's identifying labels."""

    label: str
    config: FabricConfig
    metrics: PipelineMetrics
    duration: float
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def successful_tps(self) -> float:
        """Average successful transactions per second."""
        return self.metrics.successful_tps()

    @property
    def failed_tps(self) -> float:
        """Average failed transactions per second."""
        return self.metrics.failed_tps()

    def row(self) -> Dict[str, object]:
        """A flat dict for report tables."""
        summary = self.metrics.summary()
        return {"label": self.label, **self.params, **summary}


# -- (de)serialisation helpers --------------------------------------------------
#
# The cache and ResultSet.to_json share these; every float round-trips
# exactly through JSON (repr-based), so a replayed result is row-for-row
# identical to the live run that produced it.


def metrics_to_dict(metrics: PipelineMetrics) -> Dict[str, object]:
    """Full snapshot of one run's metrics (counters and samples).

    Optional blocks (``cost_breakdown``, ``validation``, ...) appear only
    when the run attached them, so snapshots of default runs are
    byte-identical to those of builds that predate the block
    (golden-hash discipline). The field list is the metrics' own.
    """
    return metrics.to_dict()


def metrics_from_dict(data: Dict[str, object]) -> PipelineMetrics:
    """Rebuild :class:`PipelineMetrics` from :func:`metrics_to_dict` output."""
    return PipelineMetrics.from_dict(data)


def _result_to_dict(result: ExperimentResult) -> Dict[str, object]:
    """Plain-dict form of one result, suitable for JSON."""
    return {
        "label": result.label,
        "duration": result.duration,
        "params": dict(result.params),
        "config": asdict(result.config),
        "metrics": metrics_to_dict(result.metrics),
    }


def _result_from_dict(data: Dict[str, object], path: str = "") -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`_result_to_dict`."""
    prefix = f"{path}." if path else ""
    try:
        metrics = PipelineMetrics.from_dict(data["metrics"], prefix + "metrics")
        data = {**data, "metrics": metrics}
    except (KeyError, TypeError, ValueError) as error:
        raise ConfigError(f"{path or 'result'}: {error!r}") from error
    return load_dataclass(ExperimentResult, data, path)


class ResultSet:
    """An ordered collection of :class:`ExperimentResult`.

    Access is mapping-style by label (``result_set["Fabric++"]`` returns
    the first result with that label; iteration yields labels, so
    ``set(result_set)`` gives the label set) or positional by integer
    index. ``results`` exposes the underlying ordered list.
    """

    def __init__(self, results: Iterable[ExperimentResult] = (), stats=None) -> None:
        self.results: List[ExperimentResult] = list(results)
        #: Optional :class:`repro.bench.sweep.SweepStats` of the producing run.
        self.stats = stats

    # -- collection protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[str]:
        return (result.label for result in self.results)

    def __contains__(self, label: object) -> bool:
        return any(result.label == label for result in self.results)

    def __getitem__(self, key: Union[str, int]) -> ExperimentResult:
        if isinstance(key, int):
            return self.results[key]
        for result in self.results:
            if result.label == key:
                return result
        raise KeyError(key)

    def get(self, label: str, default=None) -> Optional[ExperimentResult]:
        """First result with ``label``, or ``default``."""
        try:
            return self[label]
        except KeyError:
            return default

    def items(self) -> Iterator[tuple]:
        """``(label, result)`` pairs in run order."""
        return ((result.label, result) for result in self.results)

    def values(self) -> List[ExperimentResult]:
        """The results in run order."""
        return list(self.results)

    def labels(self) -> List[str]:
        """Unique labels in first-appearance order."""
        seen: List[str] = []
        for result in self.results:
            if result.label not in seen:
                seen.append(result.label)
        return seen

    def select(self, label: str) -> "ResultSet":
        """All results carrying ``label``, as a new set."""
        return ResultSet(result for result in self.results if result.label == label)

    def append(self, result: ExperimentResult) -> None:
        """Add one result at the end."""
        self.results.append(result)

    # -- consumption surface ----------------------------------------------------

    def rows(self) -> List[Dict[str, object]]:
        """Flat dict-rows for report tables, in run order."""
        return [result.row() for result in self.results]

    def channel_rows(self) -> List[Dict[str, object]]:
        """Per-channel breakdown rows of every sharded result.

        Each sharded result contributes one ``channel="fleet"`` row (the
        aggregate, with the saga counters inlined) followed by its
        per-channel rows; single-runtime results contribute nothing.
        """
        return [
            {"label": result.label, **result.params, **row}
            for result in self.results
            for row in result.metrics.channel_rows()
        ]

    def to_json(self) -> str:
        """Serialise every result (full metrics) to a JSON document."""
        payload = {
            "schema_version": RESULTSET_SCHEMA,
            "results": [_result_to_dict(result) for result in self.results],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Rebuild a set serialised by :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"cannot parse result set: {error}") from error
        schema = payload.get("schema_version") if isinstance(payload, dict) else None
        if schema != RESULTSET_SCHEMA:
            raise ReproError(f"unsupported result-set schema {schema!r}")
        if not isinstance(payload.get("results"), list):
            raise ReproError("results: expected a list")
        return cls(
            _result_from_dict(entry, f"results[{index}]")
            for index, entry in enumerate(payload["results"])
        )

    def improvement_factor(
        self, baseline: str = "Fabric", improved: str = "Fabric++"
    ) -> float:
        """Ratio of mean successful throughput, ``improved`` over ``baseline``.

        With one result per label (the compare case) this is the paper's
        plain "x" factor; over a grid it is the ratio of per-label means.
        """
        from repro.bench.report import improvement_factor as factor

        return factor(
            self.aggregate(label=baseline)["mean"],
            self.aggregate(label=improved)["mean"],
        )

    def aggregate(
        self, metric: str = "successful_tps", label: Optional[str] = None
    ) -> Dict[str, object]:
        """Mean/stdev of ``metric`` over the (optionally label-filtered) set.

        This subsumes the old ``ReplicatedResult``: run one config under
        several seeds and aggregate the spread. The stdev is the
        population standard deviation, as before.
        """
        subset = self.results if label is None else [
            result for result in self.results if result.label == label
        ]
        values = [float(getattr(result, metric)) for result in subset]
        if not values:
            return {"n": 0, "mean": 0.0, "stdev": 0.0, "values": []}
        mean = sum(values) / len(values)
        variance = sum((value - mean) ** 2 for value in values) / len(values)
        return {
            "n": len(values),
            "mean": mean,
            "stdev": variance ** 0.5,
            "values": values,
        }

    def format_table(self, title: str = "") -> str:
        """Render :meth:`rows` as an aligned text table."""
        from repro.bench.report import format_table

        return format_table(self.rows(), title=title)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet({len(self.results)} results, labels={self.labels()})"
