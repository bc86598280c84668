"""A YCSB-style workload (extension beyond the paper's two workloads).

The paper names YCSB among the standard suites blockchains lack
(Section 6.2); this module provides the classic core workload mixes over
the simulated Fabric pipeline:

- **A** — update heavy (50% read / 50% update)
- **B** — read mostly (95% read / 5% update)
- **C** — read only
- **D** — read latest (95% read / 5% insert)
- **E** — short ranges (95% scan / 5% insert)
- **F** — read-modify-write (50% read / 50% RMW)

Records live under zero-padded ordered keys so workload E's scans map to
``get_state_by_range``. Request keys follow a Zipf distribution with a
configurable s-value, like the Smallbank accounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ChaincodeError, ConfigError
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.sim.distributions import Rng, ZipfSampler
from repro.workloads.base import Invocation, Workload

#: Operation mixes of the standard YCSB core workloads.
PRESETS: Dict[str, Dict[str, float]] = {
    "a": {"read": 0.50, "update": 0.50},
    "b": {"read": 0.95, "update": 0.05},
    "c": {"read": 1.00},
    "d": {"read": 0.95, "insert": 0.05},
    "e": {"scan": 0.95, "insert": 0.05},
    "f": {"read": 0.50, "rmw": 0.50},
}

KEY_WIDTH = 10


def record_key(record_id: int) -> str:
    """Ordered state key of one YCSB record."""
    return f"user{record_id:0{KEY_WIDTH}d}"


@dataclass(frozen=True)
class YcsbParams:
    """Configuration of a YCSB run."""

    num_records: int = 10_000
    #: Operation mix; must sum to 1. Keys: read/update/insert/scan/rmw.
    mix: Dict[str, float] = field(
        default_factory=lambda: dict(PRESETS["a"])
    )
    #: Zipf skew of the request distribution (0 = uniform).
    s_value: float = 0.99
    #: Maximum records returned by one scan (workload E).
    max_scan_length: int = 20
    #: Operations between hot-set rotations per request stream
    #: (0 = static hot set; the classic YCSB behaviour).
    hotspot_interval: int = 0
    #: Fraction of the keyspace the hot set shifts at each rotation.
    hot_set_drift: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` for inconsistent parameters."""
        if self.num_records < 1:
            raise ConfigError("num_records must be >= 1")
        if self.max_scan_length < 1:
            raise ConfigError("max_scan_length must be >= 1")
        if self.hotspot_interval < 0:
            raise ConfigError("hotspot_interval must be >= 0")
        if not 0.0 <= self.hot_set_drift <= 1.0:
            raise ConfigError("hot_set_drift must be in [0, 1]")
        known = {"read", "update", "insert", "scan", "rmw"}
        unknown = set(self.mix) - known
        if unknown:
            raise ConfigError(f"unknown operations in mix: {sorted(unknown)}")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"operation mix must sum to 1, got {total}")

    @classmethod
    def preset(cls, name: str, **overrides) -> "YcsbParams":
        """Build the standard workload ``name`` ('a'..'f')."""
        try:
            mix = dict(PRESETS[name.lower()])
        except KeyError:
            raise ConfigError(f"unknown YCSB preset {name!r}") from None
        return cls(mix=mix, **overrides)


class YcsbChaincode(Chaincode):
    """Smart contract implementing the five YCSB operations."""

    name = "ycsb"

    def invoke(self, stub: ChaincodeStub, function: str, args: tuple) -> object:
        handler = getattr(self, f"_{function}", None)
        if handler is None:
            raise ChaincodeError(f"ycsb has no operation {function!r}")
        return handler(stub, *args)

    def operation_count(self, function: str, args: tuple) -> int:
        if function == "scan":
            return 1 + args[1]  # start lookup + one per scanned record
        if function == "rmw":
            return 2
        return 1

    def _read(self, stub, key):
        return stub.get_state(key)

    def _update(self, stub, key, value):
        stub.put_state(key, value)

    def _insert(self, stub, key, value):
        stub.put_state(key, value)

    def _scan(self, stub, start_key, count):
        results = stub.get_state_by_range(start_key, None)
        return results[:count]

    def _rmw(self, stub, key, delta):
        value = stub.get_state(key) or 0
        stub.put_state(key, value + delta)
        return value + delta


class YcsbWorkload(Workload):
    """Invocation stream for a YCSB operation mix."""

    chaincode_name = YcsbChaincode.name

    def __init__(self, params: Optional[YcsbParams] = None, seed: int = 0) -> None:
        self.params = params or YcsbParams()
        self.params.validate()
        self._seed = seed
        #: Request keys for every client stream of this workload.
        self._records = ZipfSampler(self.params.num_records, self.params.s_value)
        #: Per-stream ``[operations, shift]`` hot-set drift state, keyed
        #: by ``id(rng)`` (the sampler holds each stream's ``Rng``, so the
        #: id is never reused); only populated when drift is active.
        self._hotspots: Dict[int, list] = {}
        #: Monotonic id source for inserted records (continues after the
        #: initial load, as in YCSB's ordered insert key chooser).
        self._next_insert_id = self.params.num_records
        # Precompute the cumulative mix for O(ops) selection.
        self._operations = sorted(self.params.mix)
        cumulative = 0.0
        self._thresholds = []
        for operation in self._operations:
            cumulative += self.params.mix[operation]
            self._thresholds.append(cumulative)

    def create_chaincode(self) -> Chaincode:
        return YcsbChaincode()

    def initial_state(self) -> Dict[str, object]:
        values = Rng(self._seed).randints(0, 1_000_000, self.params.num_records)
        return {
            record_key(record_id): value for record_id, value in enumerate(values)
        }

    def _pick_record(self, rng: Rng) -> int:
        record = self._records.sample(rng)
        interval = self.params.hotspot_interval
        if interval and self.params.hot_set_drift:
            state = self._hotspots.get(id(rng))
            if state is None:
                state = self._hotspots[id(rng)] = [0, 0]
            if state[0] and state[0] % interval == 0:
                step = int(self.params.hot_set_drift * self.params.num_records)
                state[1] = (state[1] + step) % self.params.num_records
            state[0] += 1
            record = (record + state[1]) % self.params.num_records
        return record

    def _pick_operation(self, rng: Rng) -> str:
        draw = rng.random()
        for operation, threshold in zip(self._operations, self._thresholds):
            if draw < threshold:
                return operation
        return self._operations[-1]

    def next_invocation(self, rng: Rng) -> Invocation:
        operation = self._pick_operation(rng)
        if operation == "read":
            return Invocation("read", (record_key(self._pick_record(rng)),))
        if operation == "update":
            return Invocation(
                "update",
                (record_key(self._pick_record(rng)), rng.randint(0, 1_000_000)),
            )
        if operation == "insert":
            record_id = self._next_insert_id
            self._next_insert_id += 1
            return Invocation(
                "insert", (record_key(record_id), rng.randint(0, 1_000_000))
            )
        if operation == "scan":
            length = rng.randint(1, self.params.max_scan_length)
            return Invocation(
                "scan", (record_key(self._pick_record(rng)), length)
            )
        # read-modify-write
        return Invocation(
            "rmw", (record_key(self._pick_record(rng)), rng.randint(1, 100))
        )
