"""The paper's custom configurable workload (Section 6.2.2, Table 7).

A single transaction type performs a configurable number of read and write
accesses (RW) over N account balances. A subset of the accounts — HSS
percent of them — are *hot*: each read access picks a hot account with
probability HR, each write access with probability HW. Hot-set contention
is what drives the serialization conflicts that Figures 1, 9, 10, and 11
study.

Reads and writes draw their accounts independently, so read and write sets
can be non-overlapping — the regime in which the paper notes Fabric++'s
reordering shines ("for the workload that potentially has non-overlapping
read and write sets, Fabric++ is able to re-organize the transaction block
to minimize the number of unnecessary aborts", Section 6.4.3).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ChaincodeError, ConfigError
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.sim.distributions import Rng
from repro.workloads.base import Invocation, Workload


def account_key(account: int) -> str:
    """State key of one account balance."""
    return f"acc_{account}"


@dataclass(frozen=True)
class CustomWorkloadParams:
    """The five knobs of Table 7 (plus the account count N)."""

    #: Number of account balances (N).
    num_accounts: int = 10_000
    #: Reads and writes per transaction (RW).
    reads_writes: int = 4
    #: Probability that a read access picks a hot account (HR).
    prob_hot_read: float = 0.1
    #: Probability that a write access picks a hot account (HW).
    prob_hot_write: float = 0.05
    #: Fraction of accounts that are hot (HSS), e.g. 0.01 for 1%.
    hot_set_fraction: float = 0.01

    def validate(self) -> None:
        """Raise :class:`ConfigError` for out-of-range parameters."""
        if self.num_accounts < 1:
            raise ConfigError("num_accounts must be >= 1")
        if self.reads_writes < 1:
            raise ConfigError("reads_writes must be >= 1")
        for name in ("prob_hot_read", "prob_hot_write", "hot_set_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be within [0, 1], got {value}")
        if int(self.num_accounts * self.hot_set_fraction) < 1:
            raise ConfigError("hot set is empty; increase hot_set_fraction or N")

    @property
    def hot_set_size(self) -> int:
        """Number of hot accounts."""
        return max(1, int(self.num_accounts * self.hot_set_fraction))


class CustomChaincode(Chaincode):
    """Reads a set of accounts, then writes derived values to another set."""

    name = "custom"

    def __init__(self, keys: Sequence[str]) -> None:
        """``keys[account]`` is the state key of ``account``."""
        self._keys = keys

    def invoke(self, stub: ChaincodeStub, function: str, args: tuple) -> object:
        if function != "readwrite":
            raise ChaincodeError(f"custom chaincode has no function {function!r}")
        read_accounts, write_accounts, delta = args
        keys, get_state = self._keys, stub.get_state
        total = 0
        for account in read_accounts:
            total += get_state(keys[account]) or 0
        checksum = (total + delta) % 1_000_003
        put_state = stub.put_state
        for offset, account in enumerate(write_accounts):
            put_state(keys[account], checksum + offset)
        return checksum

    def operation_count(self, function: str, args: tuple) -> int:
        read_accounts, write_accounts, _delta = args
        return len(read_accounts) + len(write_accounts)


class CustomWorkload(Workload):
    """Invocation stream for the custom hot-account workload."""

    chaincode_name = CustomChaincode.name

    def __init__(
        self,
        params: CustomWorkloadParams = CustomWorkloadParams(),
        seed: int = 0,
    ) -> None:
        params.validate()
        self.params = params
        self._seed = seed
        self._hot_size = params.hot_set_size
        #: The N account keys, built once: the genesis state and the
        #: chaincode share these very strings.
        self._keys = tuple(
            sys.intern(account_key(account))
            for account in range(params.num_accounts)
        )

    def create_chaincode(self) -> Chaincode:
        return CustomChaincode(self._keys)

    def initial_state(self) -> Dict[str, object]:
        values = Rng(self._seed).randints(0, 100_000, len(self._keys))
        return dict(zip(self._keys, values))

    def next_invocation(self, rng: Rng) -> Invocation:
        """RW distinct read accounts, RW distinct write accounts, a delta.

        Each pick is hot with probability HR (reads) or HW (writes),
        drawing from ``[0, hot)``, else from the cold rest ``[hot, N)``
        (all of ``[0, N)`` when every account is hot); a repeat within
        the list is re-drawn.
        """
        params = self.params
        randint, random = rng.randint, rng.random
        hot_high = self._hot_size - 1
        last = params.num_accounts - 1
        cold_low = self._hot_size if self._hot_size <= last else 0
        accounts: List[List[int]] = []
        for hot_probability in (params.prob_hot_read, params.prob_hot_write):
            picked: List[int] = []
            for _ in range(params.reads_writes):
                while True:
                    if random() < hot_probability:
                        account = randint(0, hot_high)
                    else:
                        account = randint(cold_low, last)
                    if account not in picked:
                        break
                picked.append(account)
            accounts.append(picked)
        reads, writes = accounts
        delta = randint(1, 1000)
        return Invocation("readwrite", (tuple(reads), tuple(writes), delta))
