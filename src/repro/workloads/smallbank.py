"""The Smallbank benchmark (paper Section 6.2.2, H-Store origin).

Each user owns a checking account and a savings account, initialised with
random balances. Six transactions operate on them:

- ``TransactSavings`` — increase a savings account;
- ``DepositChecking`` — increase a checking account;
- ``SendPayment`` — transfer between two checking accounts;
- ``WriteCheck`` — decrease a checking account (after checking the total
  balance, so it reads both accounts);
- ``Amalgamate`` — move all savings funds into the checking account;
- ``Query`` — read both accounts of one user (read-only).

A run picks one of the five modifying transactions with probability ``Pw``
(uniformly among the five) and ``Query`` with probability ``1 - Pw``;
accounts are selected by a Zipfian distribution with configurable s-value
(paper Table 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ChaincodeError
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.sim.distributions import Rng, ZipfSampler
from repro.workloads.base import Invocation, Workload

MODIFYING_FUNCTIONS = (
    "transact_savings",
    "deposit_checking",
    "send_payment",
    "write_check",
    "amalgamate",
)


def checking_key(customer: int) -> str:
    """State key of a customer's checking account."""
    return f"checking_{customer}"


def savings_key(customer: int) -> str:
    """State key of a customer's savings account."""
    return f"savings_{customer}"


class SmallbankChaincode(Chaincode):
    """Smart contract implementing the six Smallbank transactions."""

    name = "smallbank"

    def invoke(self, stub: ChaincodeStub, function: str, args: tuple) -> object:
        handler = getattr(self, f"_{function}", None)
        if handler is None:
            raise ChaincodeError(f"smallbank has no function {function!r}")
        return handler(stub, *args)

    def operation_count(self, function: str, args: tuple) -> int:
        if function == "send_payment":
            return 4
        if function in ("write_check", "amalgamate", "query"):
            return 4 if function != "write_check" else 3
        return 2

    # -- the six transactions ---------------------------------------------------

    def _transact_savings(self, stub: ChaincodeStub, customer: int, amount: int):
        balance = stub.get_state(savings_key(customer)) or 0
        stub.put_state(savings_key(customer), balance + amount)

    def _deposit_checking(self, stub: ChaincodeStub, customer: int, amount: int):
        balance = stub.get_state(checking_key(customer)) or 0
        stub.put_state(checking_key(customer), balance + amount)

    def _send_payment(
        self, stub: ChaincodeStub, source: int, destination: int, amount: int
    ):
        source_balance = stub.get_state(checking_key(source)) or 0
        destination_balance = stub.get_state(checking_key(destination)) or 0
        stub.put_state(checking_key(source), source_balance - amount)
        stub.put_state(checking_key(destination), destination_balance + amount)

    def _write_check(self, stub: ChaincodeStub, customer: int, amount: int):
        checking = stub.get_state(checking_key(customer)) or 0
        savings = stub.get_state(savings_key(customer)) or 0
        # Overdraft penalty follows the H-Store specification.
        penalty = 1 if amount > checking + savings else 0
        stub.put_state(checking_key(customer), checking - amount - penalty)

    def _amalgamate(self, stub: ChaincodeStub, customer: int):
        savings = stub.get_state(savings_key(customer)) or 0
        checking = stub.get_state(checking_key(customer)) or 0
        stub.put_state(savings_key(customer), 0)
        stub.put_state(checking_key(customer), checking + savings)

    def _query(self, stub: ChaincodeStub, customer: int):
        checking = stub.get_state(checking_key(customer)) or 0
        savings = stub.get_state(savings_key(customer)) or 0
        return checking + savings


@dataclass(frozen=True)
class SmallbankParams:
    """Configuration of a Smallbank run (paper Table 6)."""

    num_users: int = 100_000
    #: Probability of firing a modifying transaction (Pw).
    prob_write: float = 0.95
    #: Zipf skew for account selection; 0 is uniform.
    s_value: float = 0.0
    #: Initial balance bounds.
    min_balance: int = 100
    max_balance: int = 50_000


class SmallbankWorkload(Workload):
    """Invocation stream + initial accounts for Smallbank."""

    chaincode_name = SmallbankChaincode.name

    def __init__(self, params: SmallbankParams = SmallbankParams(), seed: int = 0) -> None:
        self.params = params
        self._seed = seed
        #: Account selection for every client stream of this workload.
        self._accounts = ZipfSampler(params.num_users, params.s_value)

    def create_chaincode(self) -> Chaincode:
        return SmallbankChaincode()

    def initial_state(self) -> Dict[str, object]:
        params = self.params
        # Checking then savings, customer by customer: one stream of draws.
        balances = Rng(self._seed).randints(
            params.min_balance, params.max_balance, 2 * params.num_users
        )
        state: Dict[str, object] = {}
        for customer in range(params.num_users):
            state[checking_key(customer)] = balances[2 * customer]
            state[savings_key(customer)] = balances[2 * customer + 1]
        return state

    def _customer(self, rng: Rng) -> int:
        return self._accounts.sample(rng)

    def next_invocation(self, rng: Rng) -> Invocation:
        customer = self._customer(rng)
        if not rng.bernoulli(self.params.prob_write):
            return Invocation("query", (customer,))
        function = MODIFYING_FUNCTIONS[rng.randint(0, 4)]
        if function == "send_payment":
            destination = self._customer(rng)
            if destination == customer:
                destination = (customer + 1) % self.params.num_users
            return Invocation(
                "send_payment", (customer, destination, rng.randint(1, 100))
            )
        if function == "amalgamate":
            return Invocation("amalgamate", (customer,))
        return Invocation(function, (customer, rng.randint(1, 100)))
