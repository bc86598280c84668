"""``repro.validation`` — the peer's pluggable validation/commit stage.

One block loop, :class:`repro.validation.validator.BlockValidator`,
owns fetch, verify-ahead, locking, commit, spans and statistics. A
*concurrency-control strategy* (:mod:`repro.validation.registry`, which
has the table of the built-in ones) picks the policies it runs with
(:mod:`repro.validation.policies`): when the block's transactions are
checked, against what, and who pays for signature verification
(:class:`repro.validation.workers.VerifyWorkerPool` when it is modelled
lanes). The default, ``serial``, is bit-identical to the pre-pipeline
build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.validation.registry import (
    StrategyInfo,
    get_strategy,
    register_strategy,
    strategy_names,
)
from repro.validation.validator import BlockValidator
from repro.validation.workers import VALIDATE_PRIORITY, VerifyWorkerPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer

__all__ = [
    "BlockValidator",
    "StrategyInfo",
    "VALIDATE_PRIORITY",
    "VerifyWorkerPool",
    "build_validator",
    "get_strategy",
    "register_strategy",
    "strategy_names",
]


def build_validator(peer: "Peer", channel: str) -> Generator:
    """Return the validator generator for ``peer`` on ``channel``."""
    strategy = get_strategy(peer.config.cc_strategy)
    return BlockValidator(peer, channel, strategy).run()
