"""Standard (key-equality) blocking."""

from __future__ import annotations

from repro.core.record import Record
from repro.linkage.blocking.base import KeyBlocker, KeyFunction, keys_of

__all__ = ["StandardBlocker"]


class StandardBlocker(KeyBlocker):
    """Records sharing a blocking key form a block.

    The cheapest and most brittle scheme: recall depends entirely on the
    key never being corrupted. Use multi-valued key functions (e.g.
    :func:`repro.linkage.blocking.keys.token_set_key`) for redundancy.
    """

    name = "standard"

    def __init__(self, key_function: KeyFunction) -> None:
        super().__init__()
        self._key_function = key_function

    def record_keys(self, record: Record) -> list[str]:
        """The key function's usable keys, each once, in first-seen order
        (``token_set_key`` on ``"canon canon 5d"`` names ``canon`` twice)."""
        return list(dict.fromkeys(keys_of(self._key_function, record)))
