"""One decoder for every dataclass tree the package persists.

Configurations, fault schedules, metrics stat blocks and experiment
specs are written in their ``asdict`` form (after a JSON round trip,
tuples have become lists). :func:`load_dataclass` rebuilds any of them
from that form, driven by the field type hints, so no class needs a
hand-written ``from_dict`` and a new field needs no decoding code.

Scalars are checked, never converted: an int is accepted where a float
is declared and stays an int, so a re-serialised snapshot keeps its
bytes. Unknown keys, missing required keys and wrong types raise
:class:`~repro.errors.ConfigError` naming the dotted path, e.g.
``faults.crashes[0].at: expected float, got str '0.5'``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from functools import lru_cache
from typing import Any, Union, get_args, get_origin, get_type_hints

from repro.errors import ConfigError


@lru_cache(maxsize=None)
def _fields(cls: type) -> tuple:
    """``(name -> type hint, required names)`` of a dataclass's init fields."""
    hints = get_type_hints(cls)
    fields = [field for field in dataclasses.fields(cls) if field.init]
    required = {
        field.name
        for field in fields
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    }
    return {field.name: hints[field.name] for field in fields}, required


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}" if path else message)


def load_dataclass(cls: type, data: object, path: str = ""):
    """Rebuild dataclass ``cls`` from its ``asdict`` form ``data``.

    An instance of ``cls`` passes through unchanged. ``path`` prefixes
    every error message (the dotted location of ``data`` in a larger
    document). A ``Union`` decodes as its first arm, so ``Optional[X]``
    is ``X`` or ``None``.
    """
    if isinstance(data, cls):
        return data
    if not isinstance(data, dict):
        raise _fail(path, f"expected {cls.__name__} object, got {type(data).__name__}")
    hints, required = _fields(cls)
    for problem, keys in (
        ("unknown", set(data) - set(hints)),
        ("missing", required - set(data)),
    ):
        if keys:
            raise _fail(path, f"{problem} key(s) " + ", ".join(map(repr, sorted(keys))))
    prefix = f"{path}." if path else ""
    return cls(**{
        name: load_value(hints[name], value, prefix + name)
        for name, value in data.items()
    })


def load_value(hint: object, value: object, path: str) -> object:
    """``value`` decoded as type ``hint``; raises naming ``path``."""
    if hint is object or hint is Any:
        return value
    if dataclasses.is_dataclass(hint):
        return load_dataclass(hint, value, path)
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        if value is None and type(None) in args:
            return None
        return load_value(args[0], value, path)
    if origin is tuple or origin is list:
        if not isinstance(value, (list, tuple)):
            raise _fail(path, f"expected a list, got {type(value).__name__}")
        items = [
            load_value(args[0], item, f"{path}[{i}]")
            for i, item in enumerate(value)
        ]
        return tuple(items) if origin is tuple else items
    if origin is dict or origin is Mapping:
        if not isinstance(value, dict):
            raise _fail(path, f"expected an object, got {type(value).__name__}")
        return {
            load_value(args[0], key, path):
                load_value(args[1], item, f"{path}.{key}")
            for key, item in value.items()
        }
    # A scalar. bool is an int subclass, so it matches only a bool hint;
    # an int is a valid float and stays an int.
    accepted = (int, float) if hint is float else hint
    if isinstance(value, accepted) and (hint is bool or not isinstance(value, bool)):
        return value
    raise _fail(path, f"expected {hint.__name__}, got {type(value).__name__} {value!r}")
