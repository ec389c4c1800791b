"""Bounds declared once, on dataclass fields: a :func:`checked` class checks them when built, and the
config tables of :mod:`vehsim.scenario` read them to refuse a value with its key and line."""

import math
from dataclasses import MISSING, dataclass, field, fields

RULES = {"finite": lambda v: -math.inf < v < math.inf, ">= 0": lambda v: 0 <= v < math.inf,
         "> 0": lambda v: 0 < v < math.inf}  # each implies finite


def bounded(rule: str, default: object = MISSING):
    """A dataclass field whose value must meet ``rule``, a key of :data:`RULES`."""
    return field(default=default, metadata={"bound": rule})


def checked(cls: type) -> type:
    """``@dataclass(frozen=True)`` whose instances, when built, raise ``ValueError`` naming the first field
    out of its bound as ``Class.field``, then run the class's ``__post_init__``; None meets a None default."""
    own = cls.__dict__.get("__post_init__", lambda self: None)

    def __post_init__(self) -> None:
        for name, within, optional, message in declared:
            value = getattr(self, name)
            if not (optional and value is None) and not within(value):
                raise ValueError(f"{message}, got {value!r}")
        own(self)

    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True)(cls)
    declared = [(f.name, RULES[rule], f.default is None,
                 f"{cls.__name__}.{f.name} must be finite" + ("" if rule == "finite" else f" and {rule}"))
                for f in fields(cls) if (rule := f.metadata.get("bound"))]
    return cls
