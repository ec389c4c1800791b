"""Rules stated once, on the record: a :func:`checked` class raises :class:`FieldError` when built with a
field out of its bound or against one of its own rules.  The config tables of :mod:`vehsim.scenario` read
the bounds, and ``load_config`` reports a :class:`FieldError` at the key and line that set the field."""

import math
from dataclasses import MISSING, dataclass, field, fields

RULES = {"finite": lambda v: -math.inf < v < math.inf, ">= 0": lambda v: 0 <= v < math.inf,
         "> 0": lambda v: 0 < v < math.inf}  # each implies finite


class FieldError(ValueError):
    """A record's refusal of one of its fields: ``str()`` reads ``Class.field reason``."""

    def __init__(self, owner: str, name: str, reason: str) -> None:
        super().__init__(f"{owner}.{name} {reason}")
        self.field = name
        self.reason = reason


def bounded(rule: str, default: object = MISSING):
    """A dataclass field whose value must meet ``rule``, a key of :data:`RULES`."""
    return field(default=default, metadata={"bound": rule})


def checked(cls: type) -> type:
    """``@dataclass(frozen=True)`` whose instances, when built, raise :class:`FieldError` for the first field
    out of its bound, then run the class's ``__post_init__``; None meets a None default."""
    own = cls.__dict__.get("__post_init__", lambda self: None)

    def __post_init__(self) -> None:
        for name, within, optional, reason in declared:
            value = getattr(self, name)
            if not (optional and value is None) and not within(value):
                raise FieldError(cls.__name__, name, f"{reason}, got {value!r}")
        own(self)

    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True)(cls)
    declared = [(f.name, RULES[rule], f.default is None,
                 "must be finite" + ("" if rule == "finite" else f" and {rule}"))
                for f in fields(cls) if (rule := f.metadata.get("bound"))]
    return cls
