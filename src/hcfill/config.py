"""Run configuration: the solver node budget, the pushout candidate count
and the improvement step cap, in one record.  The CLI reads it from
--config or the HCFILL_CONFIG environment variable."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .content import DEFAULT_NODE_BUDGET
from .errors import InputError
from .pushout import DEFAULT_CANDIDATES
from .space import load_json


@dataclass(frozen=True)
class RunConfig:
    """Every field is a positive integer."""

    node_budget: int = DEFAULT_NODE_BUDGET
    pushout_candidates: int = DEFAULT_CANDIDATES
    step_cap: int = 50

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                raise InputError(f"config knob {f.name} must be a number, not a bool")
            if not isinstance(v, int):
                raise InputError(f"config knob {f.name} must be an integer")
            if v <= 0:
                raise InputError(f"config knob {f.name} must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise InputError("a config document must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def load(cls, path: str | None = None) -> "RunConfig":
        path = path or os.environ.get("HCFILL_CONFIG")
        if not path:
            return cls()
        try:
            return cls.from_dict(load_json(path))
        except FileNotFoundError:
            raise InputError(f"config file not found: {path}")
