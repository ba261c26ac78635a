"""Run configuration: the solver node budget, the pushout candidate count,
the improvement step cap and the sampling seed, in one round-trippable
record.  The CLI reads it from --config or the HCFILL_CONFIG environment
variable."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields

from .content import DEFAULT_NODE_BUDGET
from .errors import InputError
from .pushout import DEFAULT_CANDIDATES


@dataclass(frozen=True)
class RunConfig:
    """Every field is an integer; all but `seed` must be positive."""

    node_budget: int = DEFAULT_NODE_BUDGET
    pushout_candidates: int = DEFAULT_CANDIDATES
    step_cap: int = 50
    seed: int = 0  # read by cone coverage sampling

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                raise InputError(f"config knob {f.name} must be a number, not a bool")
            if not isinstance(v, int):
                raise InputError(f"config knob {f.name} must be an integer")
            if f.name != "seed" and v <= 0:
                raise InputError(f"config knob {f.name} must be positive")
        if self.seed < 0:
            raise InputError("seed must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
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
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except FileNotFoundError:
            raise InputError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})")

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
