"""Run configuration: every tolerance, budget and constant knob in one
round-trippable record.  The CLI reads it from --config or the HCFILL_CONFIG
environment variable."""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields

from .errors import InputError
from .exact import TOL


@dataclass(frozen=True)
class RunConfig:
    tolerance: float = TOL
    node_budget: int = 10**6
    # pushout knobs: c0(k) = c0_base^k, projection-ratio ceiling =
    # ratio_ceiling_base * 2^k
    c0_base: float = 0.25
    ratio_ceiling_base: float = 10.0
    pushout_candidates: int = 64
    step_cap: int = 50
    seed: int = 0  # read by cone coverage sampling

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                raise InputError(f"config knob {f.name} must be a number, not a bool")
            if isinstance(f.default, int):
                if not isinstance(v, int):
                    raise InputError(f"config knob {f.name} must be an integer")
            elif not isinstance(v, (int, float)) or not math.isfinite(v):
                raise InputError(f"config knob {f.name} must be a finite number")
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
