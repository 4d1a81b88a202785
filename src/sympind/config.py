"""Runtime configuration for the command-line pipelines.

A RunConfig collects the numerical knobs shared across subcommands
(tolerances, grid sizes, the corpus seed) plus the output format.  The
defaults equal the module-level constants, so library and CLI runs with
untouched settings agree bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .errors import InvalidInput
from .flows import TOL_CRIT
from .linalg import TOL_EIG, TOL_SV
from .specflow import GALERKIN_MODES

SAMPLE_HINT = 512
OUTPUT_FORMATS = ("text", "json")

_TOL_FIELDS = ("tol_sv", "tol_eig", "tol_crit")
_COUNT_FIELDS = ("sample_hint", "fourier_modes", "seed")


def load_json_object(path: str, name: Optional[str] = None) -> dict:
    """The JSON object in the file at path.

    Raises InvalidInput when the file cannot be read, is not JSON, or
    holds something other than an object; messages call it name (default
    the path).
    """
    name = path if name is None else name
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {name}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{name} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInput(f"{name} must contain a JSON object")
    return data


@dataclass(frozen=True)
class RunConfig:
    tol_sv: float = TOL_SV
    tol_eig: float = TOL_EIG
    tol_crit: float = TOL_CRIT
    sample_hint: int = SAMPLE_HINT
    fourier_modes: int = GALERKIN_MODES
    seed: int = 0
    output_format: str = "text"

    def __post_init__(self):
        for name in _TOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise InvalidInput(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value) or value <= 0.0:
                raise InvalidInput(f"{name} must be a positive real, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                if isinstance(value, float) and value.is_integer():
                    value = int(value)
                else:
                    raise InvalidInput(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, value)
        if self.sample_hint < 16:
            raise InvalidInput(f"sample_hint must be >= 16, got {self.sample_hint}")
        if self.fourier_modes < 1:
            raise InvalidInput("fourier_modes must be positive")
        if self.seed < 0:
            raise InvalidInput(f"seed must be unsigned, got {self.seed}")
        if self.output_format not in OUTPUT_FORMATS:
            raise InvalidInput(
                f"output_format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}")

    def replace(self, **changes: Any) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "RunConfig":
        if not isinstance(data, Mapping):
            raise InvalidInput("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise InvalidInput(f"unknown config keys: {', '.join(unknown)}")
        return cls(**dict(data))

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        return cls.from_mapping(load_json_object(path, f"config file {path}"))

    def to_json_obj(self) -> dict:
        return dataclasses.asdict(self)
