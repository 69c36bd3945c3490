"""Problem instances: equation coefficients, boundary conditions, initial data.

The evolution law is

    u_t - a(t,x,u,u_x) u_xx = f(t,x,u,u_x) [+ f1(t,x,u,u_x)]   on (0,T) x (-ell, ell)

with, at each endpoint, either a dynamical condition

    u_t + b u_x = g [+ g1]   at x = +ell        u_t - b u_x = g [+ g1]   at x = -ell

(the sign makes +/- u_x the outward derivative) or a Dirichlet pin
u = value(t).  All coefficients are Expr trees in (t, x, z, p) where z is
the solution value and p its gradient.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import ConfigError
from .expr import Expr, free_variables, parse

__all__ = ["DynamicBC", "DirichletBC", "BoundaryCondition", "End", "ProblemSpec", "spec_value",
           "spec_keys"]

_KINDS = {bool: "true or false", int: "an integer", float: "a number",
          str: "a string", list: "a list", dict: "an object"}


def spec_value(value, kind: type, name: str, *, infinite: bool = False):
    """``value`` read from a spec file as ``kind``, or a ConfigError naming
    ``name``; a number may be an integer, and only true or false is a bool.
    A number must be finite, unless ``infinite`` (a key whose infinity
    means something): inf or nan certifies and solves nothing."""
    if kind is float and type(value) is int:  # an integer past the float range reads as inf
        value = (float(value) if abs(value) <= sys.float_info.max
                 else math.inf if value > 0 else -math.inf)
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        if kind is float and not (infinite or math.isfinite(value)):
            raise ConfigError(f"{name} must be a finite number, got {json.dumps(value)}")
        return value
    raise ConfigError(f"{name} must be {_KINDS[kind]}, got {json.dumps(value)}")


def spec_keys(block: dict, keys, name: str) -> dict:
    """``block``, an object of a spec file, when each of its keys is one of
    ``keys``; else a ConfigError naming ``name`` and the first other key.
    Every key is read, so a misspelt one is refused, not dropped."""
    for key in block:
        if key not in keys:
            raise ConfigError(f"unknown {name} key {key!r}; the keys are {' '.join(keys)}")
    return block


# the keys of a spec file, the workflow blocks the commands read included,
# and of each kind of boundary condition
_SPEC_KEYS = ("ell", "T", "a", "f", "f1", "u0", "bc_minus", "bc_plus",
              "certificate", "sup_bound", "solver", "sweep")
_BC_KEYS = {"dynamic": ("kind", "b", "g", "g1"), "dirichlet": ("kind", "value")}


@dataclass(frozen=True)
class DynamicBC:
    b: Expr
    g: Expr
    g1: Expr | None = None

    kind = "dynamic"


@dataclass(frozen=True)
class DirichletBC:
    value: Expr  # function of t only

    kind = "dirichlet"


BoundaryCondition = Union[DynamicBC, DirichletBC]


class End(NamedTuple):
    """An end of the interval: its abscissa, its boundary condition, the
    sign that makes outward * u_x the outward derivative, and its label."""

    x: float
    bc: BoundaryCondition
    outward: float
    label: str


@dataclass(frozen=True)
class ProblemSpec:
    ell: float
    T: float
    a: Expr
    f: Expr
    u0: Expr
    bc_minus: BoundaryCondition
    bc_plus: BoundaryCondition
    f1: Expr | None = None

    def __post_init__(self):
        if not (math.isfinite(self.ell) and self.ell > 0):
            raise ConfigError(f"ell must be positive and finite, got {self.ell}")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ConfigError(f"T must be positive and finite, got {self.T}")
        bad = free_variables(self.u0) - {"x"}
        if bad:
            raise ConfigError(f"u0 may depend on x only, found {sorted(bad)}")
        for side, bc in (("bc_minus", self.bc_minus), ("bc_plus", self.bc_plus)):
            if isinstance(bc, DirichletBC):
                bad = free_variables(bc.value) - {"t"}
                if bad:
                    raise ConfigError(f"{side} Dirichlet value may depend on t only, found {sorted(bad)}")

    @property
    def ends(self) -> tuple[End, End]:
        """The two ends, +ell first.  Each abscissa is a numpy scalar, so a
        kernel called there gives inf/nan where Python float arithmetic
        raises (``1/(x-1)`` at ell = 1)."""
        ell = np.float64(self.ell)
        return (End(ell, self.bc_plus, 1.0, "+ell"), End(-ell, self.bc_minus, -1.0, "-ell"))

    @property
    def has_split_rhs(self) -> bool:
        if self.f1 is not None:
            return True
        return any(isinstance(end.bc, DynamicBC) and end.bc.g1 is not None
                   for end in self.ends)

    # ------------------------------------------------------------------
    # JSON wire format (expression strings)

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemSpec":
        def expr(text, name: str) -> Expr:
            return parse(spec_value(text, str, name))

        def bc(key: str) -> BoundaryCondition:
            raw = d.get(key)
            if raw is None:
                raise ConfigError(f"missing boundary condition {key!r}")
            raw = spec_value(raw, dict, key)
            kind = raw.get("kind", "dynamic")
            if kind == "dynamic":
                spec_keys(raw, _BC_KEYS[kind], key)
                g1 = raw.get("g1")
                return DynamicBC(b=expr(raw["b"], f"{key}.b"), g=expr(raw["g"], f"{key}.g"),
                                 g1=expr(g1, f"{key}.g1") if g1 is not None else None)
            if kind == "dirichlet":
                spec_keys(raw, _BC_KEYS[kind], key)
                return DirichletBC(value=expr(raw.get("value", "0"), f"{key}.value"))
            raise ConfigError(f"unknown boundary kind {kind!r}")

        spec_keys(d, _SPEC_KEYS, "spec")
        try:
            f1 = d.get("f1")
            return cls(
                ell=spec_value(d["ell"], float, "ell"), T=spec_value(d["T"], float, "T"),
                a=expr(d["a"], "a"), f=expr(d.get("f", "0"), "f"),
                u0=expr(d["u0"], "u0"),
                bc_minus=bc("bc_minus"), bc_plus=bc("bc_plus"),
                f1=expr(f1, "f1") if f1 is not None else None,
            )
        except KeyError as exc:
            raise ConfigError(f"problem spec missing field {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "ProblemSpec":
        return cls.from_dict(json.loads(text))
