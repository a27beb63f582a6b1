"""Shared tolerance defaults and environment overrides.

Every verdict this package produces depends on explicit tolerances;
they are configuration, not constants buried in the code. Reports
always embed the values actually used.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, replace

#: Residual bound for computed left-eigenpairs, relative to ||A||.
DEFAULT_RESIDUAL_TOL = 1e-8
#: Minimum eigenvalue separation, relative to the largest eigenvalue modulus.
DEFAULT_GAP_TOL = 1e-9
#: Zero threshold for pattern extraction, relative to the largest entry.
DEFAULT_ZERO_TOL = 1e-9
#: Orthogonality threshold for inner-product checks, relative scale.
DEFAULT_TAU = 1e-10

_ENV_PREFIX = "MINCONTROL_TOL_"


def check_tolerance(name: str, value: float, zero_ok: bool = False) -> None:
    """Raise ValueError unless ``value`` is positive (nonnegative when
    ``zero_ok``) and finite; comparisons with NaN are false, so NaN fails."""
    above = 0 <= value if zero_ok else 0 < value
    if not (above and value < math.inf):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {sign} and finite")


@dataclass(frozen=True)
class Tolerances:
    """Bundle of the five tolerances used across the pipeline.

    Every tolerance must be finite and of the right sign, or a
    ValueError names it.

    ``rank_tol=None`` means the staircase default ``4 * n * eps``
    (relative to ||sA||_F, A scaled by a power of two; see
    ``verify.staircase``).
    """

    residual_tol: float = DEFAULT_RESIDUAL_TOL
    gap_tol: float = DEFAULT_GAP_TOL
    rank_tol: float | None = None
    zero_tol: float = DEFAULT_ZERO_TOL
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        for name in ("residual_tol", "gap_tol", "tau"):
            check_tolerance(name, getattr(self, name))
        check_tolerance("zero_tol", self.zero_tol, zero_ok=True)
        if self.rank_tol is not None:
            check_tolerance("rank_tol", self.rank_tol)

    @classmethod
    def from_env(cls, environ=None) -> "Tolerances":
        """Defaults overridden by MINCONTROL_TOL_{RESIDUAL,GAP,RANK,ZERO,ORTHO}."""
        environ = os.environ if environ is None else environ
        names = {
            "RESIDUAL": "residual_tol",
            "GAP": "gap_tol",
            "RANK": "rank_tol",
            "ZERO": "zero_tol",
            "ORTHO": "tau",
        }
        overrides = {}
        for env_key, field in names.items():
            raw = environ.get(_ENV_PREFIX + env_key)
            if raw is not None:
                try:
                    overrides[field] = float(raw)
                except ValueError as exc:
                    raise ValueError(
                        f"{_ENV_PREFIX}{env_key}={raw!r} is not a number"
                    ) from exc
        return cls(**overrides)

    def replace(self, **changes) -> "Tolerances":
        changes = {k: v for k, v in changes.items() if v is not None}
        return replace(self, **changes)

    def as_dict(self) -> dict:
        return asdict(self)
