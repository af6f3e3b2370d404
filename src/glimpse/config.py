"""Run configuration: one flat dataclass, JSON in, a command's flags on top.

A ``RunConfig`` is frozen and checked in ``__post_init__``: however it is
made (``from_file``, ``desk_config``, ``dataclasses.replace``), it is valid.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The dtype a model's parameters, activations and episode frames are held in.
# The finite-difference oracle builds its modules in float64 instead.
COMPUTE_DTYPE = np.float32

SAMPLERS = ("sparse", "uniform", "soft")
FUSIONS = ("la_gate", "cross_attention")
REFINERS = ("gated", "plain")

# The values each declared field type takes: numpy scalars count, bool does not.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


@dataclass(frozen=True)
class RunConfig:
    # architecture sizes (reference scale; desk runs override)
    n_frames: int = 100          # dense frames per video
    k_select: int = 16           # frames kept by the sampler
    depth: int = 3               # stacked blocks in sampler and refiner
    dim: int = 1024              # hidden size
    heads: int = 8               # attention heads everywhere
    n_grid: int = 14             # patch grid side; n_grid^2 patches per frame

    # temperatures
    tau_g: float = 1.0           # selection sampling temperature
    tau: float = 0.07            # contrastive temperature

    # module switches (ablation grid axes)
    sampler: str = "sparse"
    fusion: str = "la_gate"
    refiner: str = "gated"

    # loss weights
    w_vtm: float = 1.0
    w_cl: float = 1.0
    w_vgmlm: float = 1.0
    w_qa: float = 1.0            # answer-head cross-entropy, matched items only

    # optimization
    lr: float = 3e-5
    weight_decay: float = 1e-3
    warmup: float = 0.1          # fraction of steps spent ramping up
    steps: int = 1000
    batch_size: int = 32
    seed: int = 0
    exchange_prob: float = 0.5
    mask_rate: float = 0.15

    # synthetic world
    vocab_seed: int = 7

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ValueError(f"{f.name} must be of type {f.type}, "
                                 f"not {type(value).__name__} ({value!r})")
        for name in ("lr", "weight_decay", "w_vtm", "w_cl", "w_vgmlm", "w_qa", "tau", "tau_g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name, low in (("dim", 1), ("heads", 1), ("k_select", 1), ("depth", 1),
                          ("batch_size", 1), ("n_grid", 1), ("steps", 0), ("lr", 0),
                          ("weight_decay", 0), ("w_vtm", 0), ("w_cl", 0), ("w_vgmlm", 0),
                          ("w_qa", 0), ("seed", 0), ("vocab_seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        for name in ("mask_rate", "exchange_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.dim % self.heads:
            raise ValueError("dim must be divisible by heads")
        if self.k_select > self.n_frames:
            raise ValueError("k_select must not exceed n_frames")
        if self.tau_g <= 0 or self.tau <= 0:
            raise ValueError("temperatures must be positive")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"sampler must be one of {SAMPLERS}")
        if self.fusion not in FUSIONS:
            raise ValueError(f"fusion must be one of {FUSIONS}")
        if self.refiner not in REFINERS:
            raise ValueError(f"refiner must be one of {REFINERS}")
        if not 0.0 <= self.warmup < 1.0:
            raise ValueError("warmup fraction must be in [0, 1)")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def from_dict(cls, values: dict) -> "RunConfig":
        if not isinstance(values, dict):
            raise ValueError(f"a config must be a JSON object, not {type(values).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)


# Small sizes for the end-to-end synthetic task: big enough to exercise the
# divided attention and multi-head gating, small enough for CPU minutes.
DESK_OVERRIDES = dict(n_frames=30, k_select=4, depth=2, dim=32, heads=2, n_grid=2)

# Tiny sizes for the finite-difference suite, where every parameter element
# costs two full forward passes.
GRADCHECK_OVERRIDES = dict(n_frames=6, k_select=2, depth=1, dim=16, heads=2, n_grid=2)


def derive_seed(*keys: int) -> int:
    """Deterministic, well-mixed child seed from non-negative integer keys; a negative
    key raises ``ValueError`` rather than share a stream with its absolute value."""
    if min(keys, default=0) < 0:
        raise ValueError(f"derive_seed keys must be non-negative, got {min(keys)} in {keys}")
    ss = np.random.SeedSequence([int(k) for k in keys])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def desk_config(**overrides) -> RunConfig:
    return RunConfig(**{**DESK_OVERRIDES, **overrides})


def table_variant(config: RunConfig, row: str) -> RunConfig:
    """Module-ablation rows: which of sampler/refiner/gating is active.

    (a) uniform frames, plain fusion; (b) uniform frames + refiner; (c) soft
    selection + refiner; (d) sampler + plain fusion; (e) full with
    cross-attention instead of gates; (f) the full model.
    """
    rows = {
        "a": dict(sampler="uniform", refiner="plain"),
        "b": dict(sampler="uniform", refiner="gated", fusion="la_gate"),
        "c": dict(sampler="soft", refiner="gated", fusion="la_gate"),
        "d": dict(sampler="sparse", refiner="plain", fusion="la_gate"),
        "e": dict(sampler="sparse", refiner="gated", fusion="cross_attention"),
        "f": dict(sampler="sparse", refiner="gated", fusion="la_gate"),
    }
    if row not in rows:
        raise ValueError(f"unknown ablation row {row!r}")
    return dataclasses.replace(config, **rows[row])


def loss_variant(config: RunConfig, row: str) -> RunConfig:
    """Pretraining-loss rows as (vtm, cl, vgmlm) weight switches."""
    rows = {
        "a": (0.0, 0.0, 0.0),
        "b": (0.0, 0.0, 1.0),
        "c": (1.0, 0.0, 0.0),
        "d": (0.0, 1.0, 0.0),
        "e": (1.0, 0.0, 1.0),
        "f": (1.0, 1.0, 1.0),
    }
    if row not in rows:
        raise ValueError(f"unknown loss row {row!r}")
    w_vtm, w_cl, w_vgmlm = rows[row]
    return dataclasses.replace(config, w_vtm=w_vtm, w_cl=w_cl, w_vgmlm=w_vgmlm)
