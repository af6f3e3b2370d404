"""Question-guided sparse frame selection and video QA, desk scale.

A self-contained numpy autodiff stack under a video-QA architecture built
around three ideas: multiplicative text-conditioned gating of visual tokens,
differentiable top-K frame selection with a straight-through estimator, and
a gated refinement stack whose single video CLS token feeds every head.  The
model computes in float32; the finite-difference oracle certifies every
backward rule in float64.

The package root exports what it takes to build, run and checkpoint a model;
everything else is imported from its module (``glimpse.sampler``,
``glimpse.train``, ``glimpse.cli`` and so on).
"""

from .config import RunConfig, desk_config
from .data import Vocab, gen_episode
from .model import VideoQAModel, load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "VideoQAModel",
    "Vocab",
    "desk_config",
    "gen_episode",
    "load_checkpoint",
    "save_checkpoint",
]
