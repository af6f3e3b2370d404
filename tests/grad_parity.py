"""Float64 gradient parity of this checkout against another revision.

    python tests/grad_parity.py REV

Exports ``src/`` of the git revision REV with ``git archive`` into a
temporary directory.  Each tree, REV's and this checkout's, then runs in a
subprocess of its own that imports only that tree's ``glimpse``.  A subprocess
runs one batched ``train_step`` of a model cast to float64
(``Module.astype``) at desk geometry (B=8) and at bench geometry (dim 256,
7x7 grid, K=16 of N=100, 8 heads, depth 2, B=2), each under both fusions.
Per case the script prints the largest error of ``v_star`` and of any
parameter gradient, each relative to that tensor's largest element.  It
names the tensors whose largest element is at most 1e-15 of the case's
largest gradient on both sides: there the exact gradient is 0 and both sides
hold roundoff, so their relative error means nothing.  It also says whether
each case's float32 ``l_total`` stream of 8 steps is byte-identical; the
first two steps alone would hide a moved gradient, because AdamW's first
update is about ``lr`` times the gradient's sign.

It drives both trees only through callables that keep their signatures:
``desk_config``, ``Vocab``, ``gen_episode``, ``VideoQAModel``,
``Module.astype``, ``AdamW`` and ``train_step``.  When the two trees name
their parameters differently but hold the same number of gradients with the
same shapes in order, the gradients are paired by position and each rename
is printed.  The exit status is 1 when ``v_star`` or a gradient other than
those named differs by more than 1e-12, or when the two trees give gradients
for different parameters.

pytest does not collect this file; it takes under a minute.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_GEOMETRY = dict(dim=256, n_grid=7, k_select=16, n_frames=100, heads=8, depth=2)
CASES = [(f"{geometry} {fusion}", dict(overrides, fusion=fusion, batch_size=batch))
         for geometry, overrides, batch in (("desk", {}, 8), ("bench", BENCH_GEOMETRY, 2))
         for fusion in ("la_gate", "cross_attention")]
SEED, FLOAT32_STEPS = 1, 8
TOLERANCE, ZERO = 1e-12, 1e-15


def run_cases(out: Path) -> None:
    """Child side: one float64 step and a float32 stream per case, saved to ``out``."""
    from glimpse import train as gtrain
    from glimpse.config import desk_config
    from glimpse.data import Vocab, gen_episode
    from glimpse.model import VideoQAModel

    v_stars = []
    represent = VideoQAModel.represent

    def recording(self, *args, **kwargs):
        rep = represent(self, *args, **kwargs)
        v_stars.append(rep["v_star"].data.copy())
        return rep

    VideoQAModel.represent = recording
    arrays = {}
    for name, overrides in CASES:
        cfg = desk_config(seed=SEED, **overrides)
        vocab = Vocab(cfg.vocab_seed, cfg.dim)
        seeds = np.random.SeedSequence(SEED).generate_state(cfg.batch_size)
        pool = [gen_episode(int(s), cfg.n_frames, cfg.n_grid, cfg.dim, vocab) for s in seeds]
        for dtype, steps in ((np.float64, 1), (np.float32, FLOAT32_STEPS)):
            model = VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed)).astype(dtype)
            optimizer = gtrain.AdamW(list(model.named_parameters()), cfg.weight_decay)
            losses = [gtrain.train_step(model, optimizer, pool, cfg, s)["l_total"]
                      for s in range(steps)]
            if dtype is np.float64:
                arrays[f"{name}/v_star"] = v_stars[-1]
                arrays.update((f"{name}/grad/{p_name}", p.grad.copy())
                              for p_name, p in model.named_parameters() if p.grad is not None)
        arrays[f"{name}/l_total"] = np.array(losses)
    np.savez(out, **arrays)


def run_tree(src: Path, out: Path) -> dict[str, np.ndarray]:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(out)],
                   env=env, cwd=out.parent, check=True)
    with np.load(out) as saved:
        return dict(saved)


def rel_error(ours: np.ndarray, theirs: np.ndarray) -> float:
    scale = max(np.abs(ours).max(), np.abs(theirs).max())
    return float(np.abs(ours - theirs).max() / scale) if scale else 0.0


def compare(ours: dict, theirs: dict) -> bool:
    """Print the report; True when every case is within ``TOLERANCE``."""
    ok, streams_equal = True, True
    for name, _ in CASES:
        prefix = f"{name}/grad/"
        # Each side's names in its own named_parameters order (npz keeps it).
        names = [k[len(prefix):] for k in ours if k.startswith(prefix)]
        other = [k[len(prefix):] for k in theirs if k.startswith(prefix)]
        if set(names) == set(other):
            pairs = [(n, n) for n in sorted(names)]
        elif len(names) == len(other) and all(
                ours[prefix + a].shape == theirs[prefix + b].shape for a, b in zip(names, other)):
            pairs = list(zip(names, other))
            print(f"{name}: paired by position, REV name -> name here: "
                  + ", ".join(f"{b} -> {a}" for a, b in pairs if a != b))
        else:
            ok = False
            print(f"{name}: gradients for different parameters: "
                  f"only here {sorted(set(names) - set(other))}, "
                  f"only at REV {sorted(set(other) - set(names))}")
            pairs = [(n, n) for n in sorted(set(names) & set(other))]
        largest = [max(np.abs(side[prefix + n]).max() for n in side_names)
                   for side, side_names in ((ours, [a for a, _ in pairs]),
                                            (theirs, [b for _, b in pairs]))]
        zeros = [a for a, b in pairs if all(np.abs(side[prefix + n]).max() <= ZERO * big
                                            for side, n, big in zip((ours, theirs), (a, b), largest))]
        errors = {a: rel_error(ours[prefix + a], theirs[prefix + b])
                  for a, b in pairs if a not in zeros}
        worst = max(errors, key=errors.get)
        v_error = rel_error(ours[f"{name}/v_star"], theirs[f"{name}/v_star"])
        over = sorted(n for n, e in errors.items() if e > TOLERANCE)
        ok = ok and v_error <= TOLERANCE and not over
        print(f"{name}: v_star {v_error:.2e}; {len(errors)} gradients, largest {errors[worst]:.2e}"
              f" ({worst}); over {TOLERANCE:g}: {over or 'none'}")
        print(f"  at most {ZERO:g} of the largest gradient on both sides: {zeros or 'none'}")
        here, there = ours[f"{name}/l_total"], theirs[f"{name}/l_total"]
        moved = [s for s in range(FLOAT32_STEPS) if here[s].tobytes() != there[s].tobytes()]
        streams_equal = streams_equal and not moved
        print(f"  float32 l_total, {FLOAT32_STEPS} steps: " + (
            f"moved from step {moved[0]}, last {float(here[-1]).hex()} here and "
            f"{float(there[-1]).hex()} at REV" if moved else "byte-identical"))
    print(f"float32 l_total streams: {'byte-identical' if streams_equal else 'moved'}")
    return ok


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        theirs = run_tree(tmp / "rev" / "src", tmp / "rev.npz")
        ours = run_tree(ROOT / "src", tmp / "ours.npz")
    print(f"this checkout against {rev}, float64 errors relative to each tensor's largest element")
    return 0 if compare(ours, theirs) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        run_cases(Path(sys.argv[2]))
    elif len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    else:
        sys.exit(__doc__)
