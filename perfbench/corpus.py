"""Seeded input corpus for the benchmark.

Every field is named by stable labels (corpus recipe, position, dataset,
variable) and its generator seed is a hash of those labels and the run's
``--seed``, so the same seed always yields the same bytes and no two
fields of one run share content. Generation runs in spawned helper
processes that write one ``.npy`` file per field; the measuring process
later loads them one at a time, outside every timer, so neither the
generators' time nor their memory reaches a metric.

Only the standard library is imported at module level: ``run.py``
imports this module before ``import repro`` (and NumPy) is timed as part
of set-up.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import multiprocessing

#: the six synthetic datasets, in registry order
DATASETS = ("jhtdb", "miranda", "nyx", "qmcpack", "rtm", "s3d")

#: shape of every ``slabs-*`` field: 16 MiB of float32, 32 slabs of 8
#: planes, each slab's 512 KiB working set fits in L2 and a field does not
SLAB_FIELD_SHAPE = (256, 128, 128)


def derive_seed(*labels) -> int:
    """Stable 63-bit generator seed from arbitrary labels."""
    text = "/".join(str(p) for p in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class FieldSpec:
    """One corpus field: which generator, which variable, which shape."""

    index: int
    dataset: str
    variable: str
    shape: tuple[int, ...]
    seed: int

    @property
    def label(self) -> str:
        dims = "x".join(str(n) for n in self.shape)
        return f"{self.index:03d}-{self.dataset}-{self.variable}-{dims}"


def _variables(dataset: str) -> tuple[str, ...]:
    from repro.datasets import get_dataset
    return get_dataset(dataset).fields


def default_shape(dataset: str) -> tuple[int, ...]:
    from repro.datasets import get_dataset
    return tuple(get_dataset(dataset).default_shape)


def fields_corpus(seed: int, rounds: int) -> list[FieldSpec]:
    """``rounds`` rounds of one field per dataset at its default shape.

    Round ``r`` takes each dataset's ``r``-th variable (cycling), so the
    corpus covers velocities, pressures, densities and species, not one
    variable repeated. Both ``fields-*`` workloads share this recipe:
    the same seed gives them the same content.
    """
    out = []
    for r in range(rounds):
        for name in DATASETS:
            variables = _variables(name)
            var = variables[r % len(variables)]
            out.append(FieldSpec(len(out), name, var, default_shape(name),
                                 derive_seed(seed, "fields", r, name, var)))
    return out


def slabs_corpus(seed: int, n_fields: int) -> list[FieldSpec]:
    """``n_fields`` 256x128x128 fields cycling through the six datasets."""
    out = []
    for i in range(n_fields):
        name = DATASETS[i % len(DATASETS)]
        variables = _variables(name)
        var = variables[(i // len(DATASETS)) % len(variables)]
        out.append(FieldSpec(i, name, var, SLAB_FIELD_SHAPE,
                             derive_seed(seed, "slabs", i, name, var)))
    return out


def generate(spec: FieldSpec):
    """Run the dataset's generator for one spec (float32 array)."""
    from repro.datasets import get_dataset, synthetic
    if spec.dataset == "rtm":
        step = int(spec.variable.removeprefix("snap"))
        return synthetic.rtm_field(spec.shape, step=step, seed=spec.seed)
    info = get_dataset(spec.dataset)
    return info.generator(spec.shape, field=spec.variable, seed=spec.seed)


def _generate_to(args) -> str:
    spec, path = args
    import numpy as np
    with open(path, "wb") as fh:
        np.save(fh, generate(spec))
        # written back now, not by the kernel's flusher during timed ops
        fh.flush()
        os.fsync(fh.fileno())
    return path


def field_path(directory: str, spec: FieldSpec) -> str:
    return os.path.join(directory, spec.label + ".npy")


def write_corpus(specs: list[FieldSpec], directory: str,
                 processes: int) -> None:
    """Generate every spec into ``directory`` using spawned helpers.

    Spawned, not forked: the measuring process may already hold a worker
    pool and helper threads, and the helpers must not inherit them. The
    executor is joined before returning.
    """
    os.makedirs(directory, exist_ok=True)
    jobs = [(s, field_path(directory, s)) for s in specs]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=max(1, processes),
                             mp_context=ctx) as pool:
        for _ in pool.map(_generate_to, jobs):
            pass


def load(directory: str, spec: FieldSpec):
    import numpy as np
    return np.load(field_path(directory, spec))


def warmup_field(shape: tuple[int, ...], salt: int):
    """Cheap smooth field for set-up warm-up ops (outside the corpus).

    Separable sinusoids plus low-amplitude seeded noise: enough structure
    to drive tuning, a non-trivial codebook and a plan compile for the
    shape, at a cost of milliseconds (excluded from ``setup_s``).
    """
    import numpy as np
    rng = np.random.default_rng(derive_seed("warmup", salt, *shape))
    axes = np.meshgrid(*[np.linspace(0.0, 2.0 * math.pi * (k + 2), n)
                         for k, n in enumerate(shape)],
                       indexing="ij", sparse=True)
    out = sum(np.sin(a + k) for k, a in enumerate(axes))
    out = out + 0.01 * rng.standard_normal(shape)
    return out.astype(np.float32)
