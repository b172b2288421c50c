"""Seeded Nyx-like inputs, generated by the benchmark itself.

The program's own generators (``repro.data``) are deliberately not used:
a later change to them must not change what the benchmark measures.
Every array derives from the ``--seed`` argument alone, and
:func:`digest` fingerprints what a run was given.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: The six fluid fields of a Nyx snapshot, in the paper's order.
FIELDS = (
    "baryon_density",
    "dark_matter_density",
    "temperature",
    "velocity_x",
    "velocity_y",
    "velocity_z",
)

#: The paper's absolute error bounds (Section IV-A), one per field.
BOUNDS = dict(zip(FIELDS, (0.2, 0.4, 1e3, 2e5, 2e5, 2e5)))


def _smooth_field(rng: np.random.Generator, shape, slope: float) -> np.ndarray:
    """Zero-mean, unit-variance Gaussian random field with a power-law
    spectrum ``P(k) ~ k**-slope`` (larger slopes are smoother)."""
    white = rng.standard_normal(shape)
    spec = np.fft.rfftn(white)
    freqs = [np.fft.fftfreq(n) for n in shape[:-1]] + [np.fft.rfftfreq(shape[-1])]
    k2 = sum(
        f.reshape([-1 if i == axis else 1 for i in range(len(shape))]) ** 2
        for axis, f in enumerate(freqs)
    )
    k2[(0,) * len(shape)] = np.inf  # drop the mean mode
    spec *= k2 ** (-slope / 4.0)
    field = np.fft.irfftn(spec, s=shape, axes=range(len(shape)))
    return field / field.std()


def snapshot(seed: int, shape, step: int = 0) -> dict[str, np.ndarray]:
    """Six float32 fields of one Nyx-like snapshot.

    * densities: log-normal transforms of correlated smooth fields, mean ~1
      (a few dense halos, large voids);
    * temperature: ~1e4 K, correlated with the baryon density;
    * velocities: smooth fields at the ~1e7 cm/s scale.

    ``step`` derives a distinct snapshot of the same statistics, so a run
    of time steps does not write one array over and over.
    """
    shape = tuple(int(s) for s in shape)
    rngs = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence([int(seed), int(step)]).spawn(5)
    ]
    base = _smooth_field(rngs[0], shape, 3.0)
    halo = _smooth_field(rngs[1], shape, 2.5)
    baryon = np.exp(1.0 * base - 0.5)
    dark = np.exp(1.2 * (0.8 * base + 0.6 * halo) - 0.72)
    temperature = 1.0e4 * baryon**0.6 * np.exp(0.1 * halo)
    out = {
        "baryon_density": baryon,
        "dark_matter_density": dark,
        "temperature": temperature,
    }
    for axis, rng in zip("xyz", rngs[2:]):
        out[f"velocity_{axis}"] = 1.0e7 * _smooth_field(rng, shape, 4.0)
    return {name: np.ascontiguousarray(out[name], dtype=np.float32) for name in FIELDS}


def digest(arrays) -> str:
    """Short SHA-256 over the arrays' bytes, in the order given."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]
