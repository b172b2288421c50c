"""Output checks computed apart from the program.

Nothing here calls the codec's own error accounting or ``repro.verify``:
errors, PSNR and storage ratios are recomputed with NumPy from the
benchmark's originals and from file sizes on disk.  Every check returns
``None`` when it passes and a one-line reason when it fails, so a
workload can count failed ops without stopping.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np


def error_slack(original: np.ndarray, recon: np.ndarray) -> np.ndarray:
    """Half a float32 ulp of the larger magnitude, per element: the storage
    dtype cannot represent the bounded reconstruction more finely."""
    mag = np.maximum(np.abs(original), np.abs(recon)).astype(np.float32)
    return 0.5 * np.spacing(mag).astype(np.float64)


def bound_violation(original: np.ndarray, recon: np.ndarray, bound: float) -> str | None:
    """None when every ``|recon - original| <= bound + half an ulp``."""
    if recon.shape != original.shape:
        return f"shape {recon.shape} != {original.shape}"
    if not np.all(np.isfinite(recon)):
        return "non-finite values in the read-back"
    err = np.abs(recon.astype(np.float64) - original.astype(np.float64))
    excess = err - (bound + error_slack(original, recon))
    worst = int(np.argmax(excess))
    if excess.flat[worst] > 0:
        return (f"max error {err.flat[worst]:.6g} at flat index {worst} exceeds "
                f"bound {bound:.6g}")
    return None


def psnr_db(original: np.ndarray, recon: np.ndarray) -> float:
    """Peak signal-to-noise ratio over the original's value range."""
    o = original.astype(np.float64)
    mse = float(np.mean((recon.astype(np.float64) - o) ** 2))
    value_range = float(o.max() - o.min())
    if mse == 0.0:
        return float("inf")
    return 20.0 * np.log10(value_range) - 10.0 * np.log10(mse)


def check_fields(originals: dict, recon: dict, bounds: dict) -> tuple[str | None, float]:
    """Bound-check every field; returns (failure or None, mean PSNR in dB)."""
    psnrs = []
    for name, orig in originals.items():
        if name not in recon:
            return f"{name}: missing from the read-back", 0.0
        why = bound_violation(orig, recon[name], bounds[name])
        if why is not None:
            return f"{name}: {why}", 0.0
        psnrs.append(psnr_db(orig, recon[name]))
    return None, float(np.mean(psnrs))


def file_sha256(path: str) -> str:
    """Digest of a file's bytes on disk."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def stored_digest(engine_file, path: str) -> str:
    """Digest of one dataset's stored partition streams, in partition order
    (read with the container's positioned reads, without decoding)."""
    ds = engine_file[path]
    h = hashlib.sha256()
    for index in range(ds.n_partitions):
        h.update(ds.read_partition(index))
    return h.hexdigest()


def committed_check(repro, path: str, expected: dict) -> str | None:
    """Open ``path`` as a reader would and compare the stored streams of
    every dataset in ``expected`` (dataset path -> :func:`stored_digest`)."""
    try:
        with repro.open(path, "r"):
            pass
        engine = repro.hdf5.File(path, "r")
        try:
            for dpath, digest in expected.items():
                if stored_digest(engine, dpath) != digest:
                    return f"{dpath}: stored streams differ"
        finally:
            engine.close()
    except Exception as exc:  # noqa: BLE001 - any failure fails the check
        return f"{type(exc).__name__}: {exc}"
    return None


def decode_check(repro, path: str, names: dict, originals: dict, bounds: dict):
    """Decode ``names`` (field -> dataset path) from ``path`` and check them
    against ``originals``; returns (failure or None, mean PSNR in dB)."""
    try:
        with repro.open(path, "r") as f:
            recon = {field: f[dpath][...] for field, dpath in names.items()}
    except Exception as exc:  # noqa: BLE001 - any failure fails the check
        return f"{type(exc).__name__}: {exc}", 0.0
    return check_fields(originals, recon, bounds)


def storage_ratio(original_nbytes: int, paths) -> float:
    """Original bytes over the bytes the files take on disk (extra space,
    overflow tails and metadata included)."""
    on_disk = sum(os.path.getsize(p) for p in paths)
    return original_nbytes / on_disk
