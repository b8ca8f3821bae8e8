"""File formats: signal JSON/CSV, measurement JSON, atomic writes.

Signal JSON: {"n": N, "real": [...], "imag": [...]}.
Signal CSV: two columns re,im, no header.
Measurement JSON: {"m": M, "n": N, "b": [...], "sigma2": s, "real_signal":
bool} plus optional prefix-impulse metadata {"delta_re", "delta_im"}.
Files from before the prefix impulse was the only augmentation may carry
"side": "prefix", and files from before it was the impulse alone "gap": 0;
each loads as no key, and any other side or gap is rejected.  Floats are
written as Python's shortest round-trip repr, so every value round-trips
exactly.  ``n`` must be an integer >= 1 in both objects, and ``m`` too; a
float such as 2.9 or a JSON ``true`` is no count.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .measurement import AugmentationSpec
from .signals import MeasurementSet, as_count, as_signal

__all__ = ["atomic_write_text", "dump_signal", "load_signal",
           "dump_measurement", "load_measurement", "load_json_file",
           "save_signal_file", "load_signal_file",
           "save_measurement_file", "load_measurement_file"]


def _float_list(a) -> list[float]:
    return np.asarray(a, dtype=float).tolist()


def atomic_write_text(path: str, text: str) -> None:
    """Write-temp-then-rename so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_signal(x) -> dict:
    x = as_signal(x)
    return {"n": int(x.size), "real": _float_list(x.real),
            "imag": _float_list(x.imag)}


def load_signal(obj: dict) -> np.ndarray:
    try:
        n = as_count(obj["n"], "n", 1)
        real = np.asarray(obj["real"], dtype=float)
        imag = np.asarray(obj["imag"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed signal object: {exc}") from exc
    if real.ndim != 1 or imag.ndim != 1:
        raise ValueError("malformed signal object: real and imag must be flat lists")
    if real.size != n or imag.size != n:
        raise ValueError(f"signal length mismatch: n={n}, "
                         f"len(real)={real.size}, len(imag)={imag.size}")
    return as_signal(real + 1j * imag)


def dump_measurement(ms: MeasurementSet) -> dict:
    obj = {"m": ms.m, "n": ms.n, "b": _float_list(ms.b),
           "sigma2": float(ms.sigma2), "real_signal": ms.real_signal}
    if ms.augmentation is not None:
        spec = ms.augmentation
        obj["augmentation"] = {
            "delta_re": float(np.real(spec.delta)),
            "delta_im": float(np.imag(spec.delta)),
        }
    return obj


def load_measurement(obj: dict) -> MeasurementSet:
    try:
        b = np.asarray(obj["b"], dtype=float)
        n = as_count(obj["n"], "n", 1)
        sigma2 = obj.get("sigma2", 0.0)
        real_signal = obj.get("real_signal", False)
        a = obj.get("augmentation")
        aug = None if a is None else AugmentationSpec(
            delta=complex(float(a["delta_re"]), float(a.get("delta_im", 0.0))))
        # an augmentation that is not an object has raised at a["delta_re"];
        # a file of the appended-impulse mirror, or one with zeros between
        # the impulse and the signal, must not be de-augmented as the
        # impulse alone
        if aug is not None and a.get("side", "prefix") != "prefix":
            raise ValueError(f"unsupported augmentation side {a['side']!r}")
        if aug is not None and as_count(a.get("gap", 0), "gap", 0):
            raise ValueError(f"unsupported augmentation gap {a['gap']}")
        m = as_count(obj.get("m", b.size), "m", 1)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed measurement object: {exc}") from exc
    if b.ndim != 1:
        # a file holds one measurement; stacks exist only in memory
        raise ValueError("malformed measurement object: b must be a flat list")
    if m != b.size:
        raise ValueError(f"measurement length mismatch: m={m}, "
                         f"len(b)={b.size}")
    return MeasurementSet(b, n, sigma2=sigma2, real_signal=real_signal,
                          augmentation=aug)


def save_signal_file(path: str, x) -> None:
    if path.endswith(".csv"):
        x = as_signal(x)
        lines = [f"{v.real:.17g},{v.imag:.17g}" for v in x]
        atomic_write_text(path, "\n".join(lines) + "\n")
    else:
        atomic_write_text(path, json.dumps(dump_signal(x)) + "\n")


def load_json_file(path: str, load):
    """``load`` of the JSON value in the file at ``path``.

    A ``ValueError`` from decoding, parsing or ``load`` is raised again with
    ``path`` in front of its message; an ``OSError`` passes unchanged.
    """
    try:
        with open(path) as fh:
            obj = json.load(fh)
        return load(obj)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_signal_file(path: str) -> np.ndarray:
    if not path.endswith(".csv"):
        return load_json_file(path, load_signal)
    with open(path) as fh:
        text = fh.read()
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two columns re,im")
        try:
            values.append(complex(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    try:
        return as_signal(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_measurement_file(path: str, ms: MeasurementSet) -> None:
    atomic_write_text(path, json.dumps(dump_measurement(ms)) + "\n")


def load_measurement_file(path: str) -> MeasurementSet:
    return load_json_file(path, load_measurement)
