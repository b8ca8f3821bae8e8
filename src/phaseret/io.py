"""File formats: signal JSON/CSV, measurement JSON, atomic writes.

Signal JSON: {"n": N, "real": [...], "imag": [...]}.
Signal CSV: two columns re,im, no header.
Measurement JSON: {"m": M, "n": N, "b": [...], "sigma2": s, "real_signal":
bool} plus optional augmentation metadata {"delta_re", "delta_im", "gap",
"side"}.  Floats are written as Python's shortest round-trip repr, so every
value round-trips exactly.
"""

from __future__ import annotations

import json
import operator
import os
import tempfile

import numpy as np

from .measurement import AugmentationSpec
from .signals import MeasurementSet, as_signal

__all__ = ["atomic_write_text", "dump_signal", "load_signal",
           "dump_measurement", "load_measurement",
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
        n = int(obj["n"])
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
            "gap": int(spec.gap),
            "side": spec.side,
        }
    return obj


def load_measurement(obj: dict) -> MeasurementSet:
    try:
        b = np.asarray(obj["b"], dtype=float)
        n = operator.index(obj["n"])  # 2.9 is not a length
        sigma2 = float(obj.get("sigma2", 0.0))
        real_signal = obj.get("real_signal", False)
        a = obj.get("augmentation")
        aug = None if a is None else AugmentationSpec(
            delta=complex(float(a["delta_re"]), float(a.get("delta_im", 0.0))),
            gap=operator.index(a.get("gap", 0)),
            side=a.get("side", "prefix"),
        )
        m = operator.index(obj.get("m", b.size))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed measurement object: {exc}") from exc
    if not isinstance(real_signal, bool):  # bool("false") is True
        raise ValueError("malformed measurement object: real_signal must be "
                         f"true or false, got {real_signal!r}")
    if aug is not None and n < aug.gap + 2:
        raise ValueError(f"malformed measurement object: n={n} leaves no "
                         f"signal sample after the impulse and gap={aug.gap}")
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


def load_signal_file(path: str) -> np.ndarray:
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".csv"):
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
        return as_signal(values)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    return load_signal(obj)


def save_measurement_file(path: str, ms: MeasurementSet) -> None:
    atomic_write_text(path, json.dumps(dump_measurement(ms)) + "\n")


def load_measurement_file(path: str) -> MeasurementSet:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    return load_measurement(obj)
