"""JSON round-tripping for comb specs, reports, and run summaries.

Complex matrices are stored as row-major nested lists with ``[re, im]``
innermost pairs; every file carries a ``format_version`` field.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path
from typing import Any

import numpy as np

from .combs import CombSpec

FORMAT_VERSION = 1
#: The keys :func:`comb_from_dict` reads; ``metadata`` is optional.
_COMB_KEYS = ("n", "d_A", "d_M", "psi0", "unitaries", "sigma_true", "pi_true")
#: The JSON type of each key that is not a count.
_COMB_TYPES = {
    "psi0": list, "unitaries": list, "sigma_true": list, "pi_true": list, "metadata": dict,
}

__all__ = [
    "FORMAT_VERSION",
    "encode_matrix",
    "decode_matrix",
    "encode_vector",
    "decode_vector",
    "comb_to_dict",
    "comb_from_dict",
    "save_comb",
    "load_comb",
    "save_json",
    "load_json",
    "jsonable",
    "is_whole",
]


def is_whole(value) -> bool:
    """Whether ``value`` is a whole number: ``0``, ``3`` or ``3.0``, never
    ``2.6``, ``-1``, ``True`` or ``"3"``.  A boolean is not a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return value >= 0 and (isinstance(value, numbers.Integral) or float(value).is_integer())


def _whole(key: str, value) -> int:
    if not is_whole(value):
        raise ValueError(f"comb file: {key} must be a non-negative whole number, got {value!r}")
    return int(value)


def encode_vector(v: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(v, dtype=complex)]


def _decode(data, ndim: int, what: str) -> np.ndarray:
    """``data``, an array of ``[re, im]`` number pairs with ``ndim`` axes, as a complex array.

    Anything else, such as a bare number, a string or a ragged list,
    raises ``ValueError`` naming ``what``.
    """
    try:
        parts = np.array(data)
    except ValueError:  # a ragged list
        parts = np.array(None)
    if parts.dtype.kind not in "iuf" or parts.ndim != ndim + 1 or parts.shape[-1] != 2:
        raise ValueError(f"{what} must be a {ndim}-axis array of [re, im] number pairs")
    return parts.astype(float).view(complex)[..., 0]


def decode_vector(data) -> np.ndarray:
    return _decode(data, 1, "a vector")


def encode_matrix(m: np.ndarray) -> list:
    return [encode_vector(row) for row in np.asarray(m, dtype=complex)]


def decode_matrix(data) -> np.ndarray:
    return _decode(data, 2, "a matrix")


def comb_to_dict(spec: CombSpec) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "comb_spec",
        "n": spec.n,
        "d_A": spec.wire_dim,
        "d_M": spec.memory_dim,
        "psi0": encode_vector(spec.psi0),
        "unitaries": [encode_matrix(u) for u in spec.unitaries],
        "sigma_true": list(spec.input_perm),
        "pi_true": list(spec.output_perm),
        "metadata": spec.metadata,
    }


def comb_from_dict(data: dict) -> CombSpec:
    if data.get("kind") != "comb_spec":
        raise ValueError(f"not a comb spec file (kind={data.get('kind')!r})")
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {data.get('format_version')!r}")
    missing = [k for k in _COMB_KEYS if k not in data]
    if missing:
        raise ValueError(f"comb spec file is missing keys {missing}")
    for key, kind in _COMB_TYPES.items():
        if not isinstance(data.get(key, kind()), kind):
            raise ValueError(f"comb file: {key} must be a {kind.__name__}, got {data[key]!r}")
    return CombSpec(
        n=_whole("n", data["n"]),
        wire_dim=_whole("d_A", data["d_A"]),
        memory_dim=_whole("d_M", data["d_M"]),
        psi0=_decode(data["psi0"], 1, "comb file: psi0"),
        unitaries=tuple(_decode(data["unitaries"], 3, "comb file: unitaries")),
        input_perm=tuple(_whole("sigma_true", v) for v in data["sigma_true"]),
        output_perm=tuple(_whole("pi_true", v) for v in data["pi_true"]),
        metadata=dict(data.get("metadata", {})),
    )


def save_comb(spec: CombSpec, path) -> None:
    Path(path).write_text(json.dumps(comb_to_dict(spec)))


def load_comb(path) -> CombSpec:
    return comb_from_dict(json.loads(Path(path).read_text()))


def jsonable(obj: Any) -> Any:
    """Recursively coerce numpy scalars/arrays and tuples for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return encode_matrix(obj) if obj.ndim == 2 else encode_vector(obj)
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def save_json(data: dict, path) -> None:
    payload = {"format_version": FORMAT_VERSION}
    payload.update(jsonable(data))
    Path(path).write_text(json.dumps(payload, indent=2))


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())
