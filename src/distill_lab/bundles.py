"""Reproduction bundles: self-describing text files for findings.

A bundle freezes everything needed to replay a single finding (an inequality
violation, a distillation witness, a negative Hessian eigenvalue): scalar
parameters plus the participating vectors.  Floats are stored as C99 hex
literals so values round-trip bit-exactly.

Layout::

    distill-lab bundle v1
    kind=<slug>
    <name>=<int or hex float>          # one line per scalar parameter
                                       # (nan, inf and -inf stay as words)
    ...
    vector <name> <complex|real> <length>
    <re_hex> <im_hex>                  # one line per entry (real: one field)
    ...

The four rank-two finding kinds (``minimize-violation``,
``distillation-witness``, ``copy-floor-violation``, ``rank2-slack-finding``)
share one layout, written by ``RankTwoFactors.to_bundle``: the finding's own
parameters, then ``sigma1`` and ``sigma2``, then complex vectors ``u1 v1 u2
v2``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = "distill-lab bundle v1"

_INT_LITERAL = re.compile(r"-?[0-9]+")


@dataclass
class Bundle:
    kind: str
    params: dict = field(default_factory=dict)
    vectors: dict = field(default_factory=dict)


def write_bundle(bundle: Bundle, path) -> Path:
    """Write ``bundle`` to ``path``; a name that would break the layout is
    rejected before anything is written."""
    lines = [MAGIC, f"kind={bundle.kind}"]
    for name, value in bundle.params.items():
        if "=" in name or any(ch.isspace() for ch in name):
            raise ValueError(f"bundle parameter name {name!r} contains '=' or whitespace")
        if isinstance(value, bool):
            raise ValueError(f"bundle parameter {name!r} must be int or float")
        if isinstance(value, (int, np.integer)):
            lines.append(f"{name}={int(value)}")
        else:
            lines.append(f"{name}={float(value).hex()}")
    for name, vec in bundle.vectors.items():
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"bundle vector name {name!r} is empty or contains whitespace")
        arr = np.asarray(vec).reshape(-1)
        if np.iscomplexobj(arr):
            lines.append(f"vector {name} complex {arr.size}")
            lines.extend(f"{v.real.hex()} {v.imag.hex()}" for v in arr)
        else:
            lines.append(f"vector {name} real {arr.size}")
            lines.extend(f"{float(v).hex()}" for v in arr)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_bundle(path) -> Bundle:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != MAGIC:
        raise ValueError(f"{path} is not a bundle file (bad magic line)")
    if len(lines) < 2 or not lines[1].startswith("kind="):
        raise ValueError(f"{path} is missing the kind line")
    bundle = Bundle(kind=lines[1].split("=", 1)[1])
    i = 2
    while i < len(lines):
        line = lines[i]
        if line.startswith("vector "):
            _, name, dtype, length = line.split()
            length = int(length)
            entries = lines[i + 1 : i + 1 + length]
            if len(entries) != length:
                raise ValueError(f"vector {name} is truncated in {path}")
            if dtype == "complex":
                vec = np.array(
                    [complex(float.fromhex(a), float.fromhex(b)) for a, b in (e.split() for e in entries)],
                    dtype=np.complex128,
                )
            elif dtype == "real":
                vec = np.array([float.fromhex(e) for e in entries], dtype=np.float64)
            else:
                raise ValueError(f"unknown vector dtype {dtype!r} in {path}")
            bundle.vectors[name] = vec
            i += 1 + length
        elif "=" in line:
            name, raw = line.split("=", 1)
            bundle.params[name] = int(raw) if _INT_LITERAL.fullmatch(raw) else float.fromhex(raw)
            i += 1
        elif not line.strip():
            i += 1
        else:
            raise ValueError(f"unparseable bundle line {i + 1} in {path}: {line!r}")
    return bundle
