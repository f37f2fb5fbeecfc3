"""Binary containers and the score CSV format.

Feature container ("OODF"): magic, version byte 0x01, u32 rows, u32 cols
(little-endian), then rows*cols IEEE-754 float32 values row-major. Used
for features and for logits. Storage is 32-bit to match typical feature
exports; everything computes in 64-bit after load.

Model container ("OODM"): magic, version byte 0x01, method byte, then a
method-family payload with all reals as little-endian float64:

  covariance family (pca, cop, corp, colp):
      evr_target f64, input_dim u32, feature_dim u32, q u32, flags u8
      (bit0 = has frequencies block, bit1 = has residual basis),
      [kernel u8, gamma f64, M u32, d_in u32, seed u64,
       omegas M*d_in row-major, biases M],
      mean D, eigenvalues D, basis D*q column-major,
      [residual basis D*(D-q) column-major]

  kernel family (kcos, kgau):
      evr_target f64, gamma f64, n_train u32, input_dim u32, l u32,
      train N*m row-major (normalized rows), vectors N*l column-major

Scores CSV: header "index,score", one row per scored input, values
rendered with 17 significant digits so parsing returns the exact written
float64. All load paths validate magic/version/lengths and reject
non-finite payloads; save->load->save is byte-identical.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .detector import DetectorModel
from .errors import FormatError, NonFiniteError
from .featmap import (
    COSINE_STAGE,
    GAUSSIAN,
    IDENTITY_STAGE,
    LAPLACIAN,
    RffMap,
    cosine_rff_spec,
    cosine_spec,
    identity_spec,
)
from .kernelspace import COSINE_KERNEL, GAUSSIAN_KERNEL, KernelSpaceModel
from .linalg import as_feature_matrix

FEATURE_MAGIC = b"OODF"
MODEL_MAGIC = b"OODM"
VERSION = 1

METHOD_PCA = "pca"
METHOD_COP = "cop"
METHOD_CORP = "corp"
METHOD_COLP = "colp"
METHOD_KCOS = "kcos"
METHOD_KGAU = "kgau"

COVARIANCE_METHODS = (METHOD_PCA, METHOD_COP, METHOD_CORP, METHOD_COLP)
KERNEL_METHODS = (METHOD_KCOS, METHOD_KGAU)
ALL_METHODS = COVARIANCE_METHODS + KERNEL_METHODS

_METHOD_BYTE = {name: i for i, name in enumerate(ALL_METHODS)}
_BYTE_METHOD = {i: name for name, i in _METHOD_BYTE.items()}

_U32_MAX = 2**32 - 1


# ---------------------------------------------------------------- features


def save_features(path, x) -> None:
    """Write a feature/logits matrix as a float32 container."""
    x = as_feature_matrix(x)
    rows, cols = x.shape
    if rows > _U32_MAX or cols > _U32_MAX:
        raise FormatError("matrix too large for the u32 header")
    with np.errstate(over="ignore"):
        payload = x.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise NonFiniteError("values overflow float32 storage")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sBII", FEATURE_MAGIC, VERSION, rows, cols))
        fh.write(payload.tobytes(order="C"))


def load_features(path) -> np.ndarray:
    """Read a feature/logits container back as float64."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 13:
        raise FormatError(f"{path}: truncated header")
    magic, version, rows, cols = struct.unpack_from("<4sBII", blob, 0)
    if magic != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    want = 13 + rows * cols * 4
    if len(blob) != want:
        raise FormatError(f"{path}: expected {want} bytes, found {len(blob)}")
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: empty matrix ({rows}x{cols})")
    data = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=13)
    x = data.astype(np.float64).reshape(rows, cols)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"{path}: payload contains NaN or Inf")
    return x


# ------------------------------------------------------------------ models


def method_for_model(model) -> str:
    """Canonical method tag for a fitted model, from its structure."""
    if isinstance(model, KernelSpaceModel):
        return METHOD_KCOS if model.kernel_kind == COSINE_KERNEL else METHOD_KGAU
    if isinstance(model, DetectorModel):
        stages = tuple(model.map_spec.stages)
        if stages == (IDENTITY_STAGE,):
            return METHOD_PCA
        if stages == (COSINE_STAGE,):
            return METHOD_COP
        if (
            len(stages) == 2
            and stages[0] == COSINE_STAGE
            and isinstance(stages[1], RffMap)
        ):
            return METHOD_CORP if stages[1].kernel_kind == GAUSSIAN else METHOD_COLP
    raise FormatError("model layout has no canonical method tag")


def _pack_f64(a: np.ndarray, order: str) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).astype("<f8").tobytes(order=order)


def save_model(path, model) -> None:
    method = method_for_model(model)
    parts = [struct.pack("<4sBB", MODEL_MAGIC, VERSION, _METHOD_BYTE[method])]
    if isinstance(model, DetectorModel):
        d = model.feature_dim
        q = model.q
        rff = None
        if method in (METHOD_CORP, METHOD_COLP):
            rff = model.map_spec.stages[1]
        flags = (1 if rff is not None else 0) | (
            2 if model.residual_basis is not None else 0
        )
        parts.append(
            struct.pack(
                "<dIIIB", model.evr_target, model.map_spec.input_dim, d, q, flags
            )
        )
        if rff is not None:
            parts.append(
                struct.pack(
                    "<BdIIQ",
                    0 if rff.kernel_kind == GAUSSIAN else 1,
                    rff.gamma,
                    rff.n_features,
                    rff.input_dim,
                    rff.seed,
                )
            )
            parts.append(_pack_f64(rff.omegas, "C"))
            parts.append(_pack_f64(rff.biases, "C"))
        parts.append(_pack_f64(model.mean, "C"))
        parts.append(_pack_f64(model.eigenvalues, "C"))
        parts.append(_pack_f64(model.basis, "F"))
        if model.residual_basis is not None:
            parts.append(_pack_f64(model.residual_basis, "F"))
    else:
        n, m = model.train.shape
        parts.append(
            struct.pack("<ddIII", model.evr_target, model.gamma, n, m, model.l)
        )
        parts.append(_pack_f64(model.train, "C"))
        parts.append(_pack_f64(model.residual_vectors, "F"))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.blob):
            raise FormatError(f"{self.path}: truncated at offset {self.pos}")
        out = struct.unpack_from(fmt, self.blob, self.pos)
        self.pos += size
        return out

    def f64(self, count: int, shape, order: str) -> np.ndarray:
        size = count * 8
        if self.pos + size > len(self.blob):
            raise FormatError(f"{self.path}: truncated at offset {self.pos}")
        a = np.frombuffer(self.blob, dtype="<f8", count=count, offset=self.pos)
        self.pos += size
        out = a.astype(np.float64).reshape(shape, order=order)
        if not np.all(np.isfinite(out)):
            raise NonFiniteError(f"{self.path}: model payload contains NaN or Inf")
        return np.ascontiguousarray(out)

    def done(self):
        if self.pos != len(self.blob):
            raise FormatError(
                f"{self.path}: {len(self.blob) - self.pos} trailing bytes"
            )


def load_model(path):
    """Load a model container; returns DetectorModel or KernelSpaceModel."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    magic, version, method_byte = r.unpack("<4sBB")
    if magic != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if method_byte not in _BYTE_METHOD:
        raise FormatError(f"{path}: unknown method byte {method_byte}")
    method = _BYTE_METHOD[method_byte]

    if method in COVARIANCE_METHODS:
        evr, input_dim, d, q, flags = r.unpack("<dIIIB")
        if not 1 <= q <= d:
            raise FormatError(f"{path}: q {q} outside [1, feature_dim {d}]")
        has_rff = bool(flags & 1)
        has_residual = bool(flags & 2)
        if has_rff != (method in (METHOD_CORP, METHOD_COLP)):
            raise FormatError(f"{path}: flags disagree with method {method}")
        if has_rff:
            kernel_byte, gamma, m, d_in, seed = r.unpack("<BdIIQ")
            omegas = r.f64(m * d_in, (m, d_in), "C")
            biases = r.f64(m, (m,), "C")
            rff = RffMap(
                kernel_kind=GAUSSIAN if kernel_byte == 0 else LAPLACIAN,
                gamma=gamma,
                omegas=omegas,
                biases=biases,
                seed=int(seed),
            )
            spec = cosine_rff_spec(rff)
        elif method == METHOD_PCA:
            spec = identity_spec(input_dim)
        else:
            spec = cosine_spec(input_dim)
        if spec.output_dim != d:
            raise FormatError(f"{path}: feature_dim {d} inconsistent with map")
        mean = r.f64(d, (d,), "C")
        eigenvalues = r.f64(d, (d,), "C")
        basis = r.f64(d * q, (d, q), "F")
        residual = r.f64(d * (d - q), (d, d - q), "F") if has_residual else None
        r.done()
        return DetectorModel(
            map_spec=spec,
            mean=mean,
            basis=basis,
            residual_basis=residual,
            eigenvalues=eigenvalues,
            q=int(q),
            evr_target=float(evr),
        )

    evr, gamma, n, m, l = r.unpack("<ddIII")
    if not 1 <= l <= n:
        raise FormatError(f"{path}: l {l} outside [1, n_train {n}]")
    train = r.f64(n * m, (n, m), "C")
    vectors = r.f64(n * l, (n, l), "F")
    r.done()
    return KernelSpaceModel(
        kernel_kind=COSINE_KERNEL if method == METHOD_KCOS else GAUSSIAN_KERNEL,
        gamma=float(gamma),
        train=train,
        residual_vectors=vectors,
        l=int(l),
        evr_target=float(evr),
    )


# ------------------------------------------------------------------ scores


def save_scores(path, indices, values) -> None:
    """Write an index,score CSV with lossless float rendering."""
    idx = np.asarray(indices, dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    if idx.shape != vals.shape or idx.ndim != 1:
        raise FormatError("indices and scores must be matching 1-D vectors")
    # Python ints and floats from tolist() format faster than numpy scalars.
    rows = [f"{i},{v:.17g}\n" for i, v in zip(idx.tolist(), vals.tolist())]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index,score\n" + "".join(rows))


def load_scores(path):
    """Read an index,score CSV; returns (indices, values).

    Rejects a NaN or Inf score with NonFiniteError naming its line.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "index,score":
        raise FormatError(f"{path}: missing 'index,score' header")
    idx, vals = [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            left, right = line.split(",")
            idx.append(int(left))
            vals.append(float(right))
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: bad row {line!r}") from exc
        if not math.isfinite(vals[-1]):
            raise NonFiniteError(f"{path}:{ln}: non-finite score {right!r}")
    return np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=np.float64)
