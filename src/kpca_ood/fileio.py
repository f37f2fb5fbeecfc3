"""Binary containers and the score CSV format.

Feature container ("OODF"): magic, version byte 0x01, u32 rows, u32 cols
(little-endian), then rows*cols IEEE-754 float32 values row-major. Used
for features and for logits. Storage is 32-bit to match typical feature
exports; everything computes in 64-bit after load. ``save_features`` gates
an array input one row block at a time and holds only its float32 payload
besides its input (none for a C-contiguous float32 input), and writes that
array itself; any other input (a list, say) is converted once, by the gate.
``load_features`` holds only its float64 result and one float32 row block
(``linalg._BLOCK_BYTES``): it reads the file one block at a time into a
reused buffer and passes each converted block of the result through the
ingestion gate, so the whole file is never in memory as bytes.

Model container ("OODM"), version 2: magic, version byte 0x02, method byte
(the tag's position in ``METHODS``), then a method-family payload with all
reals as little-endian float64, then a u32 CRC-32 (``zlib.crc32``) of every
preceding byte. Each file holds the narrower eigenbasis, U or R:

  covariance family (pca, cop, corp, colp):
      evr_target f64 in (0, 1], input_dim u32, feature_dim u32, q u32, flags u8
      (bit0 = has frequencies block, bit1 = has residual basis),
      [kernel u8 (its index in featmap.RFF_KERNELS: 0 gaussian, 1 laplacian),
       gamma f64 > 0, M u32, d_in u32 (= input_dim), seed u64,
       omegas M*d_in row-major, biases M],
      mean D, eigenvalues D,
      basis column-major: U (D*q) when 2q <= D, else R (D*(D-q)), an
      orthonormal basis of U's complement,
      [residual basis D*(D-q) column-major]

  kernel family (kcos, kgau; gamma exactly 0.0 for kcos, which has no
  bandwidth, and finite and > 0 for kgau):
      evr_target f64 in (0, 1), gamma f64, n_train u32, input_dim u32, l u32,
      flags u8 (bit0 = holds the N-l leading Gram eigenvectors V, else the
      l trailing ones A),
      train N*m row-major (normalized rows),
      vectors column-major: V (N*(N-l)) or A (N*l)

The loader checks every header field rule first, so each keeps its own
message, then the file's length and the checksum, and only then reads
payload values; a damaged file raises FormatError. A covariance model that
scores through R but holds U (q >= D/3 in any version-1 file, and
D/3 <= q <= D/2 in version 2) derives R from U by QR on load, as its fit
did. Version 1 (no trailer, no Gram flags byte, the covariance basis always
U) still loads, and any version-1 Gram model holds A. Saving always writes
version 2.

Scores CSV: header "index,score", one row per scored input, values
rendered with 17 significant digits so parsing returns the exact written
float64; it is formatted and written one block of rows at a time. All
load paths validate magic/version/lengths and header ranges and reject
non-finite payloads; save->load->save is byte-identical.
"""

from __future__ import annotations

import io
import math
import os
import struct
import warnings
import zlib

import numpy as np

from .detector import DetectorModel
from .errors import FormatError, NonFiniteError
from .featmap import (
    COSINE_STAGE,
    GAUSSIAN,
    IDENTITY_STAGE,
    LAPLACIAN,
    RFF_KERNELS,
    FeatureMapSpec,
    RffMap,
)
from .kernelspace import COSINE_KERNEL, GAUSSIAN_KERNEL, KernelSpaceModel
from .linalg import _block_rows, _row_blocks, as_feature_matrix

FEATURE_MAGIC = b"OODF"
MODEL_MAGIC = b"OODM"
FEATURE_VERSION = 1
MODEL_VERSION = 2

# tag -> (map stage, kernel). A covariance method maps rows through its
# stage, then through random Fourier features of its kernel if it has one;
# a GRAM method eigendecomposes its kernel's Gram matrix over the stored
# training rows. A tag's position is its method byte.
GRAM = "gram"
METHODS = {
    "pca": (IDENTITY_STAGE, None),
    "cop": (COSINE_STAGE, None),
    "corp": (COSINE_STAGE, GAUSSIAN),
    "colp": (COSINE_STAGE, LAPLACIAN),
    "kcos": (GRAM, COSINE_KERNEL),
    "kgau": (GRAM, GAUSSIAN_KERNEL),
}

_U32_MAX = 2**32 - 1
_SCORE_BLOCK_ROWS = 65536  # rows of the score CSV formatted per write
_CSV_CHARS = b"0123456789+-.eE,\n"  # every byte of a score CSV body with finite rows


def _is_plus_zero(x: float) -> bool:
    return x == 0.0 and math.copysign(1.0, x) > 0.0


# ---------------------------------------------------------------- features


def save_features(path, x) -> None:
    """Write a feature/logits matrix as a float32 container."""
    # A real, non-empty 2-D array keeps its dtype and is gated one row block
    # at a time, so it is never upcast whole; anything else is gated whole,
    # which converts a list once or raises the gate's error for the input.
    whole = not isinstance(x, np.ndarray) or x.dtype.kind == "c"
    if whole or x.ndim != 2 or not x.size:
        x = as_feature_matrix(x)
    cols = x.shape[1]
    rows = _row_blocks(lambda b: len(as_feature_matrix(b)), x, cols, fold=int.__add__)
    if rows > _U32_MAX or cols > _U32_MAX:
        raise FormatError("matrix too large for the u32 header")
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(x, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        raise NonFiniteError("values overflow float32 storage")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sBII", FEATURE_MAGIC, FEATURE_VERSION, rows, cols))
        fh.write(payload)  # C-contiguous, so its buffer is the row-major bytes


def load_features(path) -> np.ndarray:
    """Read a feature/logits container back as float64, one row block at a time."""
    with open(path, "rb") as fh:
        r = _Reader(path, FEATURE_MAGIC, (FEATURE_VERSION,), fh.read(13))
        rows, cols = r.unpack("<II")
        want = 13 + rows * cols * 4
        size = os.fstat(fh.fileno()).st_size
        if size != want:
            raise FormatError(f"{path}: expected {want} bytes, found {size}")
        if rows < 1 or cols < 1:
            raise FormatError(f"{path}: empty matrix ({rows}x{cols})")
        out = np.empty((rows, cols))
        block = min(rows, _block_rows(cols))
        buf = np.empty((block, cols), "<f4")
        for start in range(0, rows, block):
            part = buf[: min(block, rows - start)]
            if fh.readinto(part) != part.nbytes:
                raise FormatError(f"{path}: truncated at offset {13 + 4 * start * cols}")
            dest = out[start : start + part.shape[0]]
            dest[...] = part
            # A contiguous float64 slice passes the gate without a copy.
            as_feature_matrix(dest, f"{path}: payload")
    return out


# ------------------------------------------------------------------ models


def method_for_model(model) -> str:
    """Canonical method tag for a fitted model: the tag of the METHODS row
    its structure matches."""
    row = None
    if isinstance(model, KernelSpaceModel):
        row = (GRAM, model.kernel_kind)
    elif isinstance(model, DetectorModel):
        # A FeatureMapSpec holds a METHODS row's layout, so this always matches.
        spec = model.map_spec
        row = (spec.stage, None if spec.rff is None else spec.rff.kernel_kind)
    for tag, method_row in METHODS.items():
        if method_row == row:
            return tag
    raise FormatError("model layout has no canonical method tag")


def _pack_f64(a: np.ndarray, order: str) -> bytes:
    return np.asarray(a, dtype="<f8").tobytes(order=order)


def save_model(path, model) -> None:
    """Write a version-2 model container: the basis its scorer reads, then
    a CRC-32 of every preceding byte."""
    tag = method_for_model(model)
    stage, kernel = METHODS[tag]
    parts = [struct.pack("<4sBB", MODEL_MAGIC, MODEL_VERSION, list(METHODS).index(tag))]
    if stage != GRAM:
        d = model.feature_dim
        q = model.q
        rff = model.map_spec.rff
        flags = (rff is not None) | 2 * (model.residual_basis is not None)
        parts.append(
            struct.pack(
                "<dIIIB", model.evr_target, model.map_spec.input_dim, d, q, flags
            )
        )
        if rff is not None:
            parts.append(
                struct.pack(
                    "<BdIIQ",
                    RFF_KERNELS.index(kernel),
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
        parts.append(_pack_f64(model.basis if 2 * q <= d else model.complement, "F"))
        if model.residual_basis is not None:
            parts.append(_pack_f64(model.residual_basis, "F"))
    else:
        if kernel == COSINE_KERNEL and not _is_plus_zero(model.gamma):
            raise FormatError(f"kcos model gamma {model.gamma} is not 0.0")
        n, m = model.train.shape
        leading = model.residual_vectors is None
        parts.append(
            struct.pack(
                "<ddIIIB", model.evr_target, model.gamma, n, m, model.l, leading
            )
        )
        parts.append(_pack_f64(model.train, "C"))
        vectors = model.leading_vectors if leading else model.residual_vectors
        parts.append(_pack_f64(vectors, "F"))
    blob = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(struct.pack("<I", zlib.crc32(blob)))


class _Reader:
    """A container file's bytes (or, given ``blob``, its leading bytes), read
    past its checked magic and version.

    A version-2 model file ends in a CRC-32 trailer that ``arrays`` checks
    before it reads any payload value.
    """

    def __init__(self, path, magic: bytes, versions, blob: bytes | None = None):
        if blob is None:
            with open(path, "rb") as fh:
                blob = fh.read()
        self.blob = blob
        self.path = path
        self.pos = 0
        self.end = len(self.blob)
        found, self.version = self.unpack("<4sB")
        if found != magic:
            raise FormatError(f"{path}: bad magic {found!r}")
        if self.version not in versions:
            raise FormatError(f"{path}: unsupported version {self.version}")
        if magic == MODEL_MAGIC and self.version >= 2:
            self.end -= 4

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > self.end:
            raise FormatError(f"{self.path}: truncated at offset {self.pos}")
        out = struct.unpack_from(fmt, self.blob, self.pos)
        self.pos += size
        return out

    def arrays(self, *layouts) -> list:
        """The rest of the file as float64 arrays of the (shape, order) layouts.

        The arrays must fill the file up to its trailer, and the checksum
        must match, before any value is checked finite and copied out.
        """
        views = []
        for shape, _ in layouts:
            count = math.prod(shape)
            if self.pos + count * 8 > self.end:
                raise FormatError(f"{self.path}: truncated at offset {self.pos}")
            views.append(np.frombuffer(self.blob, "<f8", count, self.pos))
            self.pos += count * 8
        if self.pos != self.end:
            raise FormatError(f"{self.path}: {self.end - self.pos} trailing bytes")
        if self.end < len(self.blob):
            (crc,) = struct.unpack_from("<I", self.blob, self.end)
            if zlib.crc32(memoryview(self.blob)[: self.end]) != crc:
                raise FormatError(f"{self.path}: checksum mismatch")
        out = []
        for a, (shape, order) in zip(views, layouts):
            if not np.isfinite(a).all():
                raise NonFiniteError(f"{self.path}: model payload contains NaN or Inf")
            # One copy: native, writable, row-major, and not a view of the blob.
            out.append(np.array(a.reshape(shape, order=order), np.float64, order="C"))
        return out


def load_model(path):
    """Load a version-1 or version-2 model container; returns DetectorModel
    or KernelSpaceModel."""
    r = _Reader(path, MODEL_MAGIC, (1, MODEL_VERSION))
    (method_byte,) = r.unpack("<B")
    if method_byte >= len(METHODS):
        raise FormatError(f"{path}: unknown method byte {method_byte}")
    method = list(METHODS)[method_byte]
    stage, kernel = METHODS[method]

    if stage != GRAM:
        evr, input_dim, d, q, flags = r.unpack("<dIIIB")
        if not 0.0 < evr <= 1.0:
            raise FormatError(f"{path}: evr_target {evr} outside (0, 1]")
        if not 1 <= q <= d:
            raise FormatError(f"{path}: q {q} outside [1, feature_dim {d}]")
        if flags > 3 or bool(flags & 1) != (kernel is not None):
            raise FormatError(f"{path}: flags disagree with method {method}")
        layouts = []
        m = input_dim
        if kernel is not None:
            kernel_byte, gamma, m, d_in, seed = r.unpack("<BdIIQ")
            if kernel_byte != RFF_KERNELS.index(kernel):
                raise FormatError(f"{path}: bad kernel byte {kernel_byte} for {method}")
            if not 0 < gamma < math.inf:
                raise FormatError(f"{path}: gamma {gamma} is not finite and > 0")
            if d_in != input_dim:
                raise FormatError(f"{path}: d_in {d_in} != input_dim {input_dim}")
            layouts += [((m, d_in), "C"), ((m,), "C")]
        if m != d:
            raise FormatError(f"{path}: feature_dim {d} inconsistent with map")
        # Version 2 holds R, not U, when 2q > D.
        holds_r = r.version >= 2 and 2 * q > d
        layouts += [((d,), "C"), ((d,), "C"), ((d, d - q if holds_r else q), "F")]
        if flags & 2:
            layouts.append(((d, d - q), "F"))
        arrays = r.arrays(*layouts)
        residual = arrays.pop() if flags & 2 else None
        mean, eigenvalues, basis = arrays[-3:]
        rff = None if kernel is None else RffMap(kernel, gamma, *arrays[:2], int(seed))
        return DetectorModel(
            map_spec=FeatureMapSpec(stage, input_dim, rff),
            mean=mean,
            basis=None if holds_r else basis,
            residual_basis=residual,
            eigenvalues=eigenvalues,
            q=int(q),
            evr_target=float(evr),
            complement=basis if holds_r else None,
        )

    if r.version >= 2:
        evr, gamma, n, m, l, flags = r.unpack("<ddIIIB")
    else:
        (evr, gamma, n, m, l), flags = r.unpack("<ddIII"), 0
    if not 0.0 < evr < 1.0:
        raise FormatError(f"{path}: evr_target {evr} outside (0, 1)")
    if flags > 1:
        raise FormatError(f"{path}: unknown flags {flags}")
    if not 1 <= l <= n:
        raise FormatError(f"{path}: l {l} outside [1, n_train {n}]")
    if kernel == GAUSSIAN_KERNEL and not 0 < gamma < math.inf:
        raise FormatError(f"{path}: gamma {gamma} is not finite and > 0")
    if kernel == COSINE_KERNEL and not _is_plus_zero(gamma):
        raise FormatError(f"{path}: kcos gamma {gamma} is not 0.0")
    train, vectors = r.arrays(((n, m), "C"), ((n, n - l if flags else l), "F"))
    return KernelSpaceModel(
        kernel_kind=kernel,
        gamma=float(gamma),
        train=train,
        residual_vectors=None if flags else vectors,
        l=int(l),
        evr_target=float(evr),
        leading_vectors=vectors if flags else None,
    )


# ------------------------------------------------------------------ scores


def save_scores(path, indices, values) -> None:
    """Write an index,score CSV with lossless float rendering."""
    idx = np.asarray(indices, dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    if idx.shape != vals.shape or idx.ndim != 1:
        raise FormatError("indices and scores must be matching 1-D vectors")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index,score\n")
        for start in range(0, idx.size, _SCORE_BLOCK_ROWS):
            # Python ints and floats from tolist() format faster than numpy
            # scalars, and one % call per block beats one per row.
            i = idx[start : start + _SCORE_BLOCK_ROWS].tolist()
            cells = [None] * (2 * len(i))
            cells[::2] = i
            cells[1::2] = vals[start : start + _SCORE_BLOCK_ROWS].tolist()
            fh.write("%d,%.17g\n" * len(i) % tuple(cells))


def load_scores(path):
    """Read an index,score CSV; returns (indices, values).

    Rejects a NaN or Inf score with NonFiniteError naming its line.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    # The fast path takes only files made of the characters a finite CSV
    # row needs; loadtxt then parses exactly what the per-line reader
    # would. Anything else, or any value loadtxt rejects or finds not
    # finite, goes to the per-line reader, which raises its own error.
    if header == "index,score" and not body.encode().translate(None, _CSV_CHARS):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "input contained no data"
                rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                                  dtype=[("i", "<i8"), ("s", "<f8")], ndmin=1)
        except (ValueError, Warning):
            rows = None
        if rows is not None and np.isfinite(rows["s"]).all():
            return np.ascontiguousarray(rows["i"]), np.ascontiguousarray(rows["s"])
    lines = text.splitlines()
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
