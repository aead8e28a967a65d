"""Portable binary model files.

Layout (all integers little-endian):

    magic "S2SW" | version u32 | kind string
    vocab count u32, then per vocabulary: v_all u64, token count u32, tokens
    hyperparameter count u32, then key/value string pairs
    tensor count u32, then per tensor: name, rank u32, dims u32*, f64 payload
    count-table flag u32; if set: entry count u64, then records of
        (length u32, ids u32*, count u64)

Strings are a u32 byte length plus UTF-8 bytes. Tensor payloads are row-major
float64, so a save/load round trip reproduces parameters bit for bit.

Each model class declares its own record: ``kind``, ``file_vocabs`` (the
attributes holding the vocabularies its constructor takes first),
``hparams`` (its constructor settings), ``file_tensors()`` (name -> array
views, in file order) and ``counts`` (n-gram count records, else None).
:func:`load_model` builds the kind's class from the vocabularies and the
settings, writes each tensor into the new model's view, and installs the
count table and an encoder-decoder ``length_prior``. Any malformed file
raises DataError naming it.

Recurrent cells are stored one tensor per gate (``rnn.l0.W_xu``,
``rnn.l0.b_f``, ...): a cell's stacked gate parameters are split into their
gate row blocks on save and filled back from them on load.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import DataError, Vocabulary
from .loglinear import LogLinearLM
from .ngram import NGramLM
from .nnet import FFNNLM, RNNLM
from .search import LengthPrior
from .seq2seq import EncDecModel

MAGIC = b"S2SW"
VERSION = 1


@dataclass
class ModelFile:
    kind: str
    vocabs: list
    hparams: dict = field(default_factory=dict)
    tensors: dict = field(default_factory=dict)
    counts: dict | None = None


def _pack_str(out, text: str):
    blob = text.encode("utf-8")
    out.append(struct.pack("<I", len(blob)))
    out.append(blob)


def write_modelfile(mf: ModelFile, path):
    out = []
    out.append(MAGIC)
    out.append(struct.pack("<I", VERSION))
    _pack_str(out, mf.kind)
    out.append(struct.pack("<I", len(mf.vocabs)))
    for vocab in mf.vocabs:
        out.append(struct.pack("<Q", vocab.v_all))
        out.append(struct.pack("<I", len(vocab.tokens)))
        for tok in vocab.tokens:
            _pack_str(out, tok)
    out.append(struct.pack("<I", len(mf.hparams)))
    for key, value in mf.hparams.items():
        _pack_str(out, key)
        _pack_str(out, str(value))
    out.append(struct.pack("<I", len(mf.tensors)))
    for name, tensor in mf.tensors.items():
        _pack_str(out, name)
        arr = np.ascontiguousarray(tensor, dtype=np.float64)
        out.append(struct.pack("<I", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.tobytes())
    out.append(struct.pack("<I", 1 if mf.counts is not None else 0))
    if mf.counts is not None:
        out.append(struct.pack("<Q", len(mf.counts)))
        for ids in sorted(mf.counts):
            out.append(struct.pack("<I", len(ids)))
            out.append(struct.pack(f"<{len(ids)}I", *ids))
            out.append(struct.pack("<Q", mf.counts[ids]))
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise DataError(f"{self.path}: truncated model file")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def read_modelfile(path) -> ModelFile:
    try:
        blob = open(path, "rb").read()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return _parse(_Reader(blob, path))
    except ValueError as exc:   # undecodable strings, bad vocabularies or tensor ranks
        raise DataError(f"{path}: malformed model file ({exc})") from exc


def _parse(r: _Reader) -> ModelFile:
    path = r.path
    if r.take(4) != MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise DataError(f"{path}: unsupported model file version {version}, "
                        f"this build reads version {VERSION}")
    kind = r.string()
    vocabs = []
    for _ in range(r.u32()):
        v_all = r.u64()
        tokens = [r.string() for _ in range(r.u32())]
        vocabs.append(Vocabulary(tokens=tokens, v_all=v_all))
    hparams = {}
    for _ in range(r.u32()):
        key = r.string()
        hparams[key] = r.string()
    tensors = {}
    for _ in range(r.u32()):
        name = r.string()
        rank = r.u32()
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
        size = int(np.prod(dims)) if rank else 1
        data = np.frombuffer(r.take(8 * size), dtype="<f8").reshape(dims)
        tensors[name] = data.copy()
    counts = None
    if r.u32():
        counts = {}
        for _ in range(r.u64()):
            length = r.u32()
            ids = struct.unpack(f"<{length}I", r.take(4 * length))
            counts[ids] = r.u64()
    return ModelFile(kind=kind, vocabs=vocabs, hparams=hparams,
                     tensors=tensors, counts=counts)


# ---- model <-> file ---------------------------------------------------------

MODEL_CLASSES = {cls.kind: cls for cls in (NGramLM, LogLinearLM, FFNNLM, RNNLM,
                                           EncDecModel)}


def save_model(model, path):
    write_modelfile(ModelFile(
        kind=model.kind, vocabs=[getattr(model, name) for name in model.file_vocabs],
        hparams=model.hparams, tensors=model.file_tensors(), counts=model.counts), path)


def load_model(path):
    """Read a model file back into the model it records."""
    mf = read_modelfile(path)
    cls = MODEL_CLASSES.get(mf.kind)
    if cls is None:
        raise DataError(f"{path}: unknown model kind {mf.kind!r}")
    if len(mf.vocabs) != len(cls.file_vocabs):
        raise DataError(f"{path}: a {mf.kind} model file holds "
                        f"{len(cls.file_vocabs)} vocabularies, this one {len(mf.vocabs)}")
    for name, tensor in mf.tensors.items():
        if not np.isfinite(tensor).all():
            raise DataError(f"{path}: tensor {name!r} holds NaN or Inf")
    try:
        model = cls(*mf.vocabs, **{key: int(value) if value.isdecimal() else value
                                   for key, value in mf.hparams.items()})
    except (AttributeError, TypeError, ValueError) as exc:  # settings it lacks or rejects
        raise DataError(f"{path}: model file has invalid settings ({exc})") from exc
    built = {key: str(value) for key, value in model.hparams.items()}
    if built != mf.hparams:
        raise DataError(f"{path}: model file has invalid settings ({mf.hparams}; "
                        f"a {mf.kind} model built from them has {built})")
    try:
        for name, view in model.file_tensors().items():
            view[...] = _tensor(mf.tensors, name, view.shape)
        if model.counts is not None:
            model.counts = mf.counts or {}
        if "length_prior" in mf.tensors:
            model.length_prior = LengthPrior.from_rows(mf.tensors["length_prior"])
    except (DataError, ValueError) as exc:  # a tensor or count record the model rejects
        raise DataError(f"{path}: {exc}") from exc
    return model


def _tensor(tensors, name, shape) -> np.ndarray:
    """The file's tensor ``name``, which must have ``shape``."""
    if name not in tensors:
        raise DataError(f"model file is missing tensor {name!r}")
    if tensors[name].shape != shape:
        raise DataError(f"tensor {name!r} has shape {tensors[name].shape}, "
                        f"expected {shape}")
    return tensors[name]
