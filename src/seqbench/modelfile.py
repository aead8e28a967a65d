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

A save packs the small header pieces first, so a model that cannot be
serialized leaves an earlier file in place, then hands them and the
tensors' own buffers to one ``writelines``: no payload is copied. A read
fills one ``bytearray`` from the file, and each tensor is a writable,
bounds-checked ``np.frombuffer`` view into it. A load copies each view into
the new model, the payload's one copy, and builds the neural kinds with a
generator stand-in that draws nothing, so no initial value is drawn only to
be overwritten.

Recurrent cells are stored one tensor per gate (``rnn.l0.W_xu``,
``rnn.l0.b_f``, ...): a cell's stacked gate parameters are split into their
gate row blocks on save and filled back from them on load.
"""

from __future__ import annotations

import inspect
import math
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

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


@dataclass
class ModelFile:
    kind: str
    vocabs: list
    hparams: dict = field(default_factory=dict)
    tensors: dict = field(default_factory=dict)
    counts: dict | None = None


def _strings(texts) -> bytes:
    """The strings ``texts`` in file form, built in one pass: the u32 byte
    lengths are packed together and interleaved with the UTF-8 bytes in one
    join."""
    blobs = [text.encode("utf-8") for text in texts]
    out = [b""] * (2 * len(blobs))
    out[0::2] = map(_U32.pack, map(len, blobs))
    out[1::2] = blobs
    return b"".join(out)


def write_modelfile(mf: ModelFile, path):
    out = [MAGIC, _U32.pack(VERSION), _strings([mf.kind]), _U32.pack(len(mf.vocabs))]
    for vocab in mf.vocabs:
        out += [_U64.pack(vocab.v_all), _U32.pack(len(vocab.tokens)),
                _strings(vocab.tokens)]
    out.append(_U32.pack(len(mf.hparams)))
    out.append(_strings([text for key, value in mf.hparams.items()
                         for text in (key, str(value))]))
    out.append(_U32.pack(len(mf.tensors)))
    for name, tensor in mf.tensors.items():
        arr = np.ascontiguousarray(tensor, dtype="<f8")
        out += [_strings([name]), struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape),
                arr]                    # the buffer itself, not a copy
    out.append(_U32.pack(1 if mf.counts is not None else 0))
    if mf.counts is not None:
        out.append(_U64.pack(len(mf.counts)))
        for ids in sorted(mf.counts):
            out.append(struct.pack(f"<I{len(ids)}IQ", len(ids), *ids, mf.counts[ids]))
    with open(path, "wb") as fh:
        fh.writelines(out)


class _Reader:
    """A cursor over a model file's bytes; every read is bounds-checked."""

    def __init__(self, buf: bytearray, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def _truncated(self) -> DataError:
        return DataError(f"{self.path}: truncated model file")

    def skip(self, n: int) -> int:
        """Move past the next ``n`` bytes; returns where they start."""
        start = self.pos
        if start + n > len(self.buf):
            raise self._truncated()
        self.pos = start + n
        return start

    def take(self, n: int) -> bytes:
        start = self.skip(n)
        return bytes(self.buf[start:self.pos])

    def u32(self) -> int:
        return _U32.unpack_from(self.buf, self.skip(4))[0]

    def u64(self) -> int:
        return _U64.unpack_from(self.buf, self.skip(8))[0]

    def u32s(self, count: int) -> tuple:
        return struct.unpack_from(f"<{count}I", self.buf, self.skip(4 * count))

    def strings(self, count: int) -> list[str]:
        """The next ``count`` strings, parsed in one loop."""
        buf, pos, end = self.buf, self.pos, len(self.buf)
        unpack = _U32.unpack_from
        out = []
        for _ in range(count):
            if pos + 4 > end:
                raise self._truncated()
            n, = unpack(buf, pos)
            start = pos + 4
            pos = start + n
            if pos > end:
                raise self._truncated()
            out.append(buf[start:pos].decode("utf-8"))
        self.pos = pos
        return out

    def tensor(self) -> np.ndarray:
        """The next tensor, as a view into the file's bytes."""
        dims = self.u32s(self.u32())
        size = math.prod(dims)
        return np.frombuffer(self.buf, dtype="<f8", count=size,
                             offset=self.skip(8 * size)).reshape(dims)


def read_modelfile(path) -> ModelFile:
    """The file at ``path``, read once into one buffer that its tensors view."""
    try:
        with open(path, "rb") as fh:
            buf = bytearray(fh.read())
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return _parse(_Reader(buf, path))
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
    kind, = r.strings(1)
    vocabs = []
    for _ in range(r.u32()):
        v_all = r.u64()
        vocabs.append(Vocabulary(tokens=r.strings(r.u32()), v_all=v_all))
    pairs = r.strings(2 * r.u32())
    hparams = dict(zip(pairs[0::2], pairs[1::2]))
    tensors = {}
    for _ in range(r.u32()):
        name, = r.strings(1)
        tensors[name] = r.tensor()
    counts = None
    if r.u32():
        counts = {}
        for _ in range(r.u64()):
            ids = r.u32s(r.u32())
            counts[ids] = r.u64()
    return ModelFile(kind=kind, vocabs=vocabs, hparams=hparams,
                     tensors=tensors, counts=counts)


# ---- model <-> file ---------------------------------------------------------

MODEL_CLASSES = {cls.kind: cls for cls in (NGramLM, LogLinearLM, FFNNLM, RNNLM,
                                           EncDecModel)}


class _NoDraws:
    """A random generator stand-in whose ``uniform`` draws nothing and returns
    zeros: initial values a model file is about to overwrite."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)


_NO_DRAWS = _NoDraws()
# the kinds whose constructors draw their initial values from ``rng``
_DRAWING = frozenset(cls for cls in MODEL_CLASSES.values()
                     if "rng" in inspect.signature(cls).parameters)


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
    settings = {key: int(value) if value.isdecimal() else value
                for key, value in mf.hparams.items()}
    if cls in _DRAWING:
        settings.setdefault("rng", _NO_DRAWS)   # a file's own rng is still refused
    try:
        model = cls(*mf.vocabs, **settings)
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
