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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import DataError, Vocabulary

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

def save_model(model, path):
    write_modelfile(_pack(model), path)


def load_model(path):
    """Read a model file back into its model; any malformed file, or one whose
    tensors hold NaN or Inf, raises DataError."""
    mf = read_modelfile(path)
    unpacker = _UNPACKERS.get(mf.kind)
    if unpacker is None:
        raise DataError(f"{path}: unknown model kind {mf.kind!r}")
    for name, tensor in mf.tensors.items():
        if not np.isfinite(tensor).all():
            raise DataError(f"{path}: tensor {name!r} holds NaN or Inf")
    try:
        return unpacker(mf)
    except DataError as exc:    # a tensor the model rejects
        raise DataError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise DataError(f"{path}: model file lacks entry {exc}") from exc
    except ValueError as exc:   # hyperparameters the model rejects
        raise DataError(f"{path}: model file has invalid settings ({exc})") from exc


def _pack(model) -> ModelFile:
    from .loglinear import LogLinearLM
    from .ngram import NGramLM
    from .nnet import FFNNLM, RNNLM
    from .seq2seq import EncDecModel

    if isinstance(model, NGramLM):
        return ModelFile(
            kind="ngram", vocabs=[model.vocab], hparams={"n": model.n},
            tensors={"alpha": np.array(model.weights.alphas).reshape(-1, 1)},
            counts=dict(model.table.counts))
    if isinstance(model, LogLinearLM):
        return ModelFile(
            kind="loglinear", vocabs=[model.vocab],
            hparams={"template": model.template.name,
                     "suffix_len": model.template.suffix_len},
            tensors={"W": model.W, "b": model.b})
    if isinstance(model, (FFNNLM, RNNLM)):
        hparams = {"embed_size": model.embed_size, "hidden_size": model.hidden_size}
        if isinstance(model, FFNNLM):
            hparams.update(n=model.n, nonlinearity=model.nonlinearity)
        else:
            hparams.update(cell=model.rnn.kind, layers=len(model.rnn.cells),
                           residual=int(model.rnn.residual))
        return ModelFile(kind=model.kind, vocabs=[model.vocab], hparams=hparams,
                         tensors={p.name: p.value for p in model.parameters()})
    if isinstance(model, EncDecModel):
        hparams = {"embed_size": model.embed_size, "hidden_size": model.hidden_size,
                   "dec_hidden": model.dec_hidden, "layers": model.layers,
                   "encoder": model.encoder_direction, "bridge": model.bridge,
                   "attention": model.attention, "cell": model.cell}
        if model.attention == "mlp":
            hparams["attn_hidden"] = model.W_a1_dec.value.shape[0]
        tensors = {p.name: p.value for p in model.parameters()}
        prior = getattr(model, "length_prior", None)
        if prior is not None:
            rows = [(e, f, c) for (e, f), c in sorted(prior.pair_counts.items())]
            tensors["length_prior"] = np.array(rows, dtype=np.float64).reshape(-1, 3)
        return ModelFile(kind="encdec", vocabs=[model.src_vocab, model.tgt_vocab],
                         hparams=hparams, tensors=tensors)
    raise TypeError(f"cannot persist model of type {type(model).__name__}")


def _restore_params(model, tensors):
    """Copy each parameter's tensor into the model; ``load_model`` adds the
    file's path to the ``DataError`` raised for a missing or misshapen one."""
    for p in model.parameters():
        if p.name not in tensors:
            raise DataError(f"model file is missing tensor {p.name!r}")
        if tensors[p.name].shape != p.value.shape:
            raise DataError(f"tensor {p.name!r} has shape {tensors[p.name].shape}, "
                            f"expected {p.value.shape}")
        p.value[...] = tensors[p.name]
        p.changed()


def _unpack_ngram(mf: ModelFile):
    from .ngram import InterpolationWeights, NGramCountTable, NGramLM

    n = int(mf.hparams["n"])
    table = NGramCountTable(n=n)
    table.counts = dict(mf.counts or {})
    for gram, count in table.counts.items():
        ctx = gram[:-1]
        table.context_counts[ctx] = table.context_counts.get(ctx, 0) + count
    weights = InterpolationWeights([float(a) for a in mf.tensors["alpha"][:, 0]])
    return NGramLM(mf.vocabs[0], table, weights)


def _unpack_loglinear(mf: ModelFile):
    from .loglinear import LogLinearLM

    return LogLinearLM(mf.vocabs[0], mf.hparams["template"],
                       suffix_len=int(mf.hparams["suffix_len"]),
                       W=mf.tensors["W"].copy(), b=mf.tensors["b"].copy())


def _unpack_ffnnlm(mf: ModelFile):
    from .nnet import FFNNLM

    model = FFNNLM(mf.vocabs[0], n=int(mf.hparams["n"]),
                   embed_size=int(mf.hparams["embed_size"]),
                   hidden_size=int(mf.hparams["hidden_size"]),
                   nonlinearity=mf.hparams["nonlinearity"])
    _restore_params(model, mf.tensors)
    return model


def _unpack_rnnlm(mf: ModelFile):
    from .nnet import RNNLM

    model = RNNLM(mf.vocabs[0], cell=mf.hparams["cell"],
                  embed_size=int(mf.hparams["embed_size"]),
                  hidden_size=int(mf.hparams["hidden_size"]),
                  layers=int(mf.hparams["layers"]),
                  residual=bool(int(mf.hparams["residual"])))
    _restore_params(model, mf.tensors)
    return model


def _unpack_encdec(mf: ModelFile):
    from .search import LengthPrior
    from .seq2seq import EncDecModel

    model = EncDecModel(
        mf.vocabs[0], mf.vocabs[1],
        embed_size=int(mf.hparams["embed_size"]),
        hidden_size=int(mf.hparams["hidden_size"]),
        dec_hidden=int(mf.hparams["dec_hidden"]),
        layers=int(mf.hparams["layers"]), encoder=mf.hparams["encoder"],
        bridge=mf.hparams["bridge"], attention=mf.hparams["attention"],
        attn_hidden=int(mf.hparams.get("attn_hidden", mf.hparams["hidden_size"])),
        cell=mf.hparams["cell"])
    tensors = dict(mf.tensors)
    prior_rows = tensors.pop("length_prior", None)
    if prior_rows is not None:
        prior = LengthPrior()
        for e_len, f_len, count in prior_rows:
            key = (int(e_len), int(f_len))
            prior.pair_counts[key] = int(count)
            prior.source_counts[key[1]] = (prior.source_counts.get(key[1], 0)
                                           + int(count))
        model.length_prior = prior
    _restore_params(model, tensors)
    return model


_UNPACKERS = {"ngram": _unpack_ngram, "loglinear": _unpack_loglinear,
              "ffnnlm": _unpack_ffnnlm, "rnnlm": _unpack_rnnlm,
              "encdec": _unpack_encdec}
