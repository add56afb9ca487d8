"""Model persistence: one .npz container per trained model.

The container is self-describing — a JSON metadata blob (method tag, owner,
vocabulary and its hash, then the class's own fields such as the floor and
training provenance) plus the parameter arrays at full double precision, so
a save/load round trip reproduces scores bit-for-bit. Each model class
lays out its own fields and arrays (`to_arrays`/`from_arrays`); this module
owns only the container around them.
"""

from __future__ import annotations

import hashlib
import io
import json
import tokenize
import zipfile
from pathlib import Path

import numpy as np

from ..encode import Vocabulary
from ..ingest import FormatError

FORMAT_NAME = "appauth-model"
FORMAT_VERSION = 1

# What zipfile and numpy raise on a damaged .npz beyond ValueError and
# OSError: a mangled archive, member header or CRC; a member cut short of its
# recorded size; a zip version or compression method zipfile lacks; a member
# flagged as encrypted; an .npy header that numpy cannot tokenize.
DAMAGED = (zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError, tokenize.TokenError)


def vocabulary_hash(vocab: Vocabulary) -> str:
    return hashlib.sha256("\n".join(vocab.apps).encode("utf-8")).hexdigest()


def _model_classes() -> dict:
    from . import MODEL_CLASSES  # the package imports this module first

    return MODEL_CLASSES


def save_model(model, path: str | Path, owner: str) -> None:
    """Write any of the six trained model kinds, and the id of the user it
    verifies, to an .npz container."""
    if _model_classes().get(getattr(model, "method", None)) is not type(model):
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    extras, arrays = model.to_arrays()
    meta: dict = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "method": model.method,
        "owner": owner,
        "vocab": model.vocab.to_json(),
        "vocab_hash": vocabulary_hash(model.vocab),
        **extras,
    }
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def load_model(path: str | Path) -> tuple:
    """Read a model container back into (model, owner): the model of the
    class its method tag names, and the id of the user it verifies."""
    try:
        # read whole: np.load leaks its file handle on a broken .zip archive
        data = np.load(io.BytesIO(Path(path).read_bytes()), allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise FormatError(f"{path}: not an .npz container (a plain array)")
        with data:  # every member is read here, so damage shows here
            members = {name: data[name] for name in data.files}
    except DAMAGED as exc:
        raise FormatError(f"{path}: not an .npz container ({exc!r})") from None
    try:
        meta = json.loads(str(members["meta"]))
    except KeyError:
        raise FormatError(f"{path}: not a model container (no metadata)") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: model metadata is not a JSON object")
    if meta.get("format") != FORMAT_NAME:
        raise FormatError(f"{path}: unrecognized container format")
    if meta.get("version") != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported container version {meta.get('version')}")
    method = meta.get("method")
    cls = _model_classes().get(method) if isinstance(method, str) else None
    if cls is None:
        raise FormatError(f"{path}: unknown method tag {method!r}")
    try:
        vocab = Vocabulary.from_json(meta["vocab"])
        if vocabulary_hash(vocab) != meta["vocab_hash"]:
            raise FormatError(f"{path}: vocabulary hash mismatch (corrupt container)")
        model = cls.from_arrays(vocab, meta, members)
    except KeyError as exc:
        raise FormatError(f"{path}: incomplete {method} container ({exc.args[0]})") from None
    except (TypeError, AttributeError) as exc:
        raise FormatError(f"{path}: malformed {method} metadata ({exc})") from None
    owner = meta.get("owner")
    if not isinstance(owner, str):
        raise FormatError(f"{path}: model owner {owner!r} is not a string")
    return model, owner
