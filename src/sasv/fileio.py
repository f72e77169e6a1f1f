"""Bit-exact file formats: protocols, scores, embeddings, checkpoints, CSV."""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import struct
import warnings

import numpy as np

from .core import CODE_OF_TEXT, LABELS, EmbeddingStore, ScoreTable, \
    TrialLabel, TrialRecord, first_invalid_row

EMBEDDING_MAGIC = b"SASVEMB1"
EMBEDDING_VERSION = 1


class FormatError(ValueError):
    """Malformed or truncated input file."""


LABEL_TEXT = tuple(label.value for label in LABELS)


def _atomic_write(path, data, mode="w"):
    """Write data (str or bytes, or an iterable of them) via a temp file in
    the same directory, then rename.

    The temp file is created with mode 0666, so the umask sets the output's
    permissions as it would for a plain open().
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".sasv-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        kwargs = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
        with os.fdopen(fd, mode, **kwargs) as f:
            f.writelines([data] if isinstance(data, (str, bytes)) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _open_text(path):
    """Open a UTF-8 text file; a byte that is not UTF-8 raises FormatError
    naming path:line."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError:
            # the decoder saw one buffer of the file: find the line afresh
            with open(path, "rb") as raw:
                lines = raw.read().splitlines()
            for lineno, line in enumerate(lines, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FormatError(f"{path}:{lineno}: not UTF-8 text "
                                      f"({exc.reason})") from None
            raise


def read_json(path):
    """The JSON value in a UTF-8 file; FormatError naming path if it is not
    UTF-8 or not JSON.  NaN and Infinity parse: callers check numbers."""
    with _open_text(path) as f:
        text = f.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None


# ---------------------------------------------------------------- protocols

def write_protocol(path, records):
    lines = [f"{r.enroll_id}\t{r.test_id}\t{r.label.value}\n"
             for r in records]
    _atomic_write(path, "".join(lines))


def read_protocol(path):
    records = []
    seen = set()
    with _open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 tab-separated "
                                  f"fields, got {len(parts)}")
            enroll_id, test_id, label_text = parts
            try:
                label = TrialLabel.from_string(label_text)
                record = TrialRecord(enroll_id, test_id, label)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            key = (enroll_id, test_id)
            if key in seen:
                warnings.warn(f"{path}:{lineno}: duplicate trial "
                              f"{enroll_id}/{test_id}")
            seen.add(key)
            records.append(record)
    return records


# ------------------------------------------------------------------- scores

# Lines per batch in write_scores: bounds its extra memory and keeps each
# batch cache-sized.
SCORE_CHUNK_LINES = 4096
# Characters per block in read_scores: bounds its extra memory (blocks of
# 64 Ki characters read 3e5 rows faster than blocks of 256 Ki or 1 Mi).
SCORE_BLOCK_CHARS = 1 << 16


def write_scores(path, table):
    """table: a ScoreTable, or rows of (enroll_id, test_id, score, label)."""
    if not isinstance(table, ScoreTable):
        table = ScoreTable.from_rows(table)
    rows = zip(table.enroll, table.test, table.scores.tolist(),
               table.codes.tolist())

    def chunks():
        while batch := list(itertools.islice(rows, SCORE_CHUNK_LINES)):
            # repr round-trips f64 exactly
            yield "".join([f"{e}\t{t}\t{s!r}\t{LABEL_TEXT[c]}\n"
                           for e, t, s, c in batch])

    _atomic_write(path, chunks())


def _score_line_error(line):
    """Why one non-blank, non-comment score line is malformed, or None."""
    parts = line.split("\t")
    if len(parts) != 4:
        return f"expected 4 tab-separated fields, got {len(parts)}"
    score_text, label_text = parts[2], parts[3]
    try:
        score = float(score_text)
    except ValueError:
        return f"unparseable score {score_text!r}"
    if not math.isfinite(score):
        return f"non-finite score {score_text!r}"
    try:
        TrialLabel.from_string(label_text)
    except ValueError as exc:
        return str(exc)
    return None


def _score_columns(text):
    """(enroll ids, test ids, scores, codes) of whole lines that each end in
    "\n", or None if any line is blank or malformed."""
    b = np.frombuffer(text.encode(), np.uint8)
    tabs, ends = np.flatnonzero(b == 9), np.flatnonzero(b == 10)
    n = ends.size
    # each line holds three tabs iff there are 3n of them, the third of
    # line i lies before its end and the first of line i + 1 after it
    if tabs.size != 3 * n or not (tabs[2::3] < ends).all() \
            or not (tabs[3::3] > ends[:-1]).all():
        return None
    fields = text.replace("\n", "\t").split("\t")
    try:
        scores = np.fromiter(map(float, fields[2:4 * n:4]), np.float64, n)
        codes = np.fromiter(map(CODE_OF_TEXT.__getitem__, fields[3:4 * n:4]),
                            np.int8, n)
    except (ValueError, KeyError):
        return None
    if not np.isfinite(scores).all():
        return None
    return fields[0:4 * n:4], fields[1:4 * n:4], scores, codes


def _line_blocks(f):
    """The text of f in blocks of whole lines, each line ending in "\n"; a
    line is carried over whole to the block after the one it starts in."""
    rest = ""
    while text := f.read(SCORE_BLOCK_CHARS):
        cut = text.rfind("\n") + 1
        if cut:
            yield rest + text[:cut]
            rest = text[cut:]
        else:
            rest += text
    if rest:
        yield rest + "\n"


def read_scores(path):
    """Parse a score TSV into a ScoreTable, SCORE_BLOCK_CHARS characters at a
    time.

    Blank lines and '#' comments are skipped; as in iterating the file, a
    line ends at "\n" only.  A block without '#' is converted column by
    column if every line holds three tabs.  Otherwise its blank and comment
    lines are dropped and it is converted again; a block that still fails
    is scanned line by line to report its first bad line as path:line.
    """
    enroll, test = [], []
    scores, codes = [np.empty(0)], [np.empty(0, np.int8)]
    with _open_text(path) as f:
        first_lineno = 1
        for block in _line_blocks(f):
            columns = None if "#" in block else _score_columns(block)
            if columns is None:
                lines = block.split("\n")[:-1]
                columns = _score_columns("".join(
                    [line + "\n" for line in lines
                     if line and line[0] != "#"]))
            if columns is None:
                for lineno, line in enumerate(lines, start=first_lineno):
                    error = line and line[0] != "#" and \
                        _score_line_error(line)
                    if error:
                        raise FormatError(f"{path}:{lineno}: {error}")
            enroll += columns[0]
            test += columns[1]
            scores.append(columns[2])
            codes.append(columns[3])
            first_lineno += block.count("\n")
    return ScoreTable(enroll, test, np.concatenate(scores),
                      np.concatenate(codes))


# --------------------------------------------------------------- embeddings

def write_embeddings(path, store):
    """Write the store's vectors as float32 (see `embedding_bytes`)."""
    _atomic_write(path, embedding_bytes(path, store), mode="wb")


def embedding_bytes(path, store):
    """The bytes of an embedding file at path holding the store's vectors as
    float32; a vector with an entry that float32 cannot hold raises
    FormatError naming path and its utterance."""
    with np.errstate(over="ignore"):  # an overflow is named below
        vectors = store.vectors.astype("<f4")
    bad = ~np.isfinite(vectors).all(axis=1)
    if bad.any():
        raise FormatError(f"{path}: vector for {store.ids()[np.argmax(bad)]!r}"
                          " has entries beyond the float32 range")
    parts = [EMBEDDING_MAGIC,
             struct.pack("<BII", EMBEDDING_VERSION, len(store), store.dim)]
    for utt_id, values in zip(store.ids(), vectors):
        id_bytes = utt_id.encode("utf-8")
        if len(id_bytes) > 0xFFFF:
            raise FormatError(f"utterance id too long: {utt_id!r}")
        parts += (struct.pack("<H", len(id_bytes)), id_bytes,
                  values.tobytes())
    return b"".join(parts)


def read_embeddings(path):
    """Parse an embedding file into an EmbeddingStore.

    One loop walks the records for their ids and the byte ranges of their
    values; one frombuffer then reads every value.  The first fault in file
    order raises FormatError: a truncated or non-UTF-8 record, a repeated
    id or a non-finite value (entry k), or trailing bytes.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != EMBEDDING_MAGIC:
        if len(data) < 8:
            raise FormatError(f"{path}: truncated while reading magic")
        raise FormatError(f"{path}: bad magic, not an embedding file")
    if len(data) < 17:
        raise FormatError(f"{path}: truncated while reading header")
    version, count, dim = struct.unpack_from("<BII", data, 8)
    if version != EMBEDDING_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if dim <= 0:
        raise FormatError(f"{path}: nonpositive dimension {dim}")
    size, end = 4 * dim, len(data)
    view = memoryview(data)
    ids, ranges, fault = [], [], None
    pos = 17
    for k in range(count):
        if pos + 2 > end:
            fault = f"truncated while reading entry {k} id length"
            break
        id_end = pos + 2 + int.from_bytes(data[pos:pos + 2], "little")
        if id_end > end:
            fault = f"truncated while reading entry {k} id"
            break
        try:
            utt_id = data[pos + 2:id_end].decode("utf-8")
        except UnicodeDecodeError:
            fault = f"entry {k} id is not UTF-8"
            break
        pos = id_end + size
        if pos > end:
            fault = f"truncated while reading entry {k} values"
            break
        ids.append(utt_id)
        ranges.append(view[id_end:pos])
    values = np.frombuffer(b"".join(ranges), "<f4").reshape(-1, dim)
    # a repeated id or non-finite value before the fault comes first
    try:
        with np.errstate(invalid="ignore"):  # a signalling NaN is named below
            store = EmbeddingStore(dim, ids, values.astype(np.float64))
    except ValueError as exc:
        k = first_invalid_row(ids, values)[0]
        raise FormatError(f"{path}: entry {k}: {exc}") from exc
    if fault is not None:
        raise FormatError(f"{path}: {fault}")
    if pos != end:
        raise FormatError(f"{path}: {end - pos} trailing bytes")
    return store


# -------------------------------------------------------------- checkpoints

def _mlp_to_json(mlp):
    if mlp is None:
        return None
    return {
        "shapes": [list(w.shape) for w in mlp.weights],
        "activations": list(mlp.activations),
        "weights": [w.ravel().tolist() for w in mlp.weights],
        "biases": [b.tolist() for b in mlp.biases],
    }


def _mlp_from_json(obj, where):
    from .nn import MlpParams

    if obj is None:
        return None
    try:
        arrays = {}
        for key, kind, n in (("weights", "weight", 2), ("biases", "bias", 1)):
            arrays[key] = []
            for shape, flat in zip(obj["shapes"], obj[key], strict=True):
                arr = np.asarray(flat, dtype=np.float64)
                if arr.size != math.prod(shape[:n]):
                    raise FormatError(
                        f"{where}: {kind} array length {arr.size} does not "
                        f"match declared shape {shape}")
                arrays[key].append(arr.reshape(shape[:n]))
        return MlpParams(*arrays.values(), list(obj["activations"]))
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"{where}: malformed MLP block: {exc}") from exc


def checkpoint_to_json(model, config=None, dev_min_adcf=None,
                       dev_threshold=None):
    """Canonical JSON text for a trained model snapshot."""
    doc = {
        "format": "sasv-checkpoint",
        "version": 1,
        "architecture": model.architecture,
        "fusion_mode": model.fusion_mode,
        "d_asv": model.d_asv,
        "d_cm": model.d_cm,
        "asv_mlp": _mlp_to_json(model.asv_mlp),
        "w_asv": None if model.w_asv is None else model.w_asv.tolist(),
        "cm_mlp": _mlp_to_json(model.cm_mlp),
        "asv_calib": {"w0": model.asv_calib.w0, "w1": model.asv_calib.w1},
        "cm_calib": {"w0": model.cm_calib.w0, "w1": model.cm_calib.w1},
        "rho_logit": model.rho_logit,
        "tau": model.tau,
        "config": config,
        "dev_min_adcf": dev_min_adcf,
        "dev_threshold": dev_threshold,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_checkpoint(path, model, config=None, dev_min_adcf=None,
                     dev_threshold=None):
    _atomic_write(path, checkpoint_to_json(model, config, dev_min_adcf,
                                           dev_threshold))


def read_checkpoint(path):
    """Returns (ModelParams, metadata dict with config/dev fields)."""
    from .decision import CalibrationParams
    from .train import ARCHITECTURES, ModelParams

    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != "sasv-checkpoint":
        raise FormatError(f"{path}: not a checkpoint file")
    arch = doc.get("architecture")
    if arch not in ARCHITECTURES:
        raise FormatError(f"{path}: unknown architecture tag {arch!r}")
    try:
        w_asv = doc["w_asv"]
        model = ModelParams(
            architecture=arch,
            fusion_mode=doc["fusion_mode"],
            d_asv=doc["d_asv"],
            d_cm=doc["d_cm"],
            asv_mlp=_mlp_from_json(doc["asv_mlp"], f"{path}: asv_mlp"),
            w_asv=None if w_asv is None else np.asarray(w_asv,
                                                        dtype=np.float64),
            cm_mlp=_mlp_from_json(doc["cm_mlp"], f"{path}: cm_mlp"),
            asv_calib=CalibrationParams(doc["asv_calib"]["w0"],
                                        doc["asv_calib"]["w1"]),
            cm_calib=CalibrationParams(doc["cm_calib"]["w0"],
                                       doc["cm_calib"]["w1"]),
            rho_logit=float(doc["rho_logit"]),
            tau=float(doc["tau"]),
        )
        model.validate()
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"{path}: malformed checkpoint field: {exc}") \
            from exc
    meta = {"config": doc.get("config"),
            "dev_min_adcf": doc.get("dev_min_adcf"),
            "dev_threshold": doc.get("dev_threshold")}
    return model, meta


# ---------------------------------------------------------------------- CSV

def write_det_csv(path, points):
    lines = ["p_fa,p_miss\n"]
    lines += [f"{p_fa:.12g},{p_miss:.12g}\n" for p_fa, p_miss in points]
    _atomic_write(path, "".join(lines))


def write_grid_csv(path, rows):
    lines = ["llr_asv,llr_cm,s_sasv,accept\n"]
    lines += [f"{a:.12g},{c:.12g},{s:.12g},{1 if accept else 0}\n"
              for a, c, s, accept in rows]
    _atomic_write(path, "".join(lines))


def write_report(path, report_dict):
    _atomic_write(path, json.dumps(report_dict, sort_keys=True, indent=2,
                                   allow_nan=False) + "\n")
