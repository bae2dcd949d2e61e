"""File formats for ensembles and sequences.

Two interchangeable ensemble formats:

* CSV: one row per component, ``s`` comma-separated values per row, after a
  leading header line ``# m=<m> s=<s>``; the writer always writes it, the
  reader also accepts files without it.
* Raw binary: magic ``IFLT``, then three little-endian u32 (version=1, m, s),
  then ``m*s`` little-endian float64 in row-major order.

A sequence manifest is a JSON object ``{"m": .., "s": .., "files": [..]}``
listing ensemble files in order; relative paths resolve against the manifest's
directory. ``ManifestSequence`` reads a file only when its position is first
used; ``load_sequence`` reads and checks every file.

Data is centered eagerly at ingestion: readers subtract row means unless the
stored data is already centered within tolerance (in which case it is kept
bit-for-bit, so write/read round-trips of centered data are exact).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .exceptions import InvalidInput, ParseError
from .signals import Ensemble, SignalSequence, center

MAGIC = b"IFLT"
BIN_VERSION = 1


def _ingest(path, arr: np.ndarray) -> Ensemble:
    """``arr`` read from ``path`` as a centered Ensemble; data it rejects raise
    ParseError naming the file."""
    try:
        try:  # centered data is kept bit-for-bit; the claim is checked once
            return Ensemble(arr, centered=True)
        except InvalidInput:  # not centered, or invalid: then Ensemble(arr) raises alike
            return center(Ensemble(arr))
    except InvalidInput as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_ensemble_csv(path, e: Ensemble) -> None:
    """Write the header line, then one row of ``repr`` values per component."""
    lines = [f"# m={e.m} s={e.s}"] + [",".join(map(repr, row)) for row in e.data.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_ensemble_csv(path) -> Ensemble:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file (invalid UTF-8)") from exc
    rows = []  # (line number, stripped line) of the data rows
    declared = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line.startswith("#"):
            fields = dict(part.split("=", 1) for part in line[1:].split() if "=" in part)
            try:
                declared = (int(fields["m"]), int(fields["s"]))
            except (KeyError, ValueError) as exc:
                raise ParseError(f"{path}: bad header line {lineno}") from exc
        elif line:
            rows.append((lineno, line))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    try:
        arr = np.loadtxt([line for _, line in rows], delimiter=",", comments=None, ndmin=2)
    except ValueError:  # parse row by row, naming the first bad line
        values = []
        for lineno, line in rows:
            try:
                values.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise ParseError(f"{path}: bad value on line {lineno}") from exc
        if len({len(r) for r in values}) != 1:
            raise ParseError(f"{path}: ragged rows")
        arr = np.asarray(values, dtype=float)
    if declared is not None and declared != arr.shape:
        raise ParseError(f"{path}: header says {declared}, data is {arr.shape}")
    return _ingest(path, arr)


def write_ensemble_bin(path, e: Ensemble) -> None:
    head = MAGIC + struct.pack("<III", BIN_VERSION, e.m, e.s)
    Path(path).write_bytes(head + np.ascontiguousarray(e.data, dtype="<f8").tobytes())


def read_ensemble_bin(path) -> Ensemble:
    blob = Path(path).read_bytes()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise ParseError(f"{path}: not an ensemble file (bad magic)")
    version, m, s = struct.unpack("<III", blob[4:16])
    if version != BIN_VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    expected = 16 + 8 * m * s
    if len(blob) != expected:
        raise ParseError(f"{path}: expected {expected} bytes, got {len(blob)}")
    arr = np.frombuffer(blob[16:], dtype="<f8").reshape(m, s).copy()
    return _ingest(path, arr)


def read_ensemble(path) -> Ensemble:
    """Read either format, sniffing the binary magic."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == MAGIC:
        return read_ensemble_bin(path)
    return read_ensemble_csv(path)


def write_manifest(path, files, m: int, s: int) -> None:
    doc = {"m": int(m), "s": int(s), "files": [str(f) for f in files]}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def json_object(blob: bytes | str, where, what: str, error: type = ParseError) -> dict:
    """The JSON object ``blob`` (text, or UTF-8 bytes) holds, else ``error``
    "<where>: invalid JSON" or "<where>: <what> must be a JSON object"."""
    try:
        doc = json.loads(blob.decode("utf-8") if isinstance(blob, bytes) else blob)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{where}: invalid JSON") from exc
    if not isinstance(doc, dict):
        raise error(f"{where}: {what} must be a JSON object")
    return doc


def read_manifest(path) -> dict:
    doc = json_object(Path(path).read_bytes(), path, "manifest")
    for key in ("m", "s", "files"):
        if key not in doc:
            raise ParseError(f"{path}: manifest missing key {key!r}")
    for key in ("m", "s"):
        if not _positive_int(doc[key]):
            raise ParseError(f"{path}: manifest {key} must be a positive integer")
    files = doc["files"]
    if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
        raise ParseError(f"{path}: manifest files must be a list of file names")
    if not files:
        raise ParseError(f"{path}: manifest lists no files")
    for k, name in enumerate(files):
        if "\0" in name:
            raise ParseError(f"{path}: manifest files[{k}] {name!r} holds a NUL byte")
    return doc


class ManifestSequence:
    """The sequence a manifest lists, read one ensemble at a time.

    ``m``, ``s`` and the length come from the manifest. Ensemble ``i`` is read
    on first access, checked against the manifest's shape, centered as the
    readers do, and kept for later accesses. It offers what ``ortho.window``
    reads of a ``SignalSequence`` (``m``, ``s``, ``len``, ``[i]``, ``window``),
    so a command that uses a few positions reads only their files.
    """

    def __init__(self, manifest_path):
        doc = read_manifest(manifest_path)
        self.m, self.s = doc["m"], doc["s"]
        self._files = doc["files"]
        self._base = Path(manifest_path).parent
        self._read: dict[int, Ensemble] = {}

    def __len__(self) -> int:
        return len(self._files)

    def __getitem__(self, i: int) -> Ensemble:
        i = range(len(self._files))[i]
        e = self._read.get(i)
        if e is None:
            e = self._read[i] = self._load(i)
        return e

    def _load(self, i: int) -> Ensemble:
        """Ensemble ``i`` read from its file and checked against the manifest's shape."""
        rel = self._files[i]
        p = Path(rel)
        e = read_ensemble(p if p.is_absolute() else self._base / p)
        if (e.m, e.s) != (self.m, self.s):
            raise ParseError(
                f"{rel}: shape {(e.m, e.s)} does not match manifest {(self.m, self.s)}"
            )
        return e

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Positions lo..hi gathered into one (hi - lo + 1, m, s) buffer."""
        return np.stack([self[i].data for i in range(lo, hi + 1)])


def load_sequence(manifest_path) -> SignalSequence:
    """Read and check every ensemble a manifest lists, each into its place in
    the sequence's one array: no file's data is held past its copy. The array
    is made once the first file has matched the manifest's shape."""
    seq = ManifestSequence(manifest_path)
    first = seq._load(0).data
    data = np.empty((len(seq), *first.shape))
    data[0] = first
    for i in range(1, len(seq)):
        data[i] = seq._load(i).data
    return SignalSequence._of_checked(data)


def save_sequence(out_dir, prefix: str, seq: SignalSequence, fmt: str = "bin") -> Path:
    """Write every ensemble plus a manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt not in ("bin", "csv"):
        raise InvalidInput(f"unknown format {fmt!r}")
    ext = "iflt" if fmt == "bin" else "csv"
    names = []
    for i, e in enumerate(seq.items):
        name = f"{prefix}_{i:04d}.{ext}"
        if fmt == "bin":
            write_ensemble_bin(out / name, e)
        else:
            write_ensemble_csv(out / name, e)
        names.append(name)
    manifest = out / f"{prefix}_manifest.json"
    write_manifest(manifest, names, seq.m, seq.s)
    return manifest
