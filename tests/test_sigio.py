import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from iflt import Ensemble, ParseError, SignalSequence, signals, sigio
from iflt.signals import is_centered
from iflt.sigio import (
    ManifestSequence,
    load_sequence,
    read_ensemble,
    read_ensemble_bin,
    read_ensemble_csv,
    read_manifest,
    save_sequence,
    write_ensemble_bin,
    write_ensemble_csv,
    write_manifest,
)
from conftest import make_ensemble


def test_csv_round_trip(rng, tmp_path):
    e = make_ensemble(rng, 3, 7)
    path = tmp_path / "e.csv"
    write_ensemble_csv(path, e)
    back = read_ensemble_csv(path)
    assert np.array_equal(back.data, e.data)
    assert back.centered


def test_csv_header_is_parsed(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("# m=2 s=2\n1.0,-1.0\n0.5,-0.5\n")
    e = read_ensemble_csv(path)
    assert (e.m, e.s) == (2, 2)


def test_csv_headerless(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("1.0,-1.0\n")
    assert read_ensemble_csv(path).m == 1


def test_csv_header_mismatch(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("# m=3 s=2\n1.0,-1.0\n")
    with pytest.raises(ParseError):
        read_ensemble_csv(path)


def test_csv_ragged_rows(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError):
        read_ensemble_csv(path)


def test_csv_bad_value(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("1.0,spam\n")
    with pytest.raises(ParseError):
        read_ensemble_csv(path)


def test_bin_round_trip_exact(rng, tmp_path):
    e = make_ensemble(rng, 4, 9)
    path = tmp_path / "e.iflt"
    write_ensemble_bin(path, e)
    back = read_ensemble_bin(path)
    assert np.array_equal(back.data, e.data)
    assert back.centered


def test_bin_bad_magic(tmp_path):
    path = tmp_path / "e.iflt"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ParseError):
        read_ensemble_bin(path)


def test_bin_bad_version(rng, tmp_path):
    e = make_ensemble(rng, 2, 3)
    path = tmp_path / "e.iflt"
    write_ensemble_bin(path, e)
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError):
        read_ensemble_bin(path)


def test_bin_truncated(rng, tmp_path):
    e = make_ensemble(rng, 2, 3)
    path = tmp_path / "e.iflt"
    write_ensemble_bin(path, e)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ParseError):
        read_ensemble_bin(path)


def test_read_ensemble_sniffs_format(rng, tmp_path):
    e = make_ensemble(rng, 2, 5)
    write_ensemble_bin(tmp_path / "a.dat", e)
    write_ensemble_csv(tmp_path / "b.dat", e)
    assert np.array_equal(read_ensemble(tmp_path / "a.dat").data, e.data)
    assert np.array_equal(read_ensemble(tmp_path / "b.dat").data, e.data)


def test_reader_centers_uncentered_data(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("1.0,3.0\n")
    e = read_ensemble_csv(path)
    assert e.centered
    assert np.array_equal(e.data, np.array([[-1.0, 1.0]]))


def test_manifest_round_trip(rng, tmp_path):
    seq = SignalSequence(tuple(make_ensemble(rng, 3, 6) for _ in range(4)))
    for fmt in ("bin", "csv"):
        manifest = save_sequence(tmp_path / fmt, "refs", seq, fmt)
        back = load_sequence(manifest)
        assert len(back) == 4
        for a, b in zip(back.items, seq.items):
            assert np.array_equal(a.data, b.data)


def test_manifest_missing_keys(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"m": 2, "files": ["x.csv"]}')
    with pytest.raises(ParseError):
        read_manifest(path)


def test_manifest_shape_mismatch(rng, tmp_path):
    e = make_ensemble(rng, 2, 4)
    write_ensemble_bin(tmp_path / "e.iflt", e)
    write_manifest(tmp_path / "m.json", ["e.iflt"], m=3, s=4)
    with pytest.raises(ParseError):
        load_sequence(tmp_path / "m.json")


def test_manifest_invalid_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        read_manifest(path)


def test_manifest_rejects_bad_fields(tmp_path):
    path = tmp_path / "m.json"
    cases = [
        ({"m": "16", "s": 4, "files": ["a.csv"]}, "manifest m"),
        ({"m": True, "s": 4, "files": ["a.csv"]}, "manifest m"),
        ({"m": 2, "s": 0, "files": ["a.csv"]}, "manifest s"),
        ({"m": 2, "s": 4.0, "files": ["a.csv"]}, "manifest s"),
        ({"m": 2, "s": 4, "files": "abc"}, "manifest files"),
        ({"m": 2, "s": 4, "files": ["a.csv", 3]}, "manifest files"),
        ({"m": 2, "s": 4, "files": []}, "lists no files"),
        ([2, 4], "JSON object"),
    ]
    for doc, message in cases:
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=message):
            read_manifest(path)


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)


@st.composite
def stored_sequences(draw):
    """A sequence's shape, format and data seed, an access order, a bad position."""
    length = draw(st.integers(1, 6))
    return {
        "m": draw(st.integers(1, 4)),
        "s": draw(st.integers(2, 6)),
        "length": length,
        "fmt": draw(st.sampled_from(("bin", "csv"))),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "order": draw(st.lists(st.integers(0, length - 1), min_size=1, max_size=12)),
        "bad": draw(st.integers(0, length - 1)),
        "fault": draw(st.sampled_from(("bad_value", "shape", "truncated"))),
    }


def _write_uncentered(case, out: Path) -> Path:
    """Write ensembles that carry row offsets, so readers center them, and
    their manifest; a ``SignalSequence`` holds only centered data, so the
    files are written one by one."""
    rng = np.random.default_rng(case["seed"])
    m, s = case["m"], case["s"]
    write = write_ensemble_bin if case["fmt"] == "bin" else sigio.write_ensemble_csv
    names = [f"seq_{i:04d}.{'iflt' if case['fmt'] == 'bin' else 'csv'}"
             for i in range(case["length"])]
    for name in names:
        write(out / name, Ensemble(rng.normal(size=(m, s)) + rng.normal(size=(m, 1))))
    sigio.write_manifest(out / "seq_manifest.json", names, m, s)
    return out / "seq_manifest.json"


@PROPERTY_SETTINGS
@given(stored_sequences())
def test_manifest_sequence_equals_load_sequence(case):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = _write_uncentered(case, Path(tmp))
        eager = load_sequence(manifest)
        lazy = ManifestSequence(manifest)
        assert (lazy.m, lazy.s, len(lazy)) == (eager.m, eager.s, len(eager))
        for i in case["order"]:
            e = lazy[i]
            assert lazy[i] is e
            assert e.centered and np.array_equal(e.data, eager[i].data)
        assert all(np.array_equal(a.data, b.data)
                   for a, b in zip([lazy[i] for i in range(len(lazy))], eager.items))


@PROPERTY_SETTINGS
@given(stored_sequences())
def test_manifest_sequence_reports_the_bad_file_it_reads(case):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = _write_uncentered(case, Path(tmp))
        bad = case["bad"]
        name = json.loads(manifest.read_text())["files"][bad]
        path = Path(tmp) / name
        if case["fault"] == "bad_value":
            path.write_text("1.0,spam\n")
        elif case["fault"] == "truncated":  # one value (binary) or one row (CSV) short
            blob = path.read_bytes()
            path.write_bytes(blob[:-8] if case["fmt"] == "bin"
                             else blob[: blob.rstrip().rfind(b"\n") + 1])
        else:
            write_ensemble_bin(path, Ensemble(np.zeros((case["m"] + 1, case["s"]))))
        lazy = ManifestSequence(manifest)
        for i in case["order"]:
            if i != bad:
                assert lazy[i].m == case["m"]
        with pytest.raises(ParseError, match=name):
            lazy[bad]
        with pytest.raises(ParseError, match=name):
            load_sequence(manifest)


def _old_csv_bytes(e: Ensemble) -> bytes:
    """The CSV writer's bytes when every value went through ``repr(float(v))``."""
    lines = [f"# m={e.m} s={e.s}"]
    lines += [",".join(repr(float(v)) for v in row) for row in e.data]
    return ("\n".join(lines) + "\n").encode()


finite_floats = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 6)),
              elements=finite_floats))
@example(np.array([[5e-324, -0.0, 1e308, -1e308], [0.0, -5e-324, 2.2250738585072014e-308, 1.0]]))
def test_csv_writer_bytes_and_exact_read_back(data):
    e = Ensemble(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.csv"
        write_ensemble_csv(path, e)
        assert path.read_bytes() == _old_csv_bytes(e)
        back = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    assert back.view(np.uint64).tobytes() == e.data.view(np.uint64).tobytes()


def test_reading_centered_files_checks_each_one_once(rng, tmp_path, monkeypatch):
    seq = SignalSequence(tuple(make_ensemble(rng, 3, 16) for _ in range(12)))
    manifest = save_sequence(tmp_path, "obs", seq)
    calls = []

    def counted(arr):
        calls.append(arr.shape)
        return is_centered(arr)

    # patch every binding the readers could call it through
    for module in (signals, sigio):
        monkeypatch.setattr(module, "is_centered", counted, raising=False)
    loaded = load_sequence(manifest)
    assert len(calls) == 12
    assert all(np.array_equal(a.data, b.data) for a, b in zip(loaded.items, seq.items))
