import json
import math
import os
import stat
import struct

import numpy as np
import pytest
from conftest import SNAN_EMBEDDING_FILE, per_record_read_embeddings
from hypothesis import example, given, settings, strategies as st

from sasv import fileio
from sasv.core import EmbeddingStore, TrialLabel, TrialRecord
from sasv.fileio import (FormatError, checkpoint_to_json, read_checkpoint,
                         read_embeddings, read_protocol, read_scores,
                         write_checkpoint, write_det_csv, write_embeddings,
                         write_grid_csv, write_protocol, write_report,
                         write_scores)
from sasv.train import TrainConfig, init_model


def sample_records(n=50, seed=0):
    rng = np.random.default_rng(seed)
    labels = list(TrialLabel)
    return [TrialRecord(f"spk{int(rng.integers(9)):02d}",
                        f"utt{i:05d}",
                        labels[int(rng.integers(3))]) for i in range(n)]


class TestProtocol:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "proto.tsv"
        records = sample_records(200)
        write_protocol(path, records)
        assert read_protocol(path) == records

    def test_byte_identical_rewrite(self, tmp_path):
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        records = sample_records(100, seed=4)
        write_protocol(p1, records)
        write_protocol(p2, read_protocol(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "proto.tsv"
        path.write_text("# header\n\ne1\tt1\ttarget\n")
        records = read_protocol(path)
        assert len(records) == 1 and records[0].enroll_id == "e1"

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "proto.tsv"
        path.write_text("e1\tt1\n")
        with pytest.raises(FormatError, match=r":1: expected 3"):
            read_protocol(path)

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "proto.tsv"
        path.write_text("e1\tt1\tgenuine\n")
        with pytest.raises(FormatError, match="unknown trial label"):
            read_protocol(path)

    def test_duplicate_warns(self, tmp_path):
        path = tmp_path / "proto.tsv"
        path.write_text("e1\tt1\ttarget\ne1\tt1\ttarget\n")
        with pytest.warns(UserWarning, match="duplicate"):
            read_protocol(path)


class TestScores:
    def test_round_trip_exact_floats(self, tmp_path):
        path = tmp_path / "scores.tsv"
        rng = np.random.default_rng(1)
        rows = [(f"e{i}", f"t{i}", float(x), TrialLabel.TARGET)
                for i, x in enumerate(rng.normal(0, 1e3, 500))]
        rows.append(("ex", "tx", 0.1 + 0.2, TrialLabel.SPOOF))
        write_scores(path, rows)
        back = read_scores(path)
        assert list(back) == rows  # bit-exact float round-trip via repr

    def test_unparseable_score(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("e1\tt1\tabc\ttarget\n")
        with pytest.raises(FormatError, match="unparseable score"):
            read_scores(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("e1\tt1\t1.0\ttarget\textra\n")
        with pytest.raises(FormatError, match="expected 4"):
            read_scores(path)


class TestInvalidUtf8:
    """A byte that is not UTF-8 is a format error naming path:line."""

    @pytest.mark.parametrize("reader,row", [
        (read_scores, "e{i}\tt{i}\t1.0\ttarget"),
        (read_protocol, "e{i}\tt{i}\ttarget"),
    ])
    @pytest.mark.parametrize("newline,n_good", [
        ("\n", 2), ("\r\n", 2), ("\r", 2), ("\n", 5000)])
    def test_names_line(self, tmp_path, reader, row, newline, n_good):
        path = tmp_path / "in.tsv"
        lines = [row.format(i=i) for i in range(n_good)]
        lines.append(row.format(i="\udcff"))
        path.write_bytes("".join(line + newline for line in lines)
                         .encode("utf-8", "surrogateescape"))
        with pytest.raises(FormatError) as exc:
            reader(path)
        assert str(exc.value).startswith(f"{path}:{n_good + 1}: ")
        assert "UTF-8" in str(exc.value)


class TestEmbeddings:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.bin"
        store = EmbeddingStore(5)
        rng = np.random.default_rng(2)
        for i in range(40):
            store.add(f"utt{i}", rng.normal(size=5).astype(np.float32))
        write_embeddings(path, store)
        back = read_embeddings(path)
        assert back.dim == 5 and len(back) == 40
        for uid in store.ids():
            np.testing.assert_array_equal(store.get(uid), back.get(uid))

    def test_write_read_write_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        store = EmbeddingStore(3)
        rng = np.random.default_rng(3)
        for i in range(20):
            store.add(f"u{i}", rng.normal(size=3).astype(np.float32))
        write_embeddings(p1, store)
        write_embeddings(p2, read_embeddings(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_store(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embeddings(path, EmbeddingStore(4))
        assert path.stat().st_size == 8 + 9  # magic + header only
        assert len(read_embeddings(path)) == 0

    def test_layout_is_pinned(self, tmp_path):
        # one entry, dim 2: header then u16 id-length, id bytes, two f32
        path = tmp_path / "emb.bin"
        store = EmbeddingStore(2)
        store.add("ab", [1.0, -2.0])
        write_embeddings(path, store)
        data = path.read_bytes()
        assert data[:8] == b"SASVEMB1"
        version, count, dim = struct.unpack("<BII", data[8:17])
        assert (version, count, dim) == (1, 1, 2)
        assert struct.unpack("<H", data[17:19]) == (2,)
        assert data[19:21] == b"ab"
        np.testing.assert_array_equal(
            np.frombuffer(data[21:], dtype="<f4"), [1.0, -2.0])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"NOTANEMB" + b"\x00" * 9)
        with pytest.raises(FormatError, match="bad magic"):
            read_embeddings(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"SASVEMB1" + struct.pack("<BII", 9, 0, 2))
        with pytest.raises(FormatError, match="version"):
            read_embeddings(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "emb.bin"
        store = EmbeddingStore(2)
        store.add("u", [0.0, 1.0])
        write_embeddings(path, store)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_embeddings(path)

    def test_every_truncation_is_structured(self, tmp_path):
        good = tmp_path / "good.bin"
        store = EmbeddingStore(3)
        rng = np.random.default_rng(7)
        for i in range(4):
            store.add(f"utt{i}", rng.normal(size=3).astype(np.float32))
        write_embeddings(good, store)
        data = good.read_bytes()
        bad = tmp_path / "bad.bin"
        for cut in range(len(data)):
            bad.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                read_embeddings(bad)


    def test_earlier_bad_entry_is_reported_before_truncation(self,
                                                              tmp_path):
        # entry 1 repeats entry 0's id, and entry 2 is cut short
        path = tmp_path / "emb.bin"
        record = struct.pack("<H", 1) + b"u" + struct.pack("<2f", 0.0, 1.0)
        path.write_bytes(b"SASVEMB1" + struct.pack("<BII", 1, 3, 2)
                         + record * 2 + record[:-1])
        with pytest.raises(FormatError,
                           match="entry 1: duplicate utterance id 'u'$"):
            read_embeddings(path)


@st.composite
def embedding_files(draw):
    """Embedding file bytes, well formed or not: records with repeated,
    empty or non-UTF-8 ids and non-finite values, then maybe a cut, a
    changed byte or extra bytes."""
    dim = draw(st.integers(1, 3))
    records = draw(st.lists(st.tuples(
        st.one_of(st.text("ab\xe9", max_size=3).map(str.encode),
                  st.binary(max_size=3)),
        st.lists(st.floats(width=32), min_size=dim, max_size=dim)),
        max_size=5))
    data = b"SASVEMB1" + struct.pack("<BII", 1, len(records), dim)
    for id_bytes, values in records:
        data += struct.pack("<H", len(id_bytes)) + id_bytes \
            + struct.pack(f"<{dim}f", *values)
    change = draw(st.sampled_from(["none", "cut", "byte", "extra"]))
    if change == "cut":
        data = data[:draw(st.integers(0, len(data)))]
    elif change == "byte":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([draw(st.integers(0, 255))]) \
            + data[at + 1:]
    elif change == "extra":
        data += draw(st.binary(min_size=1, max_size=6))
    return data


@pytest.fixture(scope="module")
def emb_work(tmp_path_factory):
    return tmp_path_factory.mktemp("embeddings")


@settings(max_examples=200, deadline=None)
@given(data=embedding_files())
@example(data=SNAN_EMBEDDING_FILE)
def test_bulk_reader_matches_per_record_reader(emb_work, data):
    path = emb_work / "emb.bin"
    path.write_bytes(data)
    try:
        want = per_record_read_embeddings(path)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            read_embeddings(path)
        assert str(got.value) == str(exc)
        return
    store = read_embeddings(path)
    dim, vectors = want
    assert store.dim == dim and store.ids() == list(vectors)
    assert np.array_equal(
        store.vectors.view(np.uint64),
        np.array(list(vectors.values())).reshape(-1, dim).view(np.uint64))


def test_write_embeddings_names_a_vector_float32_cannot_hold(tmp_path):
    store = EmbeddingStore(2, ["a", "b", "c"],
                           [[1.0, 2.0], [1e39, 0.0], [-1e300, 0.0]])
    path = tmp_path / "emb.bin"
    with pytest.raises(FormatError) as exc:
        write_embeddings(path, store)
    assert str(exc.value) == (f"{path}: vector for 'b' has entries beyond "
                              "the float32 range")
    assert not path.exists()


class TestReadJson:
    def test_value(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"a": [1, 2.5, NaN]}')
        doc = fileio.read_json(path)
        assert doc["a"][:2] == [1, 2.5] and math.isnan(doc["a"][2])

    @pytest.mark.parametrize("data,message", [
        (b'{"a": 1', "invalid JSON: Expecting ',' delimiter"),
        (b"", "invalid JSON: Expecting value"),
        (b"[" * 100000, "invalid JSON: maximum recursion depth exceeded"),
        (b"1" * 5000, "invalid JSON: Exceeds the limit"),
        (b'{"a": "\xff"}', ":1: not UTF-8 text")])
    def test_faults_name_the_path(self, tmp_path, data, message):
        path = tmp_path / "x.json"
        path.write_bytes(data)
        with pytest.raises(FormatError) as exc:
            fileio.read_json(path)
        assert str(exc.value).startswith(f"{path}")
        assert message in str(exc.value)


class TestCheckpoint:
    def make_model(self, arch="wcos-mlp"):
        cfg = TrainConfig(architecture=arch)
        return init_model(cfg, 4, 3)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.json"
        model = self.make_model()
        model.tau = 0.37
        write_checkpoint(path, model, config={"note": 1}, dev_min_adcf=0.25,
                         dev_threshold=1.5)
        back, meta = read_checkpoint(path)
        assert back.architecture == "wcos-mlp"
        assert back.tau == 0.37
        np.testing.assert_array_equal(back.w_asv, model.w_asv)
        np.testing.assert_array_equal(back.cm_mlp.weights[0],
                                      model.cm_mlp.weights[0])
        assert meta == {"config": {"note": 1}, "dev_min_adcf": 0.25,
                        "dev_threshold": 1.5}

    def test_round_trip_mlp_mlp(self, tmp_path):
        path = tmp_path / "ckpt.json"
        model = self.make_model("mlp-mlp")
        write_checkpoint(path, model)
        back, _ = read_checkpoint(path)
        for w1, w2 in zip(model.asv_mlp.weights, back.asv_mlp.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_canonical_serialization_is_stable(self, tmp_path):
        model = self.make_model()
        text1 = checkpoint_to_json(model)
        text2 = checkpoint_to_json(model.copy())
        assert text1 == text2
        doc = json.loads(text1)
        assert doc["format"] == "sasv-checkpoint" and doc["version"] == 1
        # canonical form: sorted keys, no spaces, one trailing newline
        assert text1 == json.dumps(doc, sort_keys=True,
                                   separators=(",", ":")) + "\n"

    def test_rewrite_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_checkpoint(p1, self.make_model(), dev_min_adcf=0.5)
        model, meta = read_checkpoint(p1)
        write_checkpoint(p2, model, config=meta["config"],
                         dev_min_adcf=meta["dev_min_adcf"],
                         dev_threshold=meta["dev_threshold"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="invalid JSON"):
            read_checkpoint(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format":"something-else"}')
        with pytest.raises(FormatError, match="not a checkpoint"):
            read_checkpoint(path)

    def test_shape_mismatch_names_field(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, self.make_model())
        doc = json.loads(path.read_text())
        doc["cm_mlp"]["weights"][0] = doc["cm_mlp"]["weights"][0][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="cm_mlp"):
            read_checkpoint(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, self.make_model())
        doc = json.loads(path.read_text())
        del doc["tau"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="malformed checkpoint"):
            read_checkpoint(path)

    @pytest.mark.parametrize("field,value,message", [
        ("d_asv", "1e400", "d_asv and d_cm must be positive integers"),
        ("d_asv", "2.5", "d_asv and d_cm must be positive integers"),
        ("d_cm", "0", "d_asv and d_cm must be positive integers"),
        ("fusion_mode", '"x"', "unknown fusion mode 'x'"),
        ("tau", "NaN", "rho_logit and tau must be finite"),
        ("rho_logit", "1e400", "rho_logit and tau must be finite"),
        ("cm_mlp", "null", "CM MLP input dim must be d_asv + d_cm"),
        ("rho_logit", "1" + "0" * 400, "int too large to convert to float")])
    def test_bad_field_is_one_error_naming_the_path(self, tmp_path, field,
                                                     value, message):
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, self.make_model())
        doc = json.loads(path.read_text())
        doc[field] = "VALUE"
        path.write_text(json.dumps(doc).replace('"VALUE"', value))
        with pytest.raises(FormatError) as exc:
            read_checkpoint(path)
        assert str(exc.value) == \
            f"{path}: malformed checkpoint field: {message}"

    def test_one_dimensional_weight_shape(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, self.make_model())
        doc = json.loads(path.read_text())
        doc["cm_mlp"]["shapes"][0] = [doc["cm_mlp"]["shapes"][0][0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="cm_mlp: weight array length"):
            read_checkpoint(path)

    def test_unknown_architecture(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, self.make_model())
        doc = json.loads(path.read_text())
        doc["architecture"] = "transformer"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="architecture"):
            read_checkpoint(path)


class TestCsvAndReports:
    def test_det_csv(self, tmp_path):
        path = tmp_path / "det.csv"
        write_det_csv(path, [(0.0, 1.0), (0.25, 0.5)])
        assert path.read_text() == "p_fa,p_miss\n0,1\n0.25,0.5\n"

    def test_grid_csv(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_grid_csv(path, [(-1.0, 2.0, 0.5, True),
                              (0.0, 0.0, -0.25, False)])
        lines = path.read_text().splitlines()
        assert lines[0] == "llr_asv,llr_cm,s_sasv,accept"
        assert lines[1] == "-1,2,0.5,1"
        assert lines[2] == "0,0,-0.25,0"

    def test_report_is_sorted_json(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, {"b": 1, "a": 2})
        doc = json.loads(path.read_text())
        assert doc == {"a": 2, "b": 1}
        assert path.read_text().index('"a"') < path.read_text().index('"b"')

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        fileio._atomic_write(str(path), "hello")
        assert path.read_text() == "hello"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_atomic_write_honours_umask(self, tmp_path, umask):
        path = tmp_path / "out.txt"
        old = os.umask(umask)
        try:
            fileio._atomic_write(str(path), "hello")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask

    def test_non_finite_json_is_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(tmp_path / "r.json", {"a": math.inf})
        with pytest.raises(ValueError):
            checkpoint_to_json(init_model(TrainConfig(), 4, 3),
                               dev_min_adcf=math.nan)
        assert not (tmp_path / "r.json").exists()
