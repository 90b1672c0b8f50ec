"""Fuzzed ingestion: whatever bytes or text the four readers get, they
return a value or raise a FedFocalError, never anything else."""

import io

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fedfocal import models as M
from fedfocal import partition as P
from fedfocal import tensor as T
from fedfocal.config import SCHEMA, ExperimentConfig
from fedfocal.errors import FedFocalError

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def mutated(valid: bytes):
    """valid itself, cut short, or with a few bytes overwritten."""
    cut = st.integers(0, len(valid)).map(lambda n: valid[:n])
    edits = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)),
                     min_size=1, max_size=4)

    def overwrite(pairs):
        out = bytearray(valid)
        for i, b in pairs:
            out[i] = b
        return bytes(out)

    return st.one_of(cut, edits.map(overwrite))


def array_bytes(arr):
    buf = io.BytesIO()
    T.write_array(buf, arr)
    return buf.getvalue()


DIM = st.one_of(st.integers(-2, 4), st.sampled_from([2 ** 62, 10 ** 20]))
HEADERS = st.builds(
    lambda dtype, rank, dims, payload: (f"{dtype} {rank}" + "".join(f" {d}" for d in dims)
                                        + "\n").encode() + payload,
    st.sampled_from(["f32", "f64", "i64", "f16", ""]), st.integers(-1, 4),
    st.lists(DIM, max_size=4), st.binary(max_size=40))
ARRAYS = st.one_of(st.binary(max_size=60), HEADERS,
                   mutated(array_bytes(np.arange(6, dtype=np.float32).reshape(2, 3))))


@FUZZ
@given(ARRAYS)
@example(b"f32 2 0 100000000000000000000\n")  # an empty payload numpy cannot shape
def test_read_array_any_bytes(data):
    try:
        arr = T.read_array(io.BytesIO(data))
    except FedFocalError:
        return
    assert isinstance(arr, np.ndarray)


CHECKPOINT = (b"fedfocal-params 1\n2\nw\nloss.gamma\n"
              + array_bytes(np.ones((2, 2), dtype=np.float32))
              + array_bytes(np.array(2.0, dtype=np.float32)))

CHECKPOINTS = st.one_of(st.binary(max_size=60),
                        st.binary(max_size=60).map(lambda b: b"fedfocal-params 1\n" + b),
                        mutated(CHECKPOINT))


@FUZZ
@given(CHECKPOINTS)
def test_load_params_any_bytes(tmp_path, data):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(data)
    try:
        params = M.load_params(path)
    except FedFocalError:
        return
    assert params.flat.size == sum(t.data.size for _, t in params)


MANIFEST_TOKENS = st.sampled_from(["0", "7", "-1", "1_0", " ", "\t", "\n", "\r", "test",
                                   "client-", "client-0", "client-2", "client--1",
                                   "client-x", "client-99999", "\xff", "١"])
MANIFESTS = st.one_of(
    st.binary(max_size=60),
    st.lists(MANIFEST_TOKENS, max_size=12).map(lambda ts: "".join(ts).encode("utf-8")),
    mutated(b"0\tclient-0\n1\ttest\n2\tclient-1\n"))


@FUZZ
@given(MANIFESTS)
@example(b"0\tclient-x\n")
@example(b"0\tclient--1\n")
def test_read_manifest_any_bytes(tmp_path, data):
    path = tmp_path / "fuzz.manifest"
    path.write_bytes(data)
    try:
        clients, test = P.read_manifest(path)
    except FedFocalError:
        return
    lines = data.count(b"\n") + data.count(b"\r") + 1
    assert len(clients) <= lines
    assert all(i >= 0 for shard in clients for i in shard) and all(i >= 0 for i in test)


KEYS = st.sampled_from(sorted(SCHEMA) + ["bogus.key", ""])
VALUES = st.one_of(st.sampled_from(["1", "-3", "2.5", "nan", "inf", "true", "no", "none",
                                    "1,2,3", "0.5,,x", "many", ""]),
                   st.text(max_size=8))
LINES = st.one_of(st.builds(lambda k, v: f"{k} = {v}", KEYS, VALUES),
                  st.text(max_size=20))


@FUZZ
@given(st.one_of(st.text(max_size=60), st.lists(LINES, max_size=6).map("\n".join)))
def test_parse_text_any_text(text):
    try:
        cfg = ExperimentConfig.parse_text(text)
    except FedFocalError:
        return
    assert set(cfg.values) <= set(SCHEMA)
