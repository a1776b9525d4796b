"""F4 conformance: synthetic text image + metadata OCR engine end-to-end.

Mirror of the reference's only integration test
(/root/reference/tests/test_synthetic_ocr.py:43-63): generate the
deterministic white 1280x720 text PNG, run the OCR adapter on it, and
assert normalized containment of the expected text — here with the
deterministic metadata engine standing in for the GPU model behind the
same adapter interface (the real-model path stays a stub, like the
reference's opt-in gate).
"""

from __future__ import annotations

import os
import struct
import sys
import zlib

import pyarrow as pa
import pytest

import ray.data as rd

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
from generate_text_image import (  # noqa: E402
    DEFAULT_TEXT,
    read_text_chunk,
    write_text_png,
)

from ocr_agent_ray.functions.kernels import normalize_text_for_contains_check
from ocr_agent_ray.pipelines.extract import build_extract_pipeline
from ocr_agent_ray.schema import DOCUMENTS_SCHEMA
from ocr_agent_ray.stages.ocr import MetadataOcrEngine


@pytest.fixture()
def png_path(tmp_path):
    p = str(tmp_path / "synthetic.png")
    write_text_png(p, DEFAULT_TEXT)
    return p


def test_png_is_structurally_valid(png_path):
    data = open(png_path, "rb").read()
    assert data.startswith(b"\x89PNG\r\n\x1a\n")
    w, h, depth, color = struct.unpack(">IIBB", data[16:26])
    assert (w, h, depth, color) == (1280, 720, 8, 2)
    # IDAT decompresses to the exact raw size (filter byte + RGB rows)
    pos, idat = 8, b""
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        if tag == b"IDAT":
            idat += data[pos + 8:pos + 8 + length]
        pos += 12 + length
    raw = zlib.decompress(idat)
    assert len(raw) == 720 * (1 + 1280 * 3)
    # text pixels drawn: not all white
    assert b"\x00\x00\x00" in raw
    assert read_text_chunk(data) == DEFAULT_TEXT


def test_engine_normalized_containment(png_path):
    """The reference's assertion (test_synthetic_ocr.py:61-63)."""
    out = MetadataOcrEngine().infer_batch([png_path], [None])[0]
    assert out is not None
    expected = normalize_text_for_contains_check(DEFAULT_TEXT)
    assert expected in normalize_text_for_contains_check(out)


def test_pipeline_end_to_end_with_image_fixture(ray_session, png_path):
    docs = pa.Table.from_pydict(
        {
            "doc_id": ["fixture-doc"],
            "spans": [[
                {"kind": "text", "text": "before", "media_ref": "", "offset": 0},
                {"kind": "image", "text": "", "media_ref": png_path, "offset": 1},
                {"kind": "text", "text": "after", "media_ref": "", "offset": 2},
            ]],
        },
        schema=DOCUMENTS_SCHEMA,
    )
    out = build_extract_pipeline(
        rd.from_arrow(docs), engine_factory=MetadataOcrEngine
    ).take_all()
    assert len(out) == 1
    spans = out[0]["spans"]
    texts = [s["text"] for s in spans]
    assert texts[0] == "## "          # header of the 'before' text span
    assert texts[1] == "before"
    assert texts[2] == f"## {png_path}"
    assert normalize_text_for_contains_check(DEFAULT_TEXT) in \
        normalize_text_for_contains_check(texts[3])
    assert texts[5] == "after"


def test_missing_image_is_dropped_not_fatal(ray_session, tmp_path):
    docs = pa.Table.from_pydict(
        {
            "doc_id": ["d"],
            "spans": [[
                {"kind": "image", "text": "", "media_ref": str(tmp_path / "nope.png"),
                 "offset": 0},
                {"kind": "text", "text": "still here", "media_ref": "", "offset": 1},
            ]],
        },
        schema=DOCUMENTS_SCHEMA,
    )
    out = build_extract_pipeline(
        rd.from_arrow(docs), engine_factory=MetadataOcrEngine
    ).take_all()
    texts = [s["text"] for s in out[0]["spans"]]
    # unreadable image -> None -> "" -> section dropped incl. header
    assert texts == ["## ", "still here"]
