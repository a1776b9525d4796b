"""Boilerplate strip + DOM heuristics + layout reading order."""

from __future__ import annotations

import pyarrow as pa
import pytest
from hypothesis import event, given, settings, strategies as st

import ray.data as rd

from ocr_agent_ray.functions.kernels import layout_reading_order
from ocr_agent_ray.sources.corpus import generate_documents
from ocr_agent_ray.stages.boilerplate import (
    BoilerplateStripStage,
    extract_main_text,
    fast_main_text,
    html_main_text,
    reference_main_text,
    wrap_text_as_html,
)

PAGE = """<html><head><script>alert(1)</script><style>p{}</style></head><body>
<nav><a href="/">Home</a> <a href="/about">About</a> <a href="/contact">Contact</a></nav>
<div id="sidebar-widget"><a href="/p1">promoted one</a> <a href="/p2">promoted two</a></div>
<article>
<h1>The Actual Headline Of The Story</h1>
<p>This is the first real paragraph of the article body with enough
length to be considered content by any reasonable density heuristic.</p>
<p>Second paragraph continues the story with further genuinely useful
prose that a reader came to this page to read.</p>
<div class="advert">BUY <a href="/deal">CHEAP DEALS NOW</a> CLICK</div>
</article>
<footer><a href="/tos">Terms</a> | <a href="/privacy">Privacy</a></footer>
</body></html>"""


def test_extract_main_text_keeps_content_drops_chrome():
    out = extract_main_text(PAGE)
    assert "first real paragraph" in out
    assert "further genuinely useful" in out
    assert "The Actual Headline" in out
    assert "Home" not in out           # nav dropped
    assert "promoted one" not in out   # sidebar hint dropped
    assert "CHEAP DEALS" not in out    # advert hint dropped
    assert "Terms" not in out          # footer dropped
    assert "alert(1)" not in out       # script dropped


def test_hinted_subtree_closes_by_matching_tag():
    # a hinted inline element must close at ITS endtag, not a div heuristic
    body = ('<p><span class="advert">BUY NOW</span>'
            'after the ad the article keeps going with plenty of text</p>')
    out = extract_main_text(f"<html><body>{body}</body></html>")
    assert "after the ad the article keeps going" in out
    assert "BUY NOW" not in out


def test_hinted_subtree_nested_same_tag():
    # nested <div> inside a hinted <div>: the inner close must not end
    # the hinted subtree early
    body = ('<div class="advert"><div>inner ad copy</div>more ad</div>'
            '<p>real content after the advert block with enough length here</p>')
    out = extract_main_text(f"<html><body>{body}</body></html>")
    assert "real content after the advert block" in out
    assert "inner ad copy" not in out
    assert "more ad" not in out


def test_hinted_void_element_does_not_swallow_document():
    # a hinted void element (<img class="ad">) never gets an endtag; it
    # must not open a hinted subtree at all
    body = ('<p><img class="advert" src="x.png">the article text continues '
            'here with enough length to pass the block filter</p>')
    out = extract_main_text(f"<html><body>{body}</body></html>")
    assert "the article text continues" in out


def test_extract_handles_malformed_html():
    assert extract_main_text("<p>unclosed paragraph with sufficient length here") \
        .startswith("unclosed paragraph")
    assert extract_main_text("") == ""
    assert extract_main_text("<<<>>> &&& <p>") == ""


def test_link_density_filter():
    linky = "<p><a href='/a'>one link text</a> <a href='/b'>two link text</a> x</p>"
    assert extract_main_text(linky) == ""
    # same length, no links -> kept
    plain = "<p>one link text two link text x and some more words</p>"
    assert extract_main_text(plain) != ""


# --- the one-pass tokenizer against the html.parser path --------------------

def _fast_or_fallback(page: str, **kw) -> bool:
    """Assert the fast path returns None (fall back) or exactly the
    reference's result; return whether it took the fast path."""
    fast = fast_main_text(page, **kw)
    assert fast is None or fast == reference_main_text(page, **kw), page
    return fast is not None


HANDCRAFTED = [
    PAGE,
    PAGE.upper(),
    wrap_text_as_html(7, "alpha beta gamma delta epsilon zeta eta theta iota"),
    '<p><span class="advert">BUY NOW</span>after the ad the article keeps '
    'going with plenty of text</p>',
    '<div class="advert"><div>inner ad copy</div>more ad</div>'
    '<p>real content after the advert block with enough length here</p>',
    '<p><img class="advert" src="x.png">the article text continues here '
    'with enough length to pass the block filter</p>',
    "<p><a href='/a'>one link text</a> <a href='/b'>two link text</a> x</p>",
    "<p>one link text two link text x and some more words</p>",
    "<p>unclosed paragraph with sufficient length here",
    "<<<>>> &&& <p>",
    "",
]

# Markup the tokenizer must read itself: each is spliced into PAGE.
FAST_FRAGMENTS = [
    "&amp; &nbsp; &#65; &#x41; &lt;p&gt; &copy &AMP; &#1; &#xD800; &am",
    "a plain & in text with words enough to count", "tail &",
    "<!-- note -->", "<!-- <p>hidden</p> -->", "<!---->", "<!-- a -- >",
    "<!DOCTYPE html>", "<!doctype html>",
    "<DIV CLASS='Sidebar'><P>upper-case tags and attribute names</P></DIV>",
    "<br/>", "<BR />", "<br class='share'/>", "<p/>", "<a href='/x'/>",
    "<div class='advert'/>text after a self-closed hinted div, long enough",
    '<div class="promo"><div><div>nested</div></div>ad</div>',
    '<span id="cookie-bar"><span>inner</span>x</span> long text after it',
    "<section role='menu'><li>menu entry one</li></section>",
    "<p class=\"&#97;dvert\">hint hidden behind an entity</p>",
    '<p title="a>b" data-x = "y" disabled>attribute values with a ></p>',
    "<script>if (a < b) { x = '</div>'; }</script>",
    "<SCRIPT type='x'>a<b</SCRIPT >", "<style>p > a {}</style>",
    "<script>x</\u017fcript>still script</script>", "<script/>", "<style/>",
    "<title>a &lt; b &amp; c</title>", "a > b",
]

# Markup it must leave to html.parser.
FALLBACK_FRAGMENTS = [
    "<![CDATA[x<y]]>", "<?xml version='1.0'?>", "<!bogus>", "<!-- unterminated",
    "< p>", "</ p>", "</>", "</p foo>", "<3", "a < b", "<p/ >", "<br / >",
    "<a href=/unquoted>link</a>", "<p class=advert>x</p>", "<script>never closed",
    '<p class="x"', "<a\vb>",
]


def _spliced(fragment: str) -> list[str]:
    head, body = PAGE.index("<article>"), PAGE.index("This is the first")
    return [PAGE[:head] + fragment + PAGE[head:],
            PAGE[:body] + fragment + PAGE[body:],
            PAGE + fragment]


def test_fast_path_equals_reference_on_handcrafted_pages():
    for page in HANDCRAFTED:
        _fast_or_fallback(page)
        _fast_or_fallback(page, min_block_chars=0, max_link_density=0.9)
    assert _fast_or_fallback(PAGE)
    assert _fast_or_fallback(PAGE.upper())


def test_fast_path_reads_common_markup_and_declines_the_rest():
    for fragment in FAST_FRAGMENTS:
        for page in _spliced(fragment):
            assert _fast_or_fallback(page), page
    for fragment in FALLBACK_FRAGMENTS:
        for page in _spliced(fragment):
            assert not _fast_or_fallback(page), page


def test_fast_path_leaves_empty_blocks_to_reference():
    # with both filters off, empty blocks are kept (as "" entries)
    page = "<p></p><p>x</p>"
    assert fast_main_text(page, min_block_chars=0, max_link_density=1.0) is None
    assert extract_main_text(page, min_block_chars=0, max_link_density=1.0) == \
        reference_main_text(page, min_block_chars=0, max_link_density=1.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_generator_page_takes_fast_path(seed):
    pages = [s["text"] for spans in generate_documents(400, seed=seed)["spans"]
             .to_pylist() for s in spans if s["kind"] == "html"]
    assert len(pages) > 50
    for page in pages:
        assert _fast_or_fallback(page), page


_TAG_NAMES = ["p", "div", "a", "span", "nav", "footer", "li", "br", "img",
              "h1", "article", "x-widget", "script", "style", "title"]
_ATTRS = [' class="sidebar"', " class='main'", ' id="comment-3"',
          ' role="menu"', ' href="/x?a=1&amp;b=2"', ' title="a>b"',
          ' class="&#97;dvert"', " disabled", ' data-x = "y"',
          " href=/unquoted", ' CLASS="Promo"', ' class=""']
_TEXT = ["alpha", "the article text continues with enough words here",
         " ", "\n", "a > b", "x" * 30, "\xa0", "&amp;", "&nbsp;", "&#65;",
         "&#x41;", "&#1;", "&", "&am", "&copy"]
_MARKUP = ["<!-- note -->", "<!-- <p>x</p> -->", "<!-->", "<!-- unterminated",
           "<!DOCTYPE html>", "<![CDATA[x<y]]>", "<?pi?>", "< p>", "</p foo>",
           "<p", "<",
           "<script>if (a < b) { s = '</div>'; }</script>",
           "<style>a > b {}</style>", "<script>never closed"]


@st.composite
def _tags(draw):
    name = "".join(c.upper() if draw(st.booleans()) else c
                   for c in draw(st.sampled_from(_TAG_NAMES)))
    if draw(st.integers(0, 2)) == 0:
        return f"</{name}>"
    attrs = "".join(draw(st.lists(st.sampled_from(_ATTRS), max_size=2)))
    return f"<{name}{attrs}{draw(st.sampled_from(['>', '>', '/>', ' />']))}"


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_tags(), st.sampled_from(_TEXT), st.sampled_from(_MARKUP)),
                min_size=1, max_size=40))
def test_fast_path_equals_reference_on_mutated_pages(fragments):
    page = "".join(fragments)
    event("fast path" if _fast_or_fallback(page) else "fallback")


def test_oracle_strips_html_on_the_reference_path(monkeypatch):
    """The oracle's golden must not go through the tokenizer it checks."""
    from ocr_agent_ray import oracle
    from ocr_agent_ray.stages import boilerplate

    monkeypatch.setattr(boilerplate, "fast_main_text", lambda *a, **k: "wrong")
    spans = [{"kind": "html", "text": PAGE, "media_ref": "", "offset": 0}]
    out = oracle.oracle_extract_doc(spans, engine=None)
    assert out[1]["text"] == reference_main_text(PAGE)


def test_stage_and_roundtrip_property(ray_session):
    texts = [
        "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu",
        "one two three four five six seven eight nine ten eleven twelve",
    ]
    tbl = pa.table({
        "doc_id": [1, 2],
        "html": [wrap_text_as_html(i + 1, t) for i, t in enumerate(texts)],
    })
    out = BoilerplateStripStage()(tbl)
    for text, main in zip(texts, out["main_text"].to_pylist()):
        for w in text.split():
            assert w in main
        assert "BUY NOW" not in main
        assert "home" not in main


def test_html_main_text_query(ray_session):
    out = html_main_text("/root/testdata/sf0.001").take(5)
    assert len(out) == 5
    for r in out:
        assert r["main_text"]
        assert "cheap deals" not in r["main_text"]


def test_layout_reading_order():
    dets = [
        ("t", 300, 10, 400, 30),   # row 1, right
        ("t", 10, 12, 120, 30),    # row 1, left
        ("t", 10, 200, 200, 240),  # row 2
        ("t", 10, 100, 500, 140),  # middle row
    ]
    assert layout_reading_order(dets) == [1, 0, 3, 2]
    assert layout_reading_order([]) == []
    # single column stays top-to-bottom
    col = [("t", 0, y, 10, y + 10) for y in (500, 100, 300)]
    assert layout_reading_order(col) == [1, 2, 0]


def test_layout_blocks_query(ray_session):
    from ocr_agent_ray.pipelines.interleave import layout_blocks

    out = layout_blocks("/root/testdata/sf0.001").to_pandas()
    assert len(out) > 0
    # read_pos is dense 0..n-1 within each (doc, span)
    for (_, _), g in out.groupby(["doc_id", "span_offset"]):
        assert sorted(g["read_pos"]) == list(range(len(g)))
    assert (out["x2"] >= out["x1"]).all()
