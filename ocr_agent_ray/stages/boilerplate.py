"""Main-content extraction: HTML boilerplate strip + DOM heuristics.

Named explicitly by the north rule ("HTML boilerplate strip, PDF/layout
parse, DOM heuristics"). A dependency-free Boilerpipe/Readability-style
extractor:

- chrome elements dropped wholesale (script/style/nav/header/footer/aside,
  plus class/id hints like "sidebar", "ad", "comment"),
- remaining text grouped into blocks per block-level element,
- each block scored by text length, link density (chars inside <a> /
  total) and stopword-ish word shape; low scores are boilerplate,
- kept blocks joined in document order.

Two tokenizers feed that heuristic. :func:`fast_main_text` is one regex
pass over the page that applies the heuristic as it reads: start, end
and self-closing tags (case-folded), quoted attributes (read only for the
class/id/role hints), text runs unescaped with ``html.unescape``,
comments and doctype (text-run boundaries) and script/style bodies. It
accepts only markup it reads exactly as stdlib ``html.parser`` does and
returns None on anything else: a ``<`` that starts none of those tokens,
an unterminated tag, comment or script, CDATA, processing instructions,
unquoted attribute values. :func:`reference_main_text` is the
``html.parser`` path; :func:`extract_main_text` takes the fast path and
falls back to the reference. The sequential oracle calls the reference
by name, so the extraction benchmark's digest gate compares the two on
every run.

The heuristic follows the published text-density family (Kohlschütter
et al., WSDM'10 "Boilerplate Detection Using Shallow Text Features"):
long, low-link-density blocks are content; short, link-heavy blocks are
chrome. Pure functions + vectorized stage; golden-tested on handcrafted
pages, and the fast path against the reference on generated and mutated
pages, in tests/test_boilerplate.py (not SQL-expressible → rows-only).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape
from html.parser import HTMLParser

import pandas as pd
import pyarrow as pa

_DROP_TAGS = frozenset(
    {"script", "style", "noscript", "template", "svg", "nav", "header",
     "footer", "aside", "form", "button", "iframe"}
)
_BLOCK_TAGS = frozenset(
    {"p", "div", "article", "section", "main", "li", "td", "pre",
     "blockquote", "h1", "h2", "h3", "h4", "h5", "h6", "br", "tr"}
)
_HINT_WORDS = ("sidebar", "advert", "banner", "promo", "comment", "cookie",
               "share", "social", "related", "menu", "breadcrumb")
_VOID_TAGS = frozenset(
    {"br", "img", "hr", "input", "meta", "link", "area", "base", "col",
     "embed", "source", "track", "wbr"}
)

MIN_BLOCK_CHARS = 20
MAX_LINK_DENSITY = 0.4


@dataclass
class _Block:
    texts: list[str] = field(default_factory=list)
    link_chars: int = 0

    def text(self) -> str:
        return " ".join(" ".join(self.texts).split())

    def link_density(self) -> float:
        t = self.text()
        return self.link_chars / len(t) if t else 1.0


class _Extractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[_Block] = [_Block()]
        self._drop_depth = 0
        # hinted-subtree stack: [tag, open_count] — the subtree closes when
        # the SAME tag that opened it balances out, so a hinted <span> (or
        # any element type) closes correctly instead of eating the rest of
        # the document
        self._hint_stack: list[list] = []
        self._link_depth = 0
        self._heading: list[bool] = []

    def _attrs_hint_boilerplate(self, attrs) -> bool:
        for k, v in attrs:
            if k in ("class", "id", "role") and v:
                low = v.lower()
                if any(h in low for h in _HINT_WORDS):
                    return True
        return False

    def handle_starttag(self, tag, attrs):
        if tag in _DROP_TAGS:
            self._drop_depth += 1
            return
        if self._drop_depth:
            return
        if self._hint_stack:
            # inside a hinted subtree: only track nesting of the tag that
            # opened it so the matching endtag closes the right element
            if tag == self._hint_stack[-1][0] and tag not in _VOID_TAGS:
                self._hint_stack[-1][1] += 1
            return
        if self._attrs_hint_boilerplate(attrs):
            if tag not in _VOID_TAGS:
                self._hint_stack.append([tag, 1])
            return
        if tag == "a":
            self._link_depth += 1
        if tag in _BLOCK_TAGS:
            self.blocks.append(_Block())

    def handle_endtag(self, tag):
        if tag in _DROP_TAGS:
            self._drop_depth = max(0, self._drop_depth - 1)
            return
        if self._drop_depth:
            return
        if self._hint_stack:
            if tag == self._hint_stack[-1][0]:
                self._hint_stack[-1][1] -= 1
                if self._hint_stack[-1][1] == 0:
                    self._hint_stack.pop()
            return
        if tag == "a":
            self._link_depth = max(0, self._link_depth - 1)
        if tag in _BLOCK_TAGS:
            self.blocks.append(_Block())

    def handle_data(self, data):
        if self._drop_depth or self._hint_stack:
            return
        if not data.strip():
            return
        blk = self.blocks[-1]
        blk.texts.append(data)
        if self._link_depth:
            blk.link_chars += len(" ".join(data.split()))


def reference_main_text(html: str, *, min_block_chars: int = MIN_BLOCK_CHARS,
                        max_link_density: float = MAX_LINK_DENSITY) -> str:
    """The ``html.parser`` path: the reference result for any page."""
    parser = _Extractor()
    try:
        parser.feed(html or "")
        parser.close()
    except Exception:
        # malformed HTML degrades to whatever was parsed, never raises
        pass
    kept: list[str] = []
    for blk in parser.blocks:
        t = blk.text()
        if len(t) < min_block_chars:
            continue
        if blk.link_density() > max_link_density:
            continue
        kept.append(t)
    return "\n\n".join(kept)


# --- one-pass tokenizer ----------------------------------------------------
# Every "<" of the page must start one of the tokens below; any other "<"
# matches the empty last alternative and the page goes to html.parser.
# On the tokens it accepts, the tokenizer makes the calls that the
# html.parser of Python 3.11.7 (convert_charrefs=True) makes. Later CPython
# security releases changed how it reads some comments ("<!-->", "--!>")
# and script end tags; tests/test_boilerplate.py splices such markup into
# pages and checks the tokenizer against the installed parser.
# - tag names are ASCII, so str.lower() is its case fold; a start tag's
#   name ends at whitespace, "/>" or ">", as its tagfind_tolerant does;
# - attribute values are quoted, so a ">" inside one does not end the tag;
# - "<x/>" is a start tag then an end tag (handle_startendtag);
# - a comment ends at the first --\s*> after "<!--" (_commentclose), a
#   doctype at the first ">";
# - a script/style body ends at the first </\s*script\s*> spelled in
#   ASCII: its cdata-mode regex also stops at non-ASCII case variants
#   ("</ſcript>"), but its endtagfind rejects those names and scans on;
# - the text between two tokens is one handle_data run, unescaped whole.
_WS = r"[ \t\n\r\f]"
_NAME = r"[a-zA-Z][-.a-zA-Z0-9:_]*"
_ATTR_NAME = r"[a-zA-Z_:][-.a-zA-Z0-9_:]*"
_ATTRS = rf"""(?:{_WS}+{_ATTR_NAME}(?:{_WS}*={_WS}*(?:"[^"]*"|'[^']*'))?)*"""
_SCRIPT, _STYLE = "[sS][cC][rR][iI][pP][tT]", "[sS][tT][yY][lL][eE]"
_TOKEN = re.compile(
    r"<(?:!--(?s:.*?)--\s*>"
    r"|![dD][oO][cC][tT][yY][pP][eE][^>]*>"
    rf"|{_SCRIPT}{_ATTRS}{_WS}*>(?s:.*?)</\s*{_SCRIPT}\s*>"
    rf"|{_STYLE}{_ATTRS}{_WS}*>(?s:.*?)</\s*{_STYLE}\s*>"
    rf"|/({_NAME})\s*>"                       # 1: end tag
    rf"|({_NAME})({_ATTRS}){_WS}*(/?)>"       # 2-4: start tag, attrs, "/"
    r"|())"                                   # 5: any other "<"
)
_ATTR = re.compile(rf"""({_ATTR_NAME})(?:{_WS}*={_WS}*(?:"([^"]*)"|'([^']*)'))?""")


def _attrs_hint_boilerplate(attrs: str) -> bool:
    """``_Extractor._attrs_hint_boilerplate`` on a start tag's attribute
    text (as matched by ``_ATTRS``)."""
    for name, dquoted, squoted in _ATTR.findall(attrs):
        value = dquoted or squoted
        if value and name.lower() in ("class", "id", "role"):
            low = unescape(value).lower()
            if any(h in low for h in _HINT_WORDS):
                return True
    return False


def fast_main_text(html: str, *, min_block_chars: int = MIN_BLOCK_CHARS,
                   max_link_density: float = MAX_LINK_DENSITY) -> str | None:
    """:func:`reference_main_text` in one regex pass, or None where the
    page holds markup outside what the tokenizer reads exactly.

    The state is ``_Extractor``'s, kept in locals; a block boundary
    closes the current block only if it holds text, since empty blocks
    are never kept unless ``min_block_chars <= 0`` and
    ``max_link_density >= 1`` (left to the reference)."""
    if min_block_chars <= 0 and max_link_density >= 1.0:
        return None
    blocks: list[tuple[list[str], int]] = []
    texts: list[str] = []
    link_chars = 0
    drop = 0
    hints: list[list] = []  # _Extractor._hint_stack
    link = 0
    # split() yields text, then the five groups of each token, then the
    # last text; five Nones close that text like a comment would
    parts = _TOKEN.split(html)
    parts += (None,) * 5
    it = iter(parts)
    for data, etag, stag, attrs, slash, other in zip(it, it, it, it, it, it):
        if data and not (drop or hints):
            if "&" in data:
                data = unescape(data)
            if data and not data.isspace():
                texts.append(data)
                if link:
                    link_chars += len(" ".join(data.split()))
        if stag is not None:
            tag = stag.lower()
            if tag in _DROP_TAGS:
                if not slash and tag in ("script", "style"):
                    return None  # script/style without its end tag
                drop += 1
            elif drop:
                pass
            elif hints:
                if tag == hints[-1][0] and tag not in _VOID_TAGS:
                    hints[-1][1] += 1
            elif attrs and _attrs_hint_boilerplate(attrs):
                if tag not in _VOID_TAGS:
                    hints.append([tag, 1])
            else:
                if tag == "a":
                    link += 1
                if tag in _BLOCK_TAGS and texts:
                    blocks.append((texts, link_chars))
                    texts, link_chars = [], 0
            if not slash:
                continue
        elif etag is not None:
            tag = etag.lower()
        elif other is not None:
            return None
        else:
            continue  # comment, doctype, script/style element, last text
        # an end tag, or the end half of a self-closing one
        if tag in _DROP_TAGS:
            if drop:
                drop -= 1
        elif drop:
            pass
        elif hints:
            if tag == hints[-1][0]:
                hints[-1][1] -= 1
                if not hints[-1][1]:
                    hints.pop()
        else:
            if tag == "a" and link:
                link -= 1
            if tag in _BLOCK_TAGS and texts:
                blocks.append((texts, link_chars))
                texts, link_chars = [], 0
    if texts:
        blocks.append((texts, link_chars))
    kept: list[str] = []
    for texts, link_chars in blocks:
        t = " ".join(" ".join(texts).split())
        if len(t) >= min_block_chars and link_chars / len(t) <= max_link_density:
            kept.append(t)
    return "\n\n".join(kept)


def extract_main_text(html: str, *, min_block_chars: int = MIN_BLOCK_CHARS,
                      max_link_density: float = MAX_LINK_DENSITY) -> str:
    """Strip boilerplate, return the main text (blocks joined by \\n\\n).

    The one-pass tokenizer's result, or the ``html.parser`` path's where
    the page falls outside the tokenizer."""
    text = fast_main_text(html or "", min_block_chars=min_block_chars,
                          max_link_density=max_link_density)
    if text is None:
        text = reference_main_text(html, min_block_chars=min_block_chars,
                                   max_link_density=max_link_density)
    return text


class BoilerplateStripStage:
    """map_batches callable: ``html`` column -> ``main_text`` column."""

    def __init__(self, html_col: str = "html", out_col: str = "main_text",
                 min_block_chars: int = MIN_BLOCK_CHARS,
                 max_link_density: float = MAX_LINK_DENSITY) -> None:
        self.html_col = html_col
        self.out_col = out_col
        self.min_block_chars = min_block_chars
        self.max_link_density = max_link_density

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = [
            extract_main_text(h or "", min_block_chars=self.min_block_chars,
                              max_link_density=self.max_link_density)
            for h in batch[self.html_col].to_pylist()
        ]
        return batch.append_column(self.out_col, pa.array(texts, pa.string()))


def wrap_text_as_html(doc_id: int, text: str) -> str:
    """Deterministic HTML page around a text payload (nav chrome, link
    farms, ads) — the synthetic fixture for the round-trip property:
    extract_main_text(wrap_text_as_html(t)) recovers t's words."""
    words = (text or "").split()
    half = len(words) // 2 or 1
    para1, para2 = " ".join(words[:half]), " ".join(words[half:])
    return f"""<html><head><title>doc {doc_id}</title>
<style>body {{color: red}}</style><script>var x = {doc_id};</script></head>
<body>
<nav><a href="/">home</a> <a href="/a">a</a> <a href="/b">b</a></nav>
<div class="sidebar"><ul><li><a href="/x">x link</a></li><li><a href="/y">y link</a></li></ul></div>
<article>
<h1>Document {doc_id}</h1>
<p>{para1}</p>
<div class="advert">BUY NOW <a href="/buy">cheap deals</a> limited offer</div>
<p>{para2}</p>
</article>
<footer><a href="/tos">terms</a> | <a href="/priv">privacy</a> | copyright</footer>
</body></html>"""


def html_main_text(sf_dir: str):
    """queries() entry: wrap each document's text in chrome-laden HTML,
    strip boilerplate, return (doc_id, main_text). Rows-only (the DOM
    heuristic is not SQL-expressible); the round-trip property is asserted
    in pytest."""
    from ocr_agent_ray.sources.readers import read_table

    def _wrap_and_strip(batch: pd.DataFrame) -> pd.DataFrame:
        html = [wrap_text_as_html(i, t) for i, t in zip(batch["doc_id"], batch["text"])]
        tbl = pa.table({"doc_id": batch["doc_id"], "html": html})
        out = BoilerplateStripStage()(tbl)
        return out.select(["doc_id", "main_text"]).to_pandas()

    return read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _wrap_and_strip, batch_format="pandas"
    )
