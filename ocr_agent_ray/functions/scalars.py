"""Scalar string/path functions — behavioral parity with SURVEY.md §2.8.

Each reproduces one of the reference's Rust/TS scalar helpers (cited);
all have vectorized pandas wrappers for use inside map_batches.
"""

from __future__ import annotations

import pandas as pd

_MIME_BY_EXT = {
    "png": "image/png",
    "jpg": "image/jpeg",
    "jpeg": "image/jpeg",
    "webp": "image/webp",
    "bmp": "image/bmp",
    "tif": "image/tiff",
    "tiff": "image/tiff",
    "gif": "image/gif",
    "pdf": "application/pdf",
}


def sanitize_filename_for_copy(name: str) -> str:
    """Replace ``\\ / :`` with ``_``; empty -> "input".

    Parity: /root/reference/gui/src-tauri/src/main.rs:505-515.
    """
    out = "".join("_" if c in "\\/:" else c for c in name)
    return out if out else "input"


def split_filename_and_extension(name: str) -> tuple[str, str]:
    """rsplit on the last dot; dotfiles have no extension.

    Parity: /root/reference/gui/src-tauri/src/main.rs:517-527.
    """
    dot = name.rfind(".")
    if dot <= 0:
        return (name, "")
    return (name[:dot], name[dot + 1 :])


def sanitize_output_markdown_filename(name: str) -> str:
    """Strip, then replace ``\\ / : \\n \\r \\t space`` with ``_``.

    Parity: /root/reference/gui/src-tauri/src/main.rs:529-545.
    """
    out = "".join("_" if c in "\\/:\n\r\t " else c for c in name.strip())
    return out


def ensure_markdown_extension(name: str) -> str:
    """Append ``.md`` unless the name already ends in .md/.markdown.

    Parity: /root/reference/gui/src-tauri/src/main.rs:547-553.
    """
    lower = name.lower()
    if lower.endswith(".md") or lower.endswith(".markdown"):
        return name
    return name + ".md"


def infer_image_mime_type(path: str) -> str:
    """Extension -> MIME, default application/octet-stream.

    Parity: /root/reference/gui/src-tauri/src/main.rs:734-756.
    """
    _, ext = split_filename_and_extension(path.rsplit("/", 1)[-1])
    return _MIME_BY_EXT.get(ext.lower(), "application/octet-stream")


def normalize_windows_path_lossy(path: str) -> str:
    """Strip the ``\\\\?\\`` verbatim prefix.

    Parity: /root/reference/gui/src-tauri/src/main.rs:188-202.
    """
    if path.startswith("\\\\?\\"):
        return path[4:]
    return path


def format_seconds_human(seconds: float) -> str:
    """Seconds -> "Xm Ys" (parity: /root/reference/gui/src/App.tsx:92-100)."""
    s = max(0, int(seconds))
    return f"{s // 60}m {s % 60}s"


def dots_per_inch_to_scale(dpi: float) -> float:
    """dpi/72 (parity: /root/reference/src/ocr_agent/pdf_render.py:78-81)."""
    return dpi / 72.0


# --- vectorized wrappers ---------------------------------------------------


def mime_types(s: pd.Series) -> pd.Series:
    from ocr_agent_ray.functions.kernels import suffix_lower_series

    ext = suffix_lower_series(s.fillna("")).str[1:]   # drop the dot
    return ext.map(_MIME_BY_EXT).fillna("application/octet-stream")
