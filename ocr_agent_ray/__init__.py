"""ocr_agent_ray — a Ray-Data-native document-extraction / data-processing engine.

A from-scratch reimplementation of the capabilities of the reference
``takuto-NA/ocr-agent`` (see /root/reference, SURVEY.md) on top of
``ray.data.Dataset``: interleaved text+media document tables flow through
``map_batches`` stages (zero-copy Arrow), OCR inference runs in Ray Data
tasks with the engine loaded once per worker process and run, each task
assembles its own documents, and every hash partition commits lineage +
metrics to a checkpoint store for exact resume.

Nothing here ports the reference's code; the reference defines WHAT is
computed (span semantics, post-processing, ordering, skip rules) and this
package re-expresses it Ray-Data-first.
"""

__version__ = "0.1.0"
