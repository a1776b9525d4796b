"""Wide-row memory discipline: MB-scale payloads through the media stages."""
import warnings, time, os, sys; warnings.filterwarnings("ignore")
import ray
ray.init(address="local", num_cpus=16, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
ctx = DataContext.get_current(); ctx.enable_progress_bars = False
ctx.target_max_block_size = 32 * 1024 * 1024   # keep wide-row blocks small
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import ray.data as rd, pyarrow as pa, hashlib, struct, os
from ocr_agent_ray.stages.fanout import FanOutStage
from ocr_agent_ray.stages.media import DeterministicFakeCodec, build_media_pipeline
from ocr_agent_ray.sources.corpus import generate_documents

class FatCodec(DeterministicFakeCodec):
    """2 MB deterministic payloads (MB-scale rendered pages)."""
    SIZE = 2 * 1024 * 1024
    def _pad(self, seed: bytes) -> bytes:
        reps = self.SIZE // len(seed) + 1
        return (seed * reps)[: self.SIZE]
    def rasterize_pdf_page(self, ref, page, dpi=200):
        b, w, h = super().rasterize_pdf_page(ref, page, dpi)
        return self._pad(b) + b[-8:], w, h
    def decode_image(self, ref):
        b, w, h = super().decode_image(ref)
        return self._pad(b) + b[-8:], w, h
    def resize(self, payload, target):
        b, w, h = super().resize(payload[:24], target)
        return self._pad(b) + b[-8:], w, h

units = rd.from_arrow(generate_documents(600, seed=11)).map_batches(
    FanOutStage(num_partitions=16), batch_format="pyarrow")
n_media = units.map_batches(lambda t: t.filter(
    __import__("pyarrow").compute.is_in(t["kind"], value_set=pa.array(["image","pdf_page"]))),
    batch_format="pyarrow").count()
print("media units:", n_media, "-> ~", n_media*4//1024, "GiB through 3 stages at 2MB x3")

t0=time.time()
out = build_media_pipeline(units, codec_factory=FatCodec, concurrency=8, batch_size=4)
total=rows=0
for b in out.iter_batches(batch_size=8, batch_format="pyarrow"):
    rows += len(b)
    for v in b["media_bytes"].to_pylist():
        if v is not None: total += len(v)
sec=time.time()-t0
print(f"rows {rows}, media bytes {total/1e9:.2f} GB, sec {sec:.1f}, GB/s {total/1e9/sec:.2f}")
import subprocess
spill = subprocess.run(["du","-sh","/tmp/ray/ray/session_latest/"],capture_output=True,text=True).stdout
print("ray session dir:", spill.strip())
ray.shutdown()
