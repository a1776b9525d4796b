import warnings, time, os, sys; warnings.filterwarnings("ignore")
import ray
ray.init(address="local", num_cpus=32, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0,"/root/repo")
from ocr_agent_ray.sources.corpus import write_corpus_parquet_ray, read_documents
from ocr_agent_ray.pipelines.extract import run_extract_checkpointed
from ocr_agent_ray.config import PipelineSettings
from ocr_agent_ray.state.checkpoint import CheckpointStore

t0=time.time()
if not os.path.exists("/tmp/graft_smoke100k/corpus/docs-000000000.parquet"):
    write_corpus_parquet_ray("/tmp/graft_smoke100k/corpus", 100_000, rows_per_file=5000)
print("corpus gen sec", round(time.time()-t0,1))

# barrier-free round-2 config: fused fan-out granularity + fractional-CPU
# reads + pre-shuffle coalesce (see pipelines/extract.py)
settings = PipelineSettings(ocr_concurrency=30, ocr_batch_size=256,
                            fanout_batch_size=256, num_partitions=256)
t0=time.time()
s = run_extract_checkpointed(read_documents("/tmp/graft_smoke100k/corpus",
                                            num_blocks=512, read_cpus=0.25),
                             "/tmp/graft_smoke100k/out", settings=settings)
sec = time.time()-t0
print("run sec", round(sec,1), s)
store = CheckpointStore("/tmp/graft_smoke100k/out")
out = store.read_output()
n = out.count()
print("docs committed:", n, "docs/s:", round(n/sec,1))
import subprocess
print(subprocess.run(["du","-sh","/tmp/graft_smoke100k/out/data","/tmp/graft_smoke100k/corpus"],capture_output=True,text=True).stdout)
ray.shutdown()
