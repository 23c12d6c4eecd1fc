"""Run the riskforge stages cohort..report once, in this fresh process.

Invoked by run.py as a child process so that each run's peak resident
memory is its own. Writes one JSON result file:

    python3 perfbench/worker.py SRC_DIR CONFIG_JSON TRACE(0|1) RESULT_PATH

CONFIG_JSON holds RunConfig fields (data_dir and out_dir included). With
TRACE=1 the result also carries every span and kernel counter.
"""

import json
import resource
import sys
import time


def main(src, config_json, trace, result_path):
    sys.path.insert(0, src)
    from riskforge import _kernels, pipeline
    from riskforge.config import RunConfig

    import tracing

    cfg = RunConfig(**json.loads(config_json))
    # compile numba kernels (when numba is present) outside the timed stages
    _kernels.warmup()

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    artifacts = []
    begin = time.perf_counter()
    for stage in tracing.STAGES:
        if tracer is None:
            artifacts += pipeline.run_stage(stage, cfg)
        else:
            artifacts += tracer.run_span(f"pipeline.{stage}", pipeline.run_stage, stage, cfg)
    pipeline_s = time.perf_counter() - begin

    result = {
        "pipeline_s": pipeline_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifacts": artifacts,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4])
