"""One benchmark pass, run in a fresh interpreter.

    python3 bench/passrun.py SPEC.json

SPEC holds the source directory, the config text and where to write the
config, the outputs and the result.  The pass imports whipchain, writes the
config (its set-up), then calls ``whipchain.cli.main(["run", ...])``, the
CLI's entry point, and writes a JSON result with the timings, the host-speed
scale of each phase (see ``hostspeed.py``) and the peak memory.  With
``trace`` set, the layer tracer is installed after set-up and the spans are
written once the call has returned.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import SpeedProbe


def main(spec_path: str) -> int:
    probe = SpeedProbe().start()
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import whipchain.cli

    config_path = Path(spec["config_path"])
    config_path.write_text(spec["config"], encoding="utf-8")
    ready = time.perf_counter()
    setup_mark = probe.mark()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()

    call_mark = probe.mark()
    start = time.perf_counter()
    code = whipchain.cli.main(["run", str(config_path), "--output-dir", spec["out_dir"]])
    wall = time.perf_counter() - start
    probe.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "exit_code": code,
        "ready": ready,
        "wall_s": wall,
        "setup_scale": probe.scale(0, setup_mark),
        "call_scale": probe.scale(call_mark, probe.mark()),
        "probe_samples": probe.mark(),
        "peak_rss_mib": peak_kib / 1024.0,
    }
    if tracer is not None:
        tracer.write(spec["spans_path"])
        result["absent"] = tracer.absent
        result["emitted_bytes"] = tracer.emitted_bytes
        result["basis_builds"] = tracer.cache_misses("spectral.basis_q_table")
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
