"""Run a fixed list of experiments through the CLI and print the sha256 of
every file they write, so two runs can be compared byte for byte.

    PYTHONPATH=src python tools/output_digests.py OUT_DIR

Each line is ``<sha256>  <path relative to OUT_DIR>``, sorted by path;
``manifest.json`` is hashed without its ``started`` and ``finished`` times.
The list: the four benchmark workload configs at seed 1 and full size (read
from ``bench/workloads.py``, which is only imported), a d = 3 rigid rotation
and a three-seed random run (both writing csv and jsonl), a near_loop(48)
blowup hunt, the inequality suite at seeds 0-4 and a green_certify run.

Two listings of one checkout written into the same directory must be equal
(nondeterministic output shows as a difference).  Run against two checkouts,
each with its own ``src`` on PYTHONPATH and the same OUT_DIR path, the
listings show whether a change left every output unchanged.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from whipchain.cli import main  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

RUNS = {
    **{name: workload.params(1, False) for name, workload in WORKLOADS.items()},
    "rigid_rotation_d3": {
        "kind": "run", "initial.generator": "rigid_rotation", "initial.n": 16, "initial.d": 3,
        "initial.omega": 1.5, "integrator.t_end": 0.05, "integrator.report_stride": 2,
        "output.formats": "csv,jsonl",
    },
    "random_three_seeds": {
        "kind": "run", "initial.generator": "random", "initial.n": 64, "initial.vel_scale": 1.0,
        "integrator.t_end": 0.1, "integrator.report_stride": 5, "seeds": "3,5,4",
        "output.formats": "csv,jsonl",
    },
    "near_loop_hunt": {
        "kind": "blowup_hunt", "initial.generator": "near_loop", "initial.n": 48,
        "integrator.t_end": 1.0, "integrator.report_stride": 10, "output.formats": "csv,jsonl",
    },
    **{f"inequality_seed{seed}": {"kind": "inequality_suite", "seeds": seed} for seed in range(5)},
    "green_certify": {"kind": "green_certify"},
}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        payload = json.loads(data)
        for key in ("started", "finished"):
            payload.pop(key)
        data = json.dumps(payload, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def digests(out: Path) -> list[str]:
    """Run every experiment of ``RUNS`` into ``out/<name>`` (its config
    beside it as ``out/<name>.cfg``) and return the listing lines."""
    out.mkdir(parents=True, exist_ok=True)
    for name, params in RUNS.items():
        cfg = out / f"{name}.cfg"
        cfg.write_text(config_text(params), encoding="utf-8")
        code = main(["run", str(cfg), "--output-dir", str(out / name), "--quiet"])
        if code != 0:
            raise SystemExit(f"{name}: whipchain exited with code {code}")
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return [f"{_digest(p)}  {p.relative_to(out).as_posix()}" for p in files]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    print("\n".join(digests(Path(sys.argv[1]))))
