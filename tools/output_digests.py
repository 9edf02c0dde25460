"""Run a fixed list of experiments through the CLI and print the sha256 of
every file they write, so two runs can be compared byte for byte.

    PYTHONPATH=src python tools/output_digests.py OUT_DIR
    PYTHONPATH=src python tools/output_digests.py --against REV OUT_DIR

Each line is ``<sha256>  <path relative to OUT_DIR>``, sorted by path;
``manifest.json`` is hashed without its ``started`` and ``finished`` times.
The list: the four benchmark workload configs at seed 1 and full size (read
from ``bench/workloads.py``, which is only imported), a d = 3 rigid rotation
and a three-seed random run (both writing csv and jsonl), a theta_power
convergence study at n = 32..256 (only its n = 256 chain steps below dt_max,
so the resolutions step at different dt), the same study at a
blowup_threshold of 60, under every resolution's curvature ceiling 2n (so
the stepper takes the fallback of each whole-stack screen: it forms the
curvature at every step and steps each chain by its own dt), a folded
n = 32 chain run with the negative-tension halt off (it starts at
min_sigma = -0.133 and runs to t_end), a near_loop(48) blowup hunt, the
inequality suite at seeds 0-4 and a green_certify run.  The two theta_power studies and ``convergence_ladder``
continuize at n_ref = 512 (256 rows), whose bytes are the same on one BLAS
thread and on two.  No run holds an n = 512 chain: its n_ref = 1024
transfer rounds differently with the number of BLAS threads.

Two listings of one checkout written into the same directory must be equal
(nondeterministic output shows as a difference).  Run against two checkouts,
each with its own ``src`` on PYTHONPATH and the same OUT_DIR path, the
listings show whether a change left every output unchanged.  ``--against
REV`` does that comparison: it extracts ``git archive REV src`` into a
temporary directory and writes REV's listing and then this checkout's into
OUT_DIR, which must be absent or empty, each in a child process with that
``src`` on PYTHONPATH.  It prints the lines that differ, ``-`` for REV and
``+`` for this checkout.  Then it gives the line count of each
``src/whipchain/*.py`` module at REV and here, with the change (0 for a
module one side lacks), and in its last line their totals, as ``wc -l``
counts them.

Exit codes: 0 when the listing is written, or with ``--against`` when the
two listings are equal; 1 when they differ; 2, with one line on stderr, on
any other failure (a usage error, an unknown REV, a non-empty OUT_DIR, a run
that exits nonzero, a listing child that fails).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

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
    "convergence_theta_power": {
        "kind": "convergence", "initial.generator": "theta_power", "initial.vel_amp": 8,
        "initial.n": "32,64,128,256", "integrator.t_end": 0.01,
    },
    "convergence_fallbacks": {
        "kind": "convergence", "initial.generator": "theta_power", "initial.vel_amp": 8,
        "initial.n": "32,64,128,256", "integrator.t_end": 0.01, "integrator.blowup_threshold": 60,
    },
    "folded_halt_off": {
        "kind": "run", "initial.generator": "folded", "initial.n": 32, "integrator.t_end": 0.05,
        "integrator.report_stride": 5, "integrator.halt_on_negative_tension": "false", "output.formats": "csv,jsonl",
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
            raise RuntimeError(f"{name}: whipchain exited with code {code}")
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return [f"{_digest(p)}  {p.relative_to(out).as_posix()}" for p in files]


def _run(args: list, **kwargs) -> bytes:
    """The stdout of the child ``args``; a nonzero exit raises with the
    last line it wrote to stderr."""
    run = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)
    if run.returncode != 0:
        last = (run.stderr.decode(errors="replace").splitlines() or [""])[-1]
        raise RuntimeError(f"{Path(args[0]).name} exited with code {run.returncode}: {last}")
    return run.stdout


def _listing(src: Path, out: Path) -> list[str]:
    """The listing of the package in ``src``, written into ``out`` by a child."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return _run([sys.executable, __file__, str(out)], env=env).decode().splitlines()


def _line_counts(src: Path) -> dict[str, int]:
    """The number of lines of each of the package's modules,
    ``src/whipchain/*.py``, by file name."""
    return {p.name: p.read_bytes().count(b"\n") for p in (src / "whipchain").glob("*.py")}


def against(rev: str, out: Path) -> int:
    """Print the lines in which REV's listing and this checkout's differ, both
    written into ``out``, then the line counts of each module and their
    totals; 1 if any lines differ, else 0."""
    if out.exists() and any(out.iterdir()):
        raise ValueError(f"{out} is not empty")
    archive = _run(["git", "archive", rev, "src"], cwd=ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        _run(["tar", "-x", "-C", tmp], input=archive)
        before = _listing(Path(tmp) / "src", out)
        lines_before = _line_counts(Path(tmp) / "src")
    shutil.rmtree(out)   # all of it written by REV's run
    after = _listing(ROOT / "src", out)
    diff = [f"- {line}" for line in before if line not in after] + [f"+ {line}" for line in after if line not in before]
    print("\n".join(diff) if diff else f"no difference in {len(after)} lines against {rev}")
    lines = _line_counts(ROOT / "src")
    for name in sorted(lines_before.keys() | lines.keys()):
        old, new = lines_before.get(name, 0), lines.get(name, 0)
        print(f"src/whipchain/{name}: {old} lines at {rev}, {new} here ({new - old:+d})")
    print(f"src/whipchain/*.py: {sum(lines_before.values())} lines at {rev}, {sum(lines.values())} here")
    return 1 if diff else 0


if __name__ == "__main__":
    try:
        if len(sys.argv) == 4 and sys.argv[1] == "--against":
            raise SystemExit(against(sys.argv[2], Path(sys.argv[3])))
        if len(sys.argv) != 2:
            raise ValueError("usage: output_digests.py [--against REV] OUT_DIR")
        print("\n".join(digests(Path(sys.argv[1]))))
    except Exception as exc:   # every failure but a difference (SystemExit is no Exception)
        print(f"output_digests: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
