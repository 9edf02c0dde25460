"""Config parsing, experiment kinds, series emission, manifests, CLI."""

import csv
import dataclasses
import gc
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from whipchain import dynamics, harness, spectral
from whipchain.cli import main as cli_main
from whipchain.dynamics import IntegratorConfig, _FIELDS, _JSONL_FIELDS, run
from whipchain.errors import ConfigError, NumericError
from whipchain.harness import (
    build_config,
    emit_series,
    parse_config,
    run_experiment,
    snapshot_state_from_json,
    snapshot_to_json,
)
from whipchain.initial_data import (
    folded_chain,
    make_initial,
    near_loop,
    perturbed_vertical,
    random_chain,
    rigid_rotation,
    rigid_rotation_exact,
    straight_chain,
)
from whipchain.spectral import angle_coefficients, continuize_Gn, discretize_Fn, eta_to_theta, theta_to_eta


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = """
kind = run
initial.generator = rigid_rotation
initial.n = 16
integrator.t_end = 0.02
"""


# ---------------------------------------------------------------------------
# config parsing


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.kind == "run"
        assert cfg.generator == "rigid_rotation"
        assert cfg.n == 16
        assert cfg.integrator.cfl == 0.5
        assert cfg.integrator.project is True
        assert cfg.seeds == (0,)
        assert cfg.formats == ("csv", "jsonl")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

    def test_n_one_rejected(self, tmp_path):
        bad = MINIMAL.replace("initial.n = 16", "initial.n = 1")
        with pytest.raises(ConfigError, match="initial.n"):
            parse_config(write_cfg(tmp_path, bad))

    @pytest.mark.parametrize(
        "key, value",
        [("gravty", "9.8"), ("integrator.scheme", "rk4")],   # RK4 is the one integrator: scheme is no key
        ids=["gravty", "integrator.scheme"],
    )
    def test_unknown_key_named(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"unknown key {key!r}")):
            parse_config(write_cfg(tmp_path, MINIMAL + f"{key} = {value}\n"))

    def test_readme_example_parses(self, tmp_path):
        # the example block under README's CLI section, verbatim
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("offending key named. Example:\n\n```\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(write_cfg(tmp_path, block))
        assert (cfg.kind, cfg.generator, cfg.n, cfg.generator_params) == ("run", "rigid_rotation", 64, {"omega": 1.0})
        assert (cfg.integrator.t_end, cfg.integrator.report_stride) == (6.2831853, 100)

    def test_unknown_generator(self, tmp_path):
        bad = MINIMAL.replace("rigid_rotation", "pendulum")
        with pytest.raises(ConfigError, match="pendulum"):
            parse_config(write_cfg(tmp_path, bad))

    def test_unknown_generator_param(self, tmp_path):
        with pytest.raises(ConfigError, match="initial.mass"):
            parse_config(write_cfg(tmp_path, MINIMAL + "initial.mass = 2\n"))

    def test_generator_param_passthrough(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + "initial.omega = 2.5\n"))
        assert cfg.generator_params == {"omega": 2.5}

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            build_config({"kind": "fly"})

    def test_line_without_equals_names_its_line(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "integrator.cfl 0.4\n")   # line 6: MINIMAL opens with a blank line
        with pytest.raises(ConfigError, match=re.escape(f"{path}:6: expected 'key = value', got 'integrator.cfl 0.4'")):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write_cfg(tmp_path, MINIMAL + "kind = run\n"))

    def test_bad_integrator_value(self, tmp_path):
        with pytest.raises(ConfigError, match="integrator.cfl"):
            parse_config(write_cfg(tmp_path, MINIMAL + "integrator.cfl = fast\n"))

    def test_bad_format(self, tmp_path):
        with pytest.raises(ConfigError, match="output.formats"):
            parse_config(write_cfg(tmp_path, MINIMAL + "output.formats = xml\n"))

    def test_convergence_needs_two_resolutions(self, tmp_path):
        text = MINIMAL.replace("kind = run", "kind = convergence")
        with pytest.raises(ConfigError, match="two resolutions"):
            parse_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("generator", ["straight", "rigid_rotation"])
    def test_integer_generator_param_parses_as_int(self, tmp_path, generator):
        text = MINIMAL.replace("rigid_rotation", generator) + "initial.d = 3\n"
        params = parse_config(write_cfg(tmp_path, text)).generator_params
        assert params == {"d": 3} and type(params["d"]) is int

    @pytest.mark.parametrize("key", ["project", "halt_on_negative_tension"])
    @pytest.mark.parametrize(
        "raw, value",
        [("off", False), ("no", False), ("0", False), ("false", False),
         ("on", True), ("YES", True), ("1", True), ("True", True)],
    )
    def test_boolean_integrator_keys(self, tmp_path, key, raw, value):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + f"integrator.{key} = {raw}\n"))
        assert getattr(cfg.integrator, key) is value

    @pytest.mark.parametrize("name, key", [("seeds", "seeds"), ("suite_n_values", "suite.n_values")])
    def test_replace_refuses_an_empty_list(self, name, key):
        # the parser cannot give an empty list, but every kind reads the
        # first seed and green_certify cycles through suite.n_values
        cfg = build_config({"kind": "green_certify"})
        with pytest.raises(ConfigError, match=re.escape(f"key {key!r} must be one or more integers")):
            dataclasses.replace(cfg, **{name: ()})

    def test_rng_is_not_a_key(self, tmp_path):
        # the random generator is seeded from `seeds`, never from initial.rng
        text = MINIMAL.replace("rigid_rotation", "random") + "initial.rng = 5\n"
        with pytest.raises(ConfigError, match="initial.rng"):
            parse_config(write_cfg(tmp_path, text))


# ---------------------------------------------------------------------------
# emission


class TestEmitSeries:
    def _traj(self, stride=3):
        return run(perturbed_vertical(8, amplitude=0.4), IntegratorConfig(t_end=0.01, report_stride=stride))

    def test_csv_row_count(self, tmp_path):
        traj = self._traj()
        path = emit_series(traj, "csv", tmp_path / "s.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + len(traj.snapshots)

    def test_csv_round_trip_17_digits(self, tmp_path):
        traj = self._traj()
        path = emit_series(traj, "csv", tmp_path / "s.csv")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            row = next(reader)
        cols = traj.series()
        for name, text in zip(header, row):
            if name in cols:
                assert float(text) == cols[name][0] or (np.isnan(float(text)) and np.isnan(cols[name][0]))

    def test_jsonl_bitwise_state_round_trip(self, tmp_path):
        traj = self._traj()
        path = emit_series(traj, "jsonl", tmp_path / "s.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(traj.snapshots)
        for line, snap in zip(lines, traj.snapshots):
            state = snapshot_state_from_json(json.loads(line))
            assert np.array_equal(state.eta, snap.state.eta)
            assert np.array_equal(state.eta_dot, snap.state.eta_dot)
            assert state.time == snap.state.time

    @pytest.mark.parametrize("key, value", [("n", 7), ("d", 3), ("n", "6")])
    def test_jsonl_record_with_a_wrong_size_refused(self, key, value):
        # the record comes from outside the program: its n and d must be its arrays'
        obj = snapshot_to_json(self._traj().snapshots[0])
        assert snapshot_state_from_json(obj).n == obj["n"]
        with pytest.raises(ValueError, match="n=.*d=.*arrays"):
            snapshot_state_from_json(dict(obj, **{key: value}))

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), -float("inf")])
    def test_jsonl_record_with_a_non_finite_time_refused(self, time):
        # json reads NaN, Infinity and -Infinity, but no state is at such a time
        line = json.dumps(dict(snapshot_to_json(self._traj().snapshots[0]), t=time))
        with pytest.raises(ValueError, match=f"^time must be finite, got {time}$"):
            snapshot_state_from_json(json.loads(line))

    CSV_HEADER = [
        "t", "e0", "e1", "e2", "e3", "et0", "et1", "et2", "et3", "u0", "v0", "a", "b", "c", "d1", "d2", "d3",
        "min_sigma", "max_ang_vel", "max_curvature", "constraint_drift",
        "ratio_a_e2", "ratio_c_e2e3", "ratio_d1_e3p4", "ratio_d2_e3p4", "ratio_d3_e3p6", "gronwall_et3_e3p7",
    ]
    JSONL_KEYS = [
        "t", "n", "d", "eta", "eta_dot", "sigma", "min_sigma", "positivity", "e", "e_tilde",
        "u0", "v0", "a", "b", "c", "d_norms", "constraint_drift",
    ]

    def test_schema_pinned(self, tmp_path):
        # the field table and the two order tuples give exactly these names, in this order
        traj = self._traj()
        with open(emit_series(traj, "csv", tmp_path / "s.csv"), newline="") as fh:
            assert next(csv.reader(fh)) == self.CSV_HEADER
        assert list(traj.series()) == self.CSV_HEADER[:21]
        for line in emit_series(traj, "jsonl", tmp_path / "s.jsonl").read_text().splitlines():
            assert list(json.loads(line)) == self.JSONL_KEYS
        assert list(snapshot_to_json(traj.snapshots[0])) == self.JSONL_KEYS

    @pytest.mark.parametrize("n, d, size", [(1, 2, 33), (5, 3, 65)])
    def test_store_row_is_the_index_and_the_field_widths(self, n, d, size):
        # the file index, n, d and positivity, then the floats: eta, eta_dot
        # and sigma, and 19 more (t, min_sigma, e and e_tilde of 4 each, u0,
        # v0, a, b, c, d_norms of 3 and constraint_drift)
        snap = run(rigid_rotation(n, d=d), IntegratorConfig(t_end=0.002)).snapshots[-1]
        widths = [int(np.prod(np.shape(_FIELDS[name].value(snap)))) for name in _JSONL_FIELDS]
        assert harness._jsonl_row(0, snap).size == 1 + sum(widths) == harness._store_layout(snap)[-1][2] == size
        assert size == 4 + 19 + (2 * d + 1) * (n + 1)

    def test_one_row_csv_has_a_nan_gronwall_quotient(self, tmp_path):
        # a folded chain starts at negative tension and halts at step 0: one
        # snapshot, so the Gronwall quotient has no difference to take
        traj = run(folded_chain(32), IntegratorConfig(t_end=0.05))
        assert (len(traj.snapshots), traj.termination) == (1, "negative_tension")
        with open(emit_series(traj, "csv", tmp_path / "s.csv"), newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == 1 and header[-1] == "gronwall_et3_e3p7" and rows[0][-1] == "nan"

    def test_empty_trajectory_refused(self, tmp_path):
        traj = self._traj()
        object.__setattr__(traj, "snapshots", [])
        target = tmp_path / "empty.csv"
        with pytest.raises(ValueError):
            emit_series(traj, "csv", target)
        assert not target.exists()

    def test_unknown_format_refused_without_a_file(self, tmp_path):
        target = tmp_path / "out" / "s.xml"
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            emit_series(self._traj(), "xml", target)
        assert list(tmp_path.iterdir()) == []


class TestSplitJsonl:
    """The JSONL writer encodes the snapshots put to it in the parent and, once
    they hold enough floats, in one forked child that encodes them from the
    front while the parent, at finish, steals them from the back; each file
    is the child's part followed by the parent's lines and must equal a
    serial write."""

    @pytest.fixture(scope="class")
    def traj(self):
        return run(perturbed_vertical(8, amplitude=0.4), IntegratorConfig(t_end=0.01, report_stride=1))

    @pytest.fixture
    def split(self, monkeypatch):
        """Fork an encoder child at any size when ``cores`` exceeds one."""
        monkeypatch.setattr(harness, "_MIN_CHILD_FLOATS", 1)

        def set_cores(cores):
            monkeypatch.setattr(harness, "_cpu_count", lambda: cores)

        return set_cores

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail, rather than hang, a test whose writer deadlocks."""

        def timed_out(*_):
            raise TimeoutError("the JSON-lines writer did not finish in 60 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture
    def children(self, monkeypatch):
        """Count the encoder children the writers start."""
        started = []
        start = harness._JsonlWriter._start

        def counting(writer):
            started.append(writer)
            start(writer)

        monkeypatch.setattr(harness._JsonlWriter, "_start", counting)
        return started

    @pytest.fixture
    def encoded(self, monkeypatch):
        """Count which side encodes each store row: ``by[0][i]`` the child's
        encodings of row i, ``by[1][i]`` the parent's, in shared memory a
        forked child inherits; ``first`` is set once the child has encoded a
        row."""
        import multiprocessing

        ctx, parent, row_line = multiprocessing.get_context("fork"), os.getpid(), harness._row_line
        counts = types.SimpleNamespace(by=(ctx.RawArray("i", 4096), ctx.RawArray("i", 4096)), first=ctx.Event())

        def counted(fd, i, layout):
            line = row_line(fd, i, layout)
            in_parent = os.getpid() == parent
            counts.by[in_parent][i] += 1
            if not in_parent:
                counts.first.set()
            return line

        monkeypatch.setattr(harness, "_row_line", counted)
        return counts

    @staticmethod
    def _child_share(encoded, records) -> int:
        """How many rows the child encoded, checking that each of ``records``
        rows was encoded exactly once, the child's rows before the parent's."""
        child, parent = (list(side) for side in encoded.by)
        share = child.count(1)
        assert child == [1] * share + [0] * (len(child) - share)
        assert parent == [0] * share + [1] * (records - share) + [0] * (len(parent) - records)
        return share

    @staticmethod
    def _finish_after(monkeypatch, event):
        """Hold each finish until ``event`` is set, so the child provably
        encodes a row before the parent steals any."""
        finish = harness._JsonlWriter.finish

        def waiting(writer, path):
            assert event.wait(30), "the encoder child never reached a row"
            finish(writer, path)

        monkeypatch.setattr(harness._JsonlWriter, "finish", waiting)

    @pytest.fixture
    def failing_child(self, split, monkeypatch):
        """Fork an encoder child that fails on its first row; the parent
        steals only once it has."""
        import multiprocessing

        split(2)
        parent, failed = os.getpid(), multiprocessing.get_context("fork").Event()
        encode = harness._jsonl_line

        def fails_in_child(row, layout):
            if os.getpid() != parent:
                failed.set()
                raise RuntimeError("encoder failure")
            return encode(row, layout)

        monkeypatch.setattr(harness, "_jsonl_line", fails_in_child)
        self._finish_after(monkeypatch, failed)

    @staticmethod
    def _serial(snaps) -> bytes:
        return "".join(json.dumps(snapshot_to_json(s)) + "\n" for s in snaps).encode()

    @staticmethod
    def _floats(snaps) -> int:
        return sum(harness._jsonl_row(0, s).size for s in snaps)

    @staticmethod
    def _no_live_child():
        import multiprocessing

        return not multiprocessing.active_children()

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_byte_identical_to_serial(self, traj, split, tmp_path, cores, count):
        assert len(traj.snapshots) >= count
        part = dataclasses.replace(traj, snapshots=traj.snapshots[:count])
        split(cores)
        assert harness._jsonl_encoders(count, self._floats(part.snapshots)) == min(cores, count, 2)
        path = emit_series(part, "jsonl", tmp_path / "s.jsonl")
        assert path.read_bytes() == self._serial(part.snapshots)
        assert list(tmp_path.iterdir()) == [path]
        assert self._no_live_child()

    def test_split_races_the_child(self, traj, split, children, tmp_path):
        # the parent steals right after forking the child, while the child
        # may be taking rows: whichever side takes a record, every record is
        # written once, in order
        split(2)
        for rep in range(24):
            part = dataclasses.replace(traj, snapshots=traj.snapshots[: 2 + rep % 6])
            path = emit_series(part, "jsonl", tmp_path / f"s{rep}.jsonl")
            assert path.read_bytes() == self._serial(part.snapshots), rep
        assert len(children) == 24
        assert self._no_live_child()

    def test_small_series_not_split(self, traj, monkeypatch):
        monkeypatch.setattr(harness, "_cpu_count", lambda: 4)
        assert harness._jsonl_encoders(len(traj.snapshots), self._floats(traj.snapshots)) == 1

    def test_cpu_count_is_the_affinity_mask(self, monkeypatch):
        # the cores this process may run on; 1 where the platform cannot say
        if hasattr(os, "sched_getaffinity"):
            assert harness._cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert harness._cpu_count() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert harness._cpu_count() == 1

    @pytest.mark.parametrize(
        "initial, cfg, spelled",
        [
            (perturbed_vertical(3, amplitude=0.4), IntegratorConfig(t_end=0.01), "NaN"),   # d_norms at n <= 4
            (random_chain(12, 5, vel_scale=1.0), IntegratorConfig(t_end=0.5, dt_max=0.01), "Infinity"),  # b
        ],
        ids=["nan_d_norms", "infinite_b"],
    )
    def test_non_finite_values_spelled_as_json(self, split, children, encoded, tmp_path, monkeypatch,
                                               initial, cfg, spelled):
        # reversed, so the last snapshot of a chain that stops (b infinite,
        # tension not positive) comes first, and the parent steals only once
        # the child has encoded that first row
        traj = run(initial, cfg)
        traj = dataclasses.replace(traj, snapshots=traj.snapshots[::-1])
        split(2)
        self._finish_after(monkeypatch, encoded.first)
        path = emit_series(traj, "jsonl", tmp_path / "s.jsonl")
        assert len(children) == 1
        assert self._child_share(encoded, len(traj.snapshots)) >= 1
        assert path.read_bytes() == self._serial(traj.snapshots)
        assert spelled in path.read_text().splitlines()[0]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_writer_keeps_no_snapshot(self, split, children, tmp_path, cores):
        # the store row is the writer's only copy of a record: once put, the
        # snapshots can be collected, and the file still comes out whole
        split(cores)
        snaps = run(perturbed_vertical(8, amplitude=0.4), IntegratorConfig(t_end=0.01, report_stride=1)).snapshots
        expected, refs = self._serial(snaps), [weakref.ref(s) for s in snaps]
        path = tmp_path / "s.jsonl"
        with harness._JsonlWriter([path]) as writer:
            for snap in snaps:
                writer.put(0, snap)
            del snaps, snap
            gc.collect()
            assert all(ref() is None for ref in refs)
            writer.finish(path)
        assert len(children) == cores - 1
        assert path.read_bytes() == expected
        assert self._no_live_child()

    def test_line_encoder_matches_json_dumps(self):
        for traj in (
            run(perturbed_vertical(3, amplitude=0.4), IntegratorConfig(t_end=0.01)),
            run(random_chain(12, 5, vel_scale=1.0), IntegratorConfig(t_end=0.5, dt_max=0.01)),
            run(straight_chain(5, d=3), IntegratorConfig(t_end=0.003)),
            run(rigid_rotation(1), IntegratorConfig(t_end=0.003)),
        ):
            for snap in traj.snapshots:
                layout = harness._store_layout(snap)
                line = harness._jsonl_line(harness._jsonl_row(0, snap), layout)
                assert line == json.dumps(snapshot_to_json(snap)) + "\n"

    def test_multi_seed_cli_equals_single_seed_runs(self, split, children, tmp_path):
        split(2)
        base = (
            "kind = run\ninitial.generator = random\ninitial.n = 12\ninitial.vel_scale = 1.0\n"
            "integrator.t_end = 0.05\nintegrator.report_stride = 2\noutput.formats = csv,jsonl\n"
        )
        path = write_cfg(tmp_path, base + "seeds = 3,5,4\n", name="all.cfg")
        assert cli_main(["run", str(path), "--output-dir", str(tmp_path / "all"), "--quiet"]) == 0
        assert len(children) == 1   # one child for every seed's file
        for seed in (3, 5, 4):
            path = write_cfg(tmp_path, base + f"seeds = {seed}\n", name=f"{seed}.cfg")
            assert cli_main(["run", str(path), "--output-dir", str(tmp_path / str(seed)), "--quiet"]) == 0
            for fmt in ("csv", "jsonl"):
                single = (tmp_path / str(seed) / f"series.{fmt}").read_bytes()
                assert (tmp_path / "all" / f"series_seed{seed}.{fmt}").read_bytes() == single
        assert self._no_live_child()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_blowup_hunt_streams_its_series(self, split, children, tmp_path, monkeypatch, cores):
        # the hunt steps through run_batch with the JSON-lines writer fed by
        # its hook, as a run does: every record reaches the writer while the
        # chain steps, and the files are emit_series of run() on the chain
        split(cores)
        stepping, records = [False], {True: 0, False: 0}
        run_batch, put = harness.run_batch, harness._JsonlWriter.put

        def tracked_run_batch(*args, **kwargs):
            stepping[0] = True
            try:
                return run_batch(*args, **kwargs)
            finally:
                stepping[0] = False

        def tracked_put(writer, idx, snap):
            records[stepping[0]] += 1
            put(writer, idx, snap)

        monkeypatch.setattr(harness, "run_batch", tracked_run_batch)
        monkeypatch.setattr(harness._JsonlWriter, "put", tracked_put)
        text = (
            "kind = blowup_hunt\ninitial.generator = near_loop\ninitial.n = 32\n"
            "integrator.t_end = 0.4\nintegrator.report_stride = 10\noutput.formats = csv,jsonl\n"
            f"output.dir = {tmp_path / 'bh'}\n"
        )
        cfg = parse_config(write_cfg(tmp_path, text))
        run_experiment(cfg)
        traj = run(near_loop(32), cfg.integrator)
        assert records == {True: len(traj.snapshots), False: 0}
        assert len(children) == cores - 1
        for fmt in ("csv", "jsonl"):
            want = emit_series(traj, fmt, tmp_path / f"ref.{fmt}").read_bytes()
            assert (tmp_path / "bh" / f"blowup_series.{fmt}").read_bytes() == want
        assert self._no_live_child()

    def test_failing_child_raises_oserror(self, traj, failing_child, tmp_path):
        # the split joins the child before the file is opened: no file
        target = tmp_path / "s.jsonl"
        with pytest.raises(OSError, match="exited with code 1") as info:
            emit_series(traj, "jsonl", target)
        assert str(target) in str(info.value)
        assert list(tmp_path.iterdir()) == []
        assert self._no_live_child()

    def test_failed_encoder_exits_5_leaving_only_the_manifest(self, failing_child, children, tmp_path, capsys):
        # the JSON lines are written before the CSV, so no series is left
        out = tmp_path / "o"
        path = write_cfg(tmp_path, MINIMAL + f"output.dir = {out}\n")
        assert cli_main(["run", str(path), "--quiet"]) == 5
        assert len(children) == 1
        assert capsys.readouterr().err == (
            f"output error: writing {out / 'series.jsonl'}: encoder process exited with code 1\n"
        )
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["status"] == "incomplete"
        assert self._no_live_child()

    @pytest.mark.parametrize("chunk", [0, 30])
    def test_full_pipe_never_blocks_the_parent(self, split, children, encoded, tmp_path, monkeypatch, chunk):
        # the child's feed (the store rows and their semaphore) stays full: the
        # child takes ``chunk`` rows, then waits until the parent is stealing,
        # after every put of the run has returned; were a put to wait on the
        # child, the run would never reach the split
        import multiprocessing

        parent, go = os.getpid(), multiprocessing.get_context("fork").Event()
        encode_records, encode = harness._encode_records, harness._jsonl_line

        class Stalls:
            def __init__(self, ready):
                self.ready, self.taken = ready, 0

            def acquire(self):
                if self.taken == chunk:
                    go.wait()
                self.taken += 1
                return self.ready.acquire()

        def stalled(rows, parts, end, ready, layout):
            encode_records(rows, parts, end, Stalls(ready), layout)

        def go_then_encode(row, layout):
            if os.getpid() == parent:
                go.set()
            return encode(row, layout)

        monkeypatch.setattr(harness, "_encode_records", stalled)
        monkeypatch.setattr(harness, "_jsonl_line", go_then_encode)
        split(2)
        text = MINIMAL.replace("initial.n = 16", "initial.n = 24").replace("t_end = 0.02", "t_end = 0.04")
        run_experiment(parse_config(write_cfg(tmp_path, text + f"output.dir = {tmp_path / 'o'}\n")))
        expected = self._serial(run(rigid_rotation(24), IntegratorConfig(t_end=0.04)).snapshots)
        records = len(expected.splitlines())
        assert records > 30
        assert len(children) == 1
        assert (tmp_path / "o" / "series.jsonl").read_bytes() == expected
        # the rows past ``chunk`` wait for the parent's first stolen row
        assert self._child_share(encoded, records) < records
        assert self._no_live_child()

    def test_caught_up_child_is_woken(self, traj, split, children, encoded, tmp_path, monkeypatch):
        # the child has encoded every record and waits for the next permit:
        # the parent steals none, and the permit it releases must wake the
        # child, or joining it never returns
        finish = harness._JsonlWriter.finish

        def finish_once_caught_up(writer, path):
            while sum(encoded.by[0]) < writer._stored:
                time.sleep(0.001)
            finish(writer, path)

        monkeypatch.setattr(harness._JsonlWriter, "finish", finish_once_caught_up)
        split(2)
        path = emit_series(traj, "jsonl", tmp_path / "s.jsonl")
        assert len(children) == 1
        assert self._child_share(encoded, len(traj.snapshots)) == len(traj.snapshots)
        assert path.read_bytes() == self._serial(traj.snapshots)
        assert self._no_live_child()

    def test_numeric_error_mid_run_leaves_no_series(self, split, children, tmp_path, monkeypatch):
        # a failed run writes its manifest alone, as it did before the series
        # were streamed: no partial series.jsonl, no temp file, no child
        import whipchain.dynamics as dynamics
        from whipchain.errors import NumericError

        made = []
        report = dynamics._report_stack

        def fails_at_the_fifth(*args):
            made.append(None)
            if len(made) == 5:
                raise NumericError("simulated failure", chain=0)
            return report(*args)

        monkeypatch.setattr(dynamics, "_report_stack", fails_at_the_fifth)
        split(2)
        path = write_cfg(tmp_path, MINIMAL + f"output.dir = {tmp_path / 'o'}\n")
        assert cli_main(["run", str(path), "--quiet"]) == 3
        assert len(children) == 1   # the child was encoding when the run failed
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["manifest.json"]
        assert self._no_live_child()


# ---------------------------------------------------------------------------
# experiment kinds through run_experiment


class TestRunExperiment:
    def test_run_kind(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + f"output.dir = {tmp_path/'out'}\n"))
        manifest = run_experiment(cfg)
        assert manifest.status == "complete"
        assert manifest.termination == "t_end_reached"
        out = tmp_path / "out"
        emitted = {p.name for p in out.iterdir()}
        assert {"series.csv", "series.jsonl", "manifest.json"} <= emitted
        listed = set(json.loads((out / "manifest.json").read_text())["files"])
        assert emitted == listed  # manifest completeness

    def test_manifest_code_version(self, tmp_path):
        import whipchain

        cfg = parse_config(write_cfg(tmp_path, MINIMAL + f"output.dir = {tmp_path/'out'}\n"))
        run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["code_version"] == whipchain.__version__
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        declared = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.MULTILINE)
        assert declared and declared.group(1) == whipchain.__version__

    def test_manifest_hash_reproducible(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + f"output.dir = {tmp_path/'out'}\n")
        cfg = parse_config(path)
        manifest = run_experiment(cfg)
        assert manifest.config_hash == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_determinism_byte_identical(self, tmp_path):
        text = (
            "kind = run\ninitial.generator = random\ninitial.n = 12\n"
            "integrator.t_end = 0.01\nseeds = 7\noutput.formats = csv\n"
        )
        outs = []
        for sub in ("a", "b"):
            cfg = parse_config(write_cfg(tmp_path, text + f"output.dir = {tmp_path/sub}\n", name=f"{sub}.cfg"))
            run_experiment(cfg)
            outs.append((tmp_path / sub / "series.csv").read_bytes())
        assert outs[0] == outs[1]

    @staticmethod
    def _weight_violations_per_trial(rng, trials=2000, slack=1e-12):
        """The weight-bound check on the same draws, as a loop of scalar
        rising_weight calls."""
        from math import exp, lgamma

        from whipchain.core import rising_weight

        n = rng.integers(2, 200, size=trials)
        k = rng.integers(1, n + 1)
        p, q = rng.uniform(0.05, 4.0, size=(2, trials))
        j = rng.integers(0, n - k + 1)
        bad = 0
        for n, k, p, q, j in zip(n.tolist(), k.tolist(), p.tolist(), q.tolist(), j.tolist()):
            skp = rising_weight(k, p, n)
            ratio = rising_weight(k, p + q, n) / rising_weight(k, q, n)
            cpq = exp(lgamma(p + q + 1) - lgamma(p + 1) - lgamma(q + 1))
            bad += not (skp * (1 - slack) <= ratio <= cpq * skp * (1 + slack))
            skj = rising_weight(k + j, p, n)
            cj = exp(lgamma(j + p + 1) - lgamma(j + 1) - lgamma(p + 1))
            bad += not (skp * (1 - slack) <= skj <= cj * skp * (1 + slack))
        return bad

    @pytest.mark.parametrize("slack", [1e-12, -1e-6, -0.05])
    def test_weight_bounds_match_scalar_loop(self, slack):
        # a negative slack makes the tight cases (k = 1, j = 0) and more fail,
        # so the counts compared are not all zero
        for seed in (0, 3, 11):
            got = harness._weight_bound_violations(np.random.default_rng(seed), 500, slack)
            want = self._weight_violations_per_trial(np.random.default_rng(seed), 500, slack)
            assert got == want
            assert (got > 0) == (slack < 0)

    @staticmethod
    def _product_violations_per_trial(rng, trials=500, slack=1e-12):
        """The product-bound check on the same draws, as a loop of per-trial
        weighted seminorms."""
        from math import gamma

        from whipchain.core import weighted_seminorm_sq, weighted_supnorm_sq

        n = rng.integers(2, 128, size=trials)
        p, q = rng.uniform(0.0, 3.0, size=(2, trials))
        fs, gs = rng.normal(size=(2, trials, 127))
        bad = 0
        for n, p, q, f, g in zip(n.tolist(), p.tolist(), q.tolist(), fs, gs):
            f, g = f[:n], g[:n]
            lhs = weighted_seminorm_sq(f * g, p + q, 0, n)
            rhs = gamma(p + q + 1) / (gamma(p + 1) * gamma(q + 1)) * weighted_supnorm_sq(
                f, p, 0, n
            ) * weighted_seminorm_sq(g, q, 0, n)
            bad += lhs > rhs * (1 + slack) + slack
        return bad

    @pytest.mark.parametrize("slack", [1e-12, -0.5, -0.8])
    def test_product_bound_matches_per_trial_loop(self, slack):
        # a negative slack makes some trials fail, so the counts compared are
        # not all zero; the draws leave the generator where the loop does
        for seed in (0, 3, 11):
            rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = harness._product_bound_violations(rng, 300, slack)
            want = self._product_violations_per_trial(loop_rng, 300, slack)
            assert got == want
            assert (got > 0) == (slack < 0)
            assert rng.random() == loop_rng.random()

    def test_weight_and_product_bounds_hold_at_seeds_0_to_19(self):
        # the suite's own trial counts at its default slack: no violation
        for seed in range(20):
            rng = np.random.default_rng(seed)
            assert harness._weight_bound_violations(rng) == 0, seed
            assert harness._product_bound_violations(rng) == 0, seed

    def test_rising_weights_bitwise_scalar(self):
        # the suite's weight table (core._rising_table) against the scalar
        # formula written out: the exact product for integer r >= 0, else
        # Gamma(1+r) n^{-r} prod_{j=1}^{k-1} (j+r)/j multiplied from the left
        from math import gamma

        from whipchain.core import _rising_table, rising_weight

        def scalar(k, r, n):
            if float(r).is_integer() and r >= 0:
                out = 1.0
                for i in range(int(r)):
                    out *= k + i
                return out / float(n) ** int(r)
            prod = 0.0 if k == 0 else 1.0
            for j in range(1, k):
                prod *= (j + r) / j
            return gamma(1.0 + r) / float(n) ** r * prod

        rng = np.random.default_rng(4)
        n = rng.integers(2, 300, size=400)
        k = np.minimum(rng.integers(0, 300, size=400), n)
        r = np.concatenate([rng.uniform(0.05, 8.0, size=396), [0.0, 1.0, 2.0, 3.0]])
        got = _rising_table(r, n, k.max() + 1)[np.arange(len(k)), k]
        want = [scalar(int(ki), float(ri), int(ni)) for ki, ri, ni in zip(k, r, n)]
        assert got.tolist() == want
        assert [rising_weight(int(ki), float(ri), int(ni)) for ki, ri, ni in zip(k, r, n)] == want

    def test_weight_entries_built_in_bounded_chunks(self, monkeypatch):
        # the suite reads one weight per row of the table; its rows are built
        # a bounded chunk at a time, and each entry is bitwise the whole table's
        from whipchain.core import _rising_table

        rng = np.random.default_rng(5)
        n = rng.integers(2, 200, size=1500)
        k = np.minimum(rng.integers(0, 200, size=1500), n)
        r = rng.uniform(0.05, 8.0, size=1500)
        r[::9] = np.floor(r[::9])   # integer r takes the exact product
        want = _rising_table(r, n, k.max() + 1)[np.arange(len(k)), k]
        rows = []
        monkeypatch.setattr(harness, "_rising_table", lambda *args: rows.append(len(args[0])) or _rising_table(*args))
        for chunk in (1, 7, 512):
            rows.clear()
            assert harness._table_entries(r, n, k, chunk).tobytes() == want.tobytes()
            assert max(rows) == chunk and sum(rows) == len(k)

    def test_binomial_is_the_gamma_ratio(self):
        from math import comb, gamma

        # the suite's one generalized binomial coefficient: exact binomials at
        # integers, the math.gamma ratio to round-off elsewhere
        got = harness._binomial(np.array([0, 1, 5, 12]), np.array([0.0, 3.0, 2.0, 7.0]))
        assert got == pytest.approx([1, comb(4, 1), comb(7, 2), comb(19, 7)], rel=1e-13)
        rng = np.random.default_rng(7)
        p, q = rng.uniform(0.0, 4.0, size=(2, 200))
        want = [gamma(x + y + 1) / (gamma(x + 1) * gamma(y + 1)) for x, y in zip(p.tolist(), q.tolist())]
        assert harness._binomial(p, q) == pytest.approx(want, rel=1e-13)

    def test_inequality_suite_zero_violations(self, tmp_path):
        text = (
            "kind = inequality_suite\nsuite.samples = 300\nsuite.n_values = 4,16\n"
            f"suite.r_values = 0.5,1,1.5,2\nseeds = 3\noutput.dir = {tmp_path/'iq'}\n"
        )
        manifest = run_experiment(parse_config(write_cfg(tmp_path, text)))
        assert manifest.status == "complete"
        assert manifest.violations == 0

    def test_green_certify_all_pass(self, tmp_path):
        text = (
            "kind = green_certify\nsuite.samples = 40\nsuite.n_values = 4,8,16\n"
            f"seeds = 5\noutput.dir = {tmp_path/'gc'}\n"
        )
        manifest = run_experiment(parse_config(write_cfg(tmp_path, text)))
        assert manifest.violations == 0
        stats = json.loads((tmp_path / "gc" / "green_certify.json").read_text())
        assert stats["count"] == 40

    @staticmethod
    def _certify_reference(cfg):
        """green_certify.json as a loop certifying the sweep's rows one chain at a time writes it."""
        from whipchain.spectral import AngleState
        from whipchain.tension import certify_bounds, green_matrix_for_chain

        stats = dict.fromkeys(("count", "applicable_upper", "upper_failures", "admissible_lower",
                               "lower_failures", "corner_failures", "minmax_failures"), 0)
        for theta in harness._certify_angle_stacks(cfg):
            for row in theta:
                chain = theta_to_eta(AngleState(row, np.zeros_like(row)))
                cert = certify_bounds(green_matrix_for_chain(chain), chain)
                stats["count"] += 1
                stats["minmax_failures"] += not cert.minmax_bound_ok
                if cert.all_alpha_nonneg:
                    stats["applicable_upper"] += 1
                    stats["upper_failures"] += not (cert.diff_bound_ok and cert.ratio_bound_ok)
                    stats["corner_failures"] += not cert.corner_ok
                if cert.upsilon_admissible:
                    stats["admissible_lower"] += 1
                    stats["lower_failures"] += not cert.lower_bound_ok
        return json.dumps(stats, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def _certify_config(tmp_path, seed, n_values, samples):
        out = tmp_path / f"gc_{seed}_{'_'.join(map(str, n_values))}_{samples}"
        text = (
            f"kind = green_certify\nsuite.samples = {samples}\nseeds = {seed}\n"
            f"suite.n_values = {','.join(map(str, n_values))}\noutput.dir = {out}\n"
        )
        return parse_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("chunk", [None, 100])
    def test_green_certify_matches_per_sample_loop(self, tmp_path, monkeypatch, chunk):
        if chunk is not None:  # several stacks per n and family
            monkeypatch.setattr(harness, "_CERTIFY_CHUNK_FLOATS", chunk)
        shapes = []

        def recording(eta, _certify=harness.certify_stack):
            shapes.append(eta.shape[:2])
            return _certify(eta)

        monkeypatch.setattr(harness, "certify_stack", recording)
        for seed in (1, 2, 3, 4):
            for n_values in ((64,), (64, 256), (2, 3, 17)):
                cfg = self._certify_config(tmp_path, seed, n_values, 45)
                manifest = run_experiment(cfg)
                written = (cfg.output_dir / "green_certify.json").read_text(encoding="utf-8")
                assert written == self._certify_reference(cfg)
                assert manifest.summary == json.loads(written)
        limit = harness._CERTIFY_CHUNK_FLOATS
        assert all(B * (rows - 1) <= max(limit, rows - 1) for B, rows in shapes)  # rows = n + 1
        groups = 4 * 2 * (1 + 2 + 3)  # one stack per seed, n and family unless the limit cuts it
        assert len(shapes) == groups if chunk is None else len(shapes) > groups

    def test_green_certify_gives_every_n_both_families(self, tmp_path):
        # each n has its own samples' count, half of them bounded-turn and half
        # small-turn, whatever the parity of len(suite.n_values)
        cfg = self._certify_config(tmp_path, 0, (64, 256), 40)
        turns = {64: [], 256: []}
        for theta in harness._certify_angle_stacks(cfg):
            turns[theta.shape[1]].extend(np.abs(np.diff(theta, axis=1)).max(axis=1))
        for nv, largest in turns.items():
            largest = np.array(largest)
            small = largest <= 0.6 * nv**-0.75
            assert len(largest) == 20 and np.count_nonzero(small) == 10
            assert np.all(largest[~small] <= 1.45)

    @pytest.mark.parametrize("n_values, samples", [((64, 256), 300), ((2, 3, 17), 45)], ids=["64,256", "2,3,17"])
    def test_green_certify_has_no_violation_at_seeds_0_to_9(self, tmp_path, n_values, samples):
        for seed in range(10):
            cfg = self._certify_config(tmp_path, seed, n_values, samples)
            manifest = run_experiment(cfg)
            assert manifest.violations == 0 and manifest.summary["count"] == samples

    def test_convergence_decreasing(self, tmp_path):
        text = (
            "kind = convergence\ninitial.generator = rigid_rotation\ninitial.n = 8,16,32\n"
            f"integrator.t_end = 0.2\noutput.dir = {tmp_path/'cv'}\n"
        )
        manifest = run_experiment(parse_config(write_cfg(tmp_path, text)))
        assert manifest.summary["monotone_decreasing"]
        errs = manifest.summary["errors"]
        assert errs["8"] > errs["16"] > errs["32"]

    @pytest.mark.parametrize("generator, n_list", [("rigid_rotation", "8,16,32"), ("theta_power", "10,20,37")])
    def test_convergence_builds_only_the_modes_it_reads(self, tmp_path, monkeypatch, generator, n_list):
        # the datum at n_ref = 2 max(n) is continuized to max(n) modes; the
        # errors match those of the full n_ref table
        text = (
            f"kind = convergence\ninitial.generator = {generator}\ninitial.n = {n_list}\n"
            "integrator.t_end = 0.01\n"
        )
        sizes = [int(n) for n in n_list.split(",")]
        top = max(sizes)
        built = []
        rows = spectral._basis_q_rows

        def spy(n, modes):
            built.append((n, modes))
            return rows(n, modes)

        spectral.basis_q_table.cache_clear()
        monkeypatch.setattr(spectral, "_basis_q_rows", spy)
        cfg = parse_config(write_cfg(tmp_path, text + f"output.dir = {tmp_path / 'modes'}\n", name="modes.cfg"))
        got = run_experiment(cfg).summary["errors"]
        assert set(built) == {(2 * top, top)} | {(n, n) for n in sizes}
        monkeypatch.setattr(harness, "continuize_Gn", lambda angles, modes: continuize_Gn(angles))
        cfg = parse_config(write_cfg(tmp_path, text + f"output.dir = {tmp_path / 'full'}\n", name="full.cfg"))
        want = run_experiment(cfg).summary["errors"]
        assert (2 * top, 2 * top) in built
        assert got.keys() == want.keys()
        for key in want:
            assert abs(got[key] - want[key]) <= 1e-15

    @pytest.mark.parametrize("generator, n_list", [("rigid_rotation", "8,16,32"), ("theta_power", "10,20,37")])
    def test_convergence_error_at_t0(self, tmp_path, generator, n_list):
        # error_t0 is the distance of `error` taken on the transferred chains
        # before they step, here recomputed from the full reference table
        out = tmp_path / "t0"
        text = (
            f"kind = convergence\ninitial.generator = {generator}\ninitial.n = {n_list}\n"
            f"integrator.t_end = 0.01\noutput.dir = {out}\n"
        )
        summary = run_experiment(parse_config(write_cfg(tmp_path, text))).summary
        sizes = [int(n) for n in n_list.split(",")]
        coeff_pos, coeff_vel = continuize_Gn(eta_to_theta(make_initial(generator, 2 * max(sizes))))
        chains = {n: theta_to_eta(discretize_Fn(coeff_pos, n, coeff_vel)) for n in sizes}
        if generator == "rigid_rotation":
            want = {n: np.max(np.linalg.norm(chains[n].eta - rigid_rotation_exact(n, 0.0).eta, axis=1))
                    for n in sizes}
        else:
            coeffs = {n: angle_coefficients(eta_to_theta(chains[n]).theta, n) for n in sizes}
            want = {n: np.linalg.norm(np.concatenate([coeffs[n], np.zeros(m - n)]) - coeffs[m])
                    for n, m in zip(sizes, sizes[1:])}
        got = summary["errors_t0"]
        assert got.keys() == summary["errors"].keys() == {str(n) for n in want}
        for n, value in want.items():
            assert abs(got[str(n)] - value) <= 1e-15
        with open(out / "convergence.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["n", "error", "ratio_to_previous", "error_t0", "dynamics_error"]
        assert [float(row["error_t0"]) for row in rows] == [got[row["n"]] for row in rows]

    @pytest.mark.parametrize("generator", ["rigid_rotation", "theta_power"])
    def test_convergence_dynamics_error(self, tmp_path, generator):
        # for rigid_rotation, the distance at t_end from the rigid rotation of
        # each transferred chain's own angles, which measures the stepper
        # alone; other generators leave the column empty
        out = tmp_path / "dyn"
        text = (
            f"kind = convergence\ninitial.generator = {generator}\ninitial.n = 8,16,32\n"
            f"integrator.t_end = 0.05\noutput.dir = {out}\n"
        )
        cfg = parse_config(write_cfg(tmp_path, text))
        summary = run_experiment(cfg).summary
        with open(out / "convergence.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if generator != "rigid_rotation":
            assert "dynamics_errors" not in summary
            assert rows and all(row["dynamics_error"] == "" for row in rows)
            return
        coeff_pos, coeff_vel = continuize_Gn(eta_to_theta(make_initial(generator, 64)))
        for row in rows:
            n = int(row["n"])
            start = theta_to_eta(discretize_Fn(coeff_pos, n, coeff_vel))
            final = run(start, cfg.integrator).snapshots[-1].state
            angles = eta_to_theta(start)
            # the transferred chain is straight and turns uniformly to round-off
            assert np.ptp(angles.theta) <= 1e-14 and np.ptp(angles.theta_dot) <= 1e-14
            turn = angles.theta[0] + angles.theta_dot[0] * final.time   # the links' direction
            exact = -np.outer(np.arange(n, -1, -1) / n, [np.cos(turn), np.sin(turn)])
            want = np.max(np.linalg.norm(final.eta - exact, axis=1))
            got = summary["dynamics_errors"][row["n"]]
            assert float(row["dynamics_error"]) == got
            assert abs(got - want) <= 1e-14
            assert got < 1e-10 < 1e-3 < summary["errors"][row["n"]]

    @pytest.mark.parametrize("generator, rows", [("rigid_rotation", ["8", "16", "32"]), ("theta_power", ["8", "16"])])
    def test_convergence_rows(self, tmp_path, generator, rows):
        # against a closed form every resolution has a row; otherwise row n is
        # the distance from n to the next resolution, and the largest has none
        text = (f"kind = convergence\ninitial.generator = {generator}\ninitial.n = 16,32,8\n"
                f"integrator.t_end = 0.002\noutput.dir = {tmp_path}\n")
        summary = run_experiment(parse_config(write_cfg(tmp_path, text))).summary
        with open(tmp_path / "convergence.csv", newline="", encoding="utf-8") as fh:
            assert [row["n"] for row in csv.DictReader(fh)] == rows == list(summary["errors"])

    def test_convergence_random_byte_identical(self, tmp_path):
        text = (
            "kind = convergence\ninitial.generator = random\ninitial.n = 8,16\n"
            "integrator.t_end = 0.01\nseeds = 4\n"
        )
        outs = []
        for sub in ("a", "b"):
            cfg = parse_config(write_cfg(tmp_path, text + f"output.dir = {tmp_path/sub}\n", name=f"{sub}.cfg"))
            run_experiment(cfg)
            outs.append((tmp_path / sub / "convergence.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_convergence_steps_every_resolution_in_one_batch(self, tmp_path, monkeypatch):
        # one run_batch call of chains of every n, each bitwise its own run
        calls = []
        batch = harness.run_batch

        def spy(initials, cfg, on_snapshot=None):
            trajs = batch(initials, cfg, on_snapshot)
            calls.append((initials, cfg, trajs))
            return trajs

        monkeypatch.setattr(harness, "run_batch", spy)
        text = (
            "kind = convergence\ninitial.generator = theta_power\ninitial.n = 16,8,32\n"
            f"integrator.t_end = 0.02\noutput.dir = {tmp_path / 'one'}\n"
        )
        run_experiment(parse_config(write_cfg(tmp_path, text)))
        assert len(calls) == 1
        initials, cfg, trajs = calls[0]
        assert [c.n for c in initials] == [8, 16, 32]
        for c, traj in zip(initials, trajs):
            want = run(c, cfg).snapshots[-1].state
            got = traj.snapshots[-1].state
            assert got.time == want.time and got.eta.tobytes() == want.eta.tobytes()

    def test_convergence_numeric_error_names_the_resolution(self, tmp_path, monkeypatch, capsys):
        # the step fails on batch row 1, the n = 16 chain
        def fail(links, links_dot, sigma, blocks, time, dt, cfg):
            raise NumericError("boom", chain=1)

        monkeypatch.setattr(dynamics, "_step_arrays", fail)
        text = (
            "kind = convergence\ninitial.generator = rigid_rotation\ninitial.n = 32,8,16\n"
            f"integrator.t_end = 0.01\noutput.dir = {tmp_path / 'fail'}\n"
        )
        path = write_cfg(tmp_path, text)
        with pytest.raises(NumericError, match="^n=16: boom$") as info:
            run_experiment(parse_config(path))
        assert info.value.chain == 1
        assert cli_main(["run", str(path), "--quiet"]) == 3
        assert capsys.readouterr().err == "numeric failure: n=16: boom\n"

    def test_convergence_invalid_initial_state_names_the_resolution(self, tmp_path, monkeypatch, capsys):
        # the n = 16 start is stretched off the constraint manifold, so
        # run_batch refuses it by name; the error names the resolution
        to_eta = harness.theta_to_eta

        def stretched(angles):
            chain = to_eta(angles)
            return dynamics.ChainState(1.001 * chain.eta, chain.eta_dot) if chain.n == 16 else chain

        monkeypatch.setattr(harness, "theta_to_eta", stretched)
        text = (
            "kind = convergence\ninitial.generator = rigid_rotation\ninitial.n = 32,8,16\n"
            f"integrator.t_end = 0.01\noutput.dir = {tmp_path / 'fail'}\n"
        )
        path = write_cfg(tmp_path, text)
        message = "n=16: initial state link-length drift 1.000e-03 exceeds tolerance 1.0e-10"
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$") as info:
            run_experiment(parse_config(path))
        assert info.value.chain == 1
        assert cli_main(["run", str(path), "--quiet"]) == 3
        assert capsys.readouterr().err == f"numeric failure: {message}\n"

    def test_interrupted_run_marked_incomplete(self, tmp_path, monkeypatch):
        import whipchain.harness as hz

        def boom(cfg, manifest):
            raise RuntimeError("simulated failure")

        monkeypatch.setitem(hz._KIND_RUNNERS, "run", boom)
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + f"output.dir = {tmp_path/'inc'}\n"))
        with pytest.raises(RuntimeError):
            run_experiment(cfg)
        manifest = json.loads((tmp_path / "inc" / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"

    BATCH = (
        "kind = run\ninitial.generator = random\ninitial.n = 12\ninitial.vel_scale = 1.0\n"
        "integrator.t_end = 0.5\nintegrator.dt_max = 0.01\nintegrator.report_stride = 5\n"
        "output.formats = csv,jsonl\n"
    )

    def test_batched_seeds_byte_identical_to_single_seed_runs(self, tmp_path):
        text = self.BATCH + f"seeds = 3,5,4,6\noutput.dir = {tmp_path / 'all'}\n"
        run_experiment(parse_config(write_cfg(tmp_path, text, name="all.cfg")))
        for seed in (3, 5, 4, 6):
            text = self.BATCH + f"seeds = {seed}\noutput.dir = {tmp_path / str(seed)}\n"
            run_experiment(parse_config(write_cfg(tmp_path, text, name=f"{seed}.cfg")))
            for fmt in ("csv", "jsonl"):
                single = (tmp_path / str(seed) / f"series.{fmt}").read_bytes()
                assert (tmp_path / "all" / f"series_seed{seed}.{fmt}").read_bytes() == single

    def test_multi_seed_summary_per_seed(self, tmp_path):
        from whipchain.initial_data import random_chain

        text = self.BATCH + f"seeds = 3,5,4,6\noutput.dir = {tmp_path / 'out'}\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        serial = {str(seed): run(random_chain(12, seed), cfg.integrator) for seed in (3, 5, 4, 6)}
        assert manifest["summary"]["terminations"] == {k: t.termination for k, t in serial.items()}
        assert manifest["summary"]["steps"] == {k: t.n_steps for k, t in serial.items()}
        assert manifest["summary"]["projection_max"] == {k: max(t.projection_log) for k, t in serial.items()}
        assert manifest["summary"]["projection_p99"] == {
            k: float(np.percentile(t.projection_log, 99)) for k, t in serial.items()
        }
        for k, t in serial.items():
            log = np.sort(t.projection_log)
            assert log[0] <= manifest["summary"]["projection_p99"][k] <= log[-1]
        assert set(manifest["summary"]["terminations"].values()) == {"t_end_reached", "negative_tension"}
        assert manifest["termination"] == serial["6"].termination

    def test_p99_bitwise_numpys_percentile(self):
        # the summary's p99 is numpy's default linear 99th percentile, bit
        # for bit, over sizes that put the virtual index at every weight and
        # over uniform, wide-exponent, tied and tiny values
        from whipchain.harness import _p99

        rng = np.random.default_rng(99)
        kinds = {
            "uniform": lambda size: rng.random(size),
            "wide": lambda size: np.exp(rng.uniform(-700.0, 700.0, size)),
            "tied": lambda size: rng.integers(0, 4, size) * 0.1,
            "tiny": lambda size: rng.random(size) * 5e-324 * 1e3,
        }
        for size in [*range(1, 600), 1000, 4096, 10001]:
            for kind, draw in kinds.items():
                x = draw(size)
                got, want = _p99(x), float(np.percentile(x, 99))
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (kind, size)

    def test_projection_max_of_a_seed_without_steps(self, tmp_path):
        # the chain stops at t = 0 on the blowup threshold; a run without
        # projection moves nothing
        runs = {"stopped": "integrator.blowup_threshold = 1e-6\n", "unprojected": "integrator.project = off\n"}
        for name, extra in runs.items():
            text = MINIMAL + extra + f"seeds = 7\noutput.dir = {tmp_path / name}\n"
            run_experiment(parse_config(write_cfg(tmp_path, text, name=f"{name}.cfg")))
            summary = json.loads((tmp_path / name / "manifest.json").read_text())["summary"]
            assert summary["projection_max"] == summary["projection_p99"] == {"7": 0.0}
            assert (summary["steps"]["7"] == 0) == (name == "stopped")

    def test_blowup_hunt_reports(self, tmp_path):
        text = (
            "kind = blowup_hunt\ninitial.generator = near_loop\ninitial.n = 32\n"
            "integrator.t_end = 0.4\nintegrator.report_stride = 10\n"
            f"output.dir = {tmp_path/'bh'}\n"
        )
        manifest = run_experiment(parse_config(write_cfg(tmp_path, text)))
        blow = json.loads((tmp_path / "bh" / "blowup.json").read_text())
        assert "fit_rejected" in blow
        if not blow["fit_rejected"]:
            assert np.isfinite(blow["T_est"])

    def test_blowup_hunt_flags_a_fit_on_the_bracket_edge(self, tmp_path):
        # maxima that keep growing slower than any power law near T: the fit
        # runs to the top of its search bracket, and says so
        text = (
            "kind = blowup_hunt\ninitial.generator = near_loop\ninitial.n = 48\n"
            "integrator.t_end = 2\nintegrator.report_stride = 50\nintegrator.blowup_threshold = 80\n"
            f"integrator.halt_on_negative_tension = false\noutput.dir = {tmp_path/'bh'}\n"
        )
        manifest = run_experiment(parse_config(write_cfg(tmp_path, text)))
        blow = json.loads((tmp_path / "bh" / "blowup.json").read_text())
        assert blow["fit_rejected"] is False and blow["at_bracket_edge"] is True
        assert manifest.summary["at_bracket_edge"] is True


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_exit_0(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + f"output.dir = {tmp_path/'o'}\noutput.formats = csv\n")
        assert cli_main(["run", str(path), "--quiet"]) == 0

    def test_exit_2_on_config_error(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "gravty = 1\n")
        assert cli_main(["run", str(path), "--quiet"]) == 2

    def test_exit_2_on_non_finite_t_end(self, tmp_path, capsys):
        text = MINIMAL.replace("t_end = 0.02", "t_end = nan")
        path = write_cfg(tmp_path, text + f"output.dir = {tmp_path/'nan'}\n")
        assert cli_main(["run", str(path), "--quiet"]) == 2
        assert "t_end must be finite" in capsys.readouterr().err

    def test_exit_2_on_non_boolean_value(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINIMAL + f"integrator.project = maybe\noutput.dir = {tmp_path/'b'}\n")
        assert cli_main(["run", str(path), "--quiet"]) == 2
        assert "integrator.project" in capsys.readouterr().err

    def test_exit_2_on_missing_file(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "none.cfg"), "--quiet"]) == 2

    @pytest.mark.parametrize("name, message", [("none.cfg", "config file not found: {}"),
                                               (".", "config path {} is not a file")], ids=["missing", "directory"])
    def test_exit_2_names_a_bad_config_path(self, tmp_path, capsys, name, message):
        path = tmp_path / name
        assert cli_main(["run", str(path), "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: {message.format(path)}\n"

    def test_exit_2_on_unreadable_file(self, tmp_path, capsys, monkeypatch):
        # the read itself is made to fail: root reads a mode-000 file
        path = write_cfg(tmp_path, MINIMAL + f"output.dir = {tmp_path/'o'}\n")

        def denied(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_bytes", denied)
        assert cli_main(["run", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: config file {path} cannot be read: Permission denied\n"
        assert not (tmp_path / "o").exists()

    def test_exit_2_on_a_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes((MINIMAL + f"output.dir = {tmp_path / 'o'}\n# caf\u00e9\n").encode("latin-1"))   # a lone \xe9 byte
        with pytest.raises(ConfigError, match=f"^{re.escape(f'config file {path} is not valid UTF-8')}$"):
            parse_config(path)
        assert cli_main(["run", str(path), "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: config file {path} is not valid UTF-8\n"
        assert not (tmp_path / "o").exists()

    def test_summary_line_without_quiet(self, tmp_path, capsys):
        out = tmp_path / "o"
        path = write_cfg(tmp_path, MINIMAL + f"output.dir = {out}\noutput.formats = csv\n")
        assert cli_main(["run", str(path)]) == 0
        assert capsys.readouterr().out == f"run: status=complete violations=0 termination=t_end_reached -> {out}\n"

    def test_config_with_a_byte_order_mark_runs(self, tmp_path, capsys):
        # an editor's UTF-8 BOM before the first key is not part of it; the
        # manifest hashes the file's bytes, BOM and all
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + (MINIMAL.lstrip() + f"output.dir = {tmp_path / 'o'}\n").encode())
        assert cli_main(["run", str(path), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config_hash"] == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "kind, key, value, rule",
        [
            ("run", "seeds", "3,3", "distinct"),
            ("run", "output.formats", "jsonl,jsonl", "distinct"),
            ("run", "initial.n", "8,16", "one value for kind 'run'"),
            ("blowup_hunt", "initial.n", "8,16", "one value for kind 'blowup_hunt'"),
            ("convergence", "initial.n", "16,16", "distinct"),
        ],
        ids=["seeds-3,3", "output.formats-jsonl,jsonl", "run-initial.n-8,16", "blowup_hunt-initial.n-8,16",
             "convergence-initial.n-16,16"],
    )
    def test_exit_2_on_repeated_entries(self, tmp_path, capsys, kind, key, value, rule):
        # a repeated seed or format names one series file twice; a second n
        # on a one-chain kind would be ignored, and a repeated n on
        # convergence would write one resolution twice
        pairs = {"kind": kind, "initial.generator": "rigid_rotation", "initial.n": 16,
                 "integrator.t_end": 0.02, key: value, "output.dir": tmp_path / "r"}
        path = write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in pairs.items()))
        assert cli_main(["run", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"key {key!r} must be {rule}" in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("via", ["key", "flag"])
    def test_exit_2_on_output_dir_not_creatable(self, tmp_path, capsys, via):
        # a directory under a regular file cannot be made
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        text = MINIMAL + (f"output.dir = {out}\n" if via == "key" else "")
        args = ["--output-dir", str(out)] if via == "flag" else []
        assert cli_main(["run", str(write_cfg(tmp_path, text)), "--quiet", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: key 'output.dir'") and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind, key, value, args",
        [
            ("inequality_suite", "suite.r_values", "0", []),
            ("inequality_suite", "suite.r_values", "-0.5", []),
            ("inequality_suite", "suite.r_values", "1,inf", []),
            ("inequality_suite", "suite.r_values", "150", []),
            ("inequality_suite", "suite.r_values", "170.5", []),
            ("inequality_suite", "suite.r_values", "1000", []),
            ("inequality_suite", "suite.r_values", "1e300", []),
            ("inequality_suite", "suite.samples", "-3", []),
            ("green_certify", "suite.n_values", "1,4", []),
            ("inequality_suite", "seeds", "-1", []),
            ("green_certify", "seeds", "0", ["--seed", "-1"]),
        ],
        ids=[
            "inequality_suite-suite.r_values-0",
            "inequality_suite-suite.r_values--0.5",
            "inequality_suite-suite.r_values-1,inf",
            "inequality_suite-suite.r_values-150",
            "inequality_suite-suite.r_values-170.5",
            "inequality_suite-suite.r_values-1000",
            "inequality_suite-suite.r_values-1e300",
            "inequality_suite-suite.samples--3",
            "green_certify-suite.n_values-1,4",
            "inequality_suite-seeds--1",
            "green_certify-seed_override--1",
        ],
    )
    def test_exit_2_on_bad_suite_value(self, tmp_path, capsys, kind, key, value, args):
        path = write_cfg(tmp_path, f"kind = {kind}\n{key} = {value}\noutput.dir = {tmp_path/'s'}\n")
        assert cli_main(["run", str(path), "--quiet", *args]) == 2
        assert key in capsys.readouterr().err

    def test_r_values_bound_is_read_at_the_largest_n(self, tmp_path, capsys):
        # r = 60 keeps every weight and intermediate below half the largest
        # double at n = 64; r = 150 does not, and its refusal names that n
        text = f"kind = inequality_suite\nsuite.samples = 50\nsuite.n_values = 4,64,16\noutput.dir = {tmp_path}\n"
        assert cli_main(["run", str(write_cfg(tmp_path, text + "suite.r_values = 60\n")), "--quiet"]) == 0
        assert cli_main(["run", str(write_cfg(tmp_path, text + "suite.r_values = 150\n")), "--quiet"]) == 2
        assert "k <= 64 (the largest suite.n_values)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, generator, n, key, value, named",
        [
            ("convergence", "rigid_rotation", "8,16", "d", "3", "initial.d"),
            ("run", "rigid_rotation", "8", "d", "1", "initial.d"),
            ("run", "theta_power", "8", "q", "-1", "theta_power"),
            ("run", "theta_power", "8", "q", "0", "theta_power"),
            ("run", "near_loop", "8", "loop_width", "0", "loop_width"),
            ("run", "rigid_rotation", "8", "omega", "nan", "'omega' must be finite"),
            ("run", "random", "8", "vel_scale", "-1", "vel_scale"),
            ("run", "random", "8", "max_turn", "-1", "max_turn"),
        ],
        ids=["convergence-d-3", "rigid_rotation-d-1", "theta_power-q--1", "theta_power-q-0",
             "near_loop-loop_width-0", "rigid_rotation-omega-nan", "random-vel_scale--1", "random-max_turn--1"],
    )
    def test_exit_2_on_generator_domain_error(self, tmp_path, capsys, kind, generator, n, key, value, named):
        text = (
            f"kind = {kind}\ninitial.generator = {generator}\ninitial.n = {n}\ninitial.{key} = {value}\n"
            f"integrator.t_end = 0.01\noutput.dir = {tmp_path/'g'}\n"
        )
        assert cli_main(["run", str(write_cfg(tmp_path, text)), "--quiet"]) == 2
        assert named in capsys.readouterr().err

    def test_convergence_error_is_distance_to_closed_form(self, tmp_path):
        # each reported error is max_k |eta_k - exact_k| of the chain the kind
        # integrates, against the rotating chain's closed form at t_end
        omega, t_end = 1.5, 0.1
        text = (
            f"kind = convergence\ninitial.generator = rigid_rotation\ninitial.n = 8,16\n"
            f"initial.omega = {omega}\nintegrator.t_end = {t_end}\noutput.dir = {tmp_path/'cv'}\n"
        )
        assert cli_main(["run", str(write_cfg(tmp_path, text)), "--quiet"]) == 0
        errors = json.loads((tmp_path / "cv" / "manifest.json").read_text())["summary"]["errors"]
        cp, cv = continuize_Gn(eta_to_theta(rigid_rotation(32, omega)))
        for n in (8, 16):
            chain = theta_to_eta(discretize_Fn(cp, n, cv))
            fin = run(chain, IntegratorConfig(t_end=t_end)).snapshots[-1].state
            exact = rigid_rotation_exact(n, t_end, omega).eta
            assert errors[str(n)] == pytest.approx(np.max(np.linalg.norm(fin.eta - exact, axis=1)), abs=1e-14)

    def test_exit_2_on_removed_workers_key_and_flag(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINIMAL + f"workers = 1\noutput.dir = {tmp_path/'w'}\n")
        assert cli_main(["run", str(path), "--quiet"]) == 2
        assert "unknown key 'workers'" in capsys.readouterr().err
        path = write_cfg(tmp_path, MINIMAL + f"output.dir = {tmp_path/'w'}\n", name="flag.cfg")
        with pytest.raises(SystemExit) as info:
            cli_main(["run", str(path), "--workers", "1", "--quiet"])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_integer_generator_param_run_exits_0(self, tmp_path):
        text = MINIMAL.replace("rigid_rotation", "straight") + "initial.d = 3\noutput.formats = csv\n"
        path = write_cfg(tmp_path, text + f"output.dir = {tmp_path/'d3'}\n")
        assert cli_main(["run", str(path), "--quiet"]) == 0

    def test_output_dir_and_seed_overrides(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "kind = run\ninitial.generator = random\ninitial.n = 8\n"
            "integrator.t_end = 0.005\nseeds = 1,2\noutput.formats = csv\n",
        )
        out = tmp_path / "ovr"
        assert cli_main(["run", str(path), "--output-dir", str(out), "--seed", "9", "--quiet"]) == 0
        assert (out / "series.csv").exists()

    def test_exit_3_on_numeric_failure(self, tmp_path, monkeypatch):
        import whipchain.tension as tension

        monkeypatch.setattr(tension, "SOLVE_RTOL", -1.0)
        path = write_cfg(tmp_path, MINIMAL + f"output.dir = {tmp_path/'nf'}\noutput.formats = csv\n")
        assert cli_main(["run", str(path), "--quiet"]) == 3

    @pytest.mark.parametrize(
        "kind, generator, n, key",
        [
            ("run", "log_spiral", "16", "vel_amp"),
            ("run", "theta_power", "8", "vel_amp"),
            ("convergence", "rigid_rotation", "8,16", "omega"),
        ],
        ids=["log_spiral-vel_amp", "theta_power-vel_amp", "convergence-omega"],
    )
    def test_fast_state_on_manifold_runs(self, tmp_path, kind, generator, n, key):
        # at speed 1e9 the orthogonality drift of these states is 1e-7..1e-6,
        # round-off relative to their speed, so the run is accepted
        text = (
            f"kind = {kind}\ninitial.generator = {generator}\ninitial.n = {n}\ninitial.{key} = 1e9\n"
            f"integrator.t_end = 1e-9\nintegrator.blowup_threshold = 1e12\noutput.dir = {tmp_path/'fast'}\n"
        )
        assert cli_main(["run", str(write_cfg(tmp_path, text)), "--quiet"]) == 0
        manifest = json.loads((tmp_path / "fast" / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["termination"] in (None, "t_end_reached")

    @pytest.mark.parametrize("vel_amp, skew", [(0.0, 1e-7), (1e9, 1e3)], ids=["at_rest", "fast"])
    def test_exit_3_on_initial_state_off_manifold(self, tmp_path, capsys, monkeypatch, vel_amp, skew):
        # eta_dot + skew * eta adds skew * |D+ eta|^2 = skew to every
        # <D+ eta_k, D+ eta_dot_k>: 10 and 100 times the scaled tolerance
        from whipchain import initial_data
        from whipchain.core import ChainState

        def skewed_spiral(n: int, vel_amp: float = 0.0) -> ChainState:
            ch = initial_data.log_spiral(n, vel_amp)
            return ChainState(ch.eta, ch.eta_dot + skew * ch.eta)

        monkeypatch.setitem(initial_data.GENERATORS, "log_spiral", skewed_spiral)
        text = (
            f"kind = run\ninitial.generator = log_spiral\ninitial.n = 16\ninitial.vel_amp = {vel_amp}\n"
            f"integrator.t_end = 1e-9\nintegrator.blowup_threshold = 1e12\noutput.dir = {tmp_path/'off'}\n"
        )
        assert cli_main(["run", str(write_cfg(tmp_path, text)), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "orthogonality drift" in err and "chain 0" in err

    def test_exit_3_on_overflowing_link_speeds(self, tmp_path, capsys):
        # the initial state is refused by name, not by a NaN backward error
        text = (
            f"kind = run\ninitial.generator = log_spiral\ninitial.n = 16\ninitial.vel_amp = 1e300\n"
            f"integrator.t_end = 0.01\noutput.dir = {tmp_path/'ovf'}\n"
        )
        assert cli_main(["run", str(write_cfg(tmp_path, text)), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "link speeds" in err and "chain 0" in err and "backward error" not in err

    def test_cli_import_leaves_out_scipy_optimize(self):
        # nor the scipy.linalg and scipy.special package imports, nor
        # importlib.metadata, nor numpy.polynomial (only basis_Q_deriv reads
        # it); numpy.random is loaded at import, not inside the first run
        # that draws a random chain
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import json, sys; before = set(sys.modules); import whipchain.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        for module in ("scipy.optimize", "scipy.linalg", "scipy.special", "importlib.metadata", "numpy.polynomial"):
            assert module not in loaded
        assert "numpy.random" in loaded

    def test_run_and_convergence_leave_out_numpy_ma_and_scipy_optimize(self, tmp_path):
        # a two-seed csv+jsonl run and a convergence study, in a fresh
        # interpreter, import none of these: np.percentile would pull in
        # numpy.ma
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run_cfg = write_cfg(tmp_path, "kind = run\ninitial.generator = random\ninitial.n = 8\n"
                            "integrator.t_end = 0.005\nseeds = 1,2\noutput.formats = csv,jsonl\n"
                            f"output.dir = {tmp_path / 'run'}\n", "run.cfg")
        conv_cfg = write_cfg(tmp_path, "kind = convergence\ninitial.generator = rigid_rotation\n"
                             "initial.n = 8,16\nintegrator.t_end = 0.005\n"
                             f"output.dir = {tmp_path / 'conv'}\n", "conv.cfg")
        code = (
            "import json, sys; import whipchain.cli as cli; "
            f"codes = [cli.main(['run', {str(run_cfg)!r}, '--quiet']), cli.main(['run', {str(conv_cfg)!r}, '--quiet'])]; "
            "print(json.dumps([codes, sorted(m for m in ('numpy.ma', 'scipy.optimize', 'numpy.polynomial') if m in sys.modules)]))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0, 0]
        assert (tmp_path / "run" / "series_seed2.jsonl").is_file() and (tmp_path / "conv" / "convergence.csv").is_file()
        assert loaded == []

    def test_console_script(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + f"output.dir = {tmp_path/'cs'}\noutput.formats = csv\n")
        proc = subprocess.run(
            [sys.executable, "-m", "whipchain.cli", "run", str(path), "--quiet"],
            capture_output=True,
        )
        assert proc.returncode == 0
