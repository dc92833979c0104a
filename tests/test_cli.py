"""Command-line tests: each subcommand end to end on small synthetic
scenarios, override parsing, and failure exit codes."""

import itertools
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from fastive import cli, extractor, metrics, roomsim
from fastive.cli import apply_overrides, build_parser, main
from fastive.extractor import STAGES, SolverConfig
from fastive.priors import ContrastModel
from fastive.stft import AudioBuffer, StftConfig, load_wav, save_wav


def write_scenario(path, **extra):
    cfg = {
        "fs": 16000,
        "num_sources": 2,
        "num_mics": 2,
        "sources": {"kind": "synthetic", "duration_seconds": 1.0},
        "input_sir_db": 10.0,
        "seed": 5,
    }
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return cfg


def test_apply_overrides_parsing():
    cfg = {"room": {"rt60": 0.2}}
    apply_overrides(cfg, ["room.rt60=0.3", "trials=5", "prior=[\"t\",\"ssl\"]",
                          "sources.kind=synthetic", "note=free text"])
    assert cfg["room"]["rt60"] == 0.3
    assert cfg["trials"] == 5
    assert cfg["prior"] == ["t", "ssl"]
    assert cfg["sources"] == {"kind": "synthetic"}
    assert cfg["note"] == "free text"
    with pytest.raises(ValueError, match="KEY=VALUE"):
        apply_overrides({}, ["rt60"])


def test_parser_covers_all_subcommands():
    parser = build_parser()
    args = parser.parse_args(["extract", "x.wav", "--prior", "ssl"])
    assert args.command == "extract" and args.prior == "ssl"
    for cmd, positional in (("simulate", "s.json"), ("evaluate", "e.wav"),
                            ("bench", "g.json")):
        extra = ["--mixture", "m.wav", "--target", "t.wav"] \
            if cmd == "evaluate" else []
        assert build_parser().parse_args([cmd, positional] + extra).command == cmd


def test_cli_import_leaves_scipy_signal_unloaded():
    """Importing the package and its CLI loads no scipy module: the renderer
    and the scorer transform with numpy.fft, and scipy.io is loaded only
    when a WAV is read or written.  Nor does it load numpy.polynomial: the
    room simulator fits its kernel series with plain numpy.  Scoring still
    works in that process, loading scipy.linalg on its first
    factorisation."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    script = """
import sys
import numpy as np
import fastive, fastive.cli
from fastive import metrics
from fastive.extractor import ExtractionResult
from fastive.roomsim import MixtureSet
from fastive.stft import AudioBuffer

loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
assert "numpy.polynomial" not in sys.modules
rng = np.random.default_rng(0)
images = [AudioBuffer(rng.normal(size=(1000, 2)), 16000) for _ in range(2)]
mixture = AudioBuffer(images[0].samples + images[1].samples, 16000)
estimate = ExtractionResult(images[0], state=None, runtime_seconds=0.0,
                            iterations_used=0)
report = metrics.evaluate(estimate, MixtureSet(mixture, images), filter_len=8)
assert report.output_sir_db > report.input_sir_db, report
assert "scipy.linalg" in sys.modules
"""
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   timeout=120)


def test_simulate_extract_evaluate_pipeline(tmp_path, capsys):
    scen_path = tmp_path / "scene.json"
    write_scenario(scen_path)
    sim_dir = tmp_path / "sim"
    assert main(["simulate", str(scen_path), "-o", str(sim_dir)]) == 0
    assert (sim_dir / "mixture.wav").exists()
    assert (sim_dir / "image_00.wav").exists()
    assert (sim_dir / "image_01.wav").exists()

    echo = json.loads((sim_dir / "scenario_resolved.json").read_text())
    assert echo["manifest"]["command"] == "simulate"
    assert echo["manifest"]["seed"] == 5
    assert echo["scenario"]["input_sir_db"] == 10.0
    assert len(echo["scenario"]["mic_positions"]) == 2

    mixture = load_wav(sim_dir / "mixture.wav")
    total = sum(load_wav(sim_dir / f"image_{i:02d}.wav").samples
                for i in range(2))
    np.testing.assert_allclose(mixture.samples, total, atol=1e-6)

    ext_dir = tmp_path / "ext"
    assert main(["extract", str(sim_dir / "mixture.wav"), "-o", str(ext_dir),
                 "--fft-size", "512", "--hop", "128"]) == 0
    est_path = ext_dir / "mixture_extracted.wav"
    assert est_path.exists()
    report = json.loads((ext_dir / "mixture_report.json").read_text())
    assert report["config"]["stft"]["fft_size"] == 512
    assert report["iterations_used"] >= 1
    assert report["runtime_s"] > 0.0
    assert set(report["timings_s"]) == set(STAGES)
    assert len(report["cost_history"]) == report["iterations_used"]

    capsys.readouterr()
    assert main(["evaluate", str(est_path),
                 "--mixture", str(sim_dir / "mixture.wav"),
                 "--target", str(sim_dir / "image_00.wav"),
                 "--interferer", str(sim_dir / "image_01.wav"),
                 "--filter-len", "128", "--algorithm", "fastive-t",
                 "--scenario-id", "pipe-0"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["scenario_id"] == "pipe-0"
    assert record["algorithm"] == "fastive-t"
    assert record["input_sir_db"] == pytest.approx(10.0, abs=0.5)
    assert record["sirimp_db"] > 0.0
    assert record["success"] is True
    # a WAV on disk carries no extraction time, iteration count or flag
    assert record["runtime_s"] is None and record["iterations"] is None
    assert record["converged"] is None


def test_extract_report_config_round_trips(tmp_path):
    # the report alone must rebuild the configuration that ran
    wav = tmp_path / "noise.wav"
    rng = np.random.default_rng(0)
    save_wav(wav, AudioBuffer(rng.laplace(size=(8000, 2)), 16000))
    assert main(["extract", str(wav), "-o", str(tmp_path),
                 "--prior", "gg", "--gg-exponent", "0.3", "--max-iter", "5",
                 "--ref-mic", "1", "--rank", "1",
                 "--fft-size", "512", "--hop", "128"]) == 0
    cfg = json.loads((tmp_path / "noise_report.json").read_text())["config"]
    assert set(cfg) == {"solver", "stft"}
    solver = SolverConfig(**{**cfg["solver"],
                             "prior": ContrastModel(**cfg["solver"]["prior"])})
    assert solver == SolverConfig(
        prior=ContrastModel(kind="gg", gg_exponent=0.3), max_iter=5, ref_mic=1,
        rank=1)
    # and the config parser reads the block back whole, prior nested inside
    assert cli.config_object(SolverConfig, cfg["solver"], "solver") == solver
    assert StftConfig(**cfg["stft"]) == StftConfig(fft_size=512, hop_size=128)

    # with no flags the CLI runs the library defaults
    default_dir = tmp_path / "defaults"
    assert main(["extract", str(wav), "-o", str(default_dir)]) == 0
    cfg = json.loads((default_dir / "noise_report.json").read_text())["config"]
    assert cfg == {"solver": asdict(SolverConfig()), "stft": asdict(StftConfig())}


def test_evaluate_rejects_a_missing_channel(tmp_path, capsys):
    rng = np.random.default_rng(1)
    paths = []
    for name in ("est", "mix", "tgt", "int"):
        paths.append(tmp_path / f"{name}.wav")
        save_wav(paths[-1], AudioBuffer(rng.normal(size=(4000, 2)), 16000))
    est, mix, tgt, intf = (str(p) for p in paths)
    assert main(["evaluate", est, "--mixture", mix, "--target", tgt,
                 "--interferer", intf, "--channel", "3"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "out of range" in err


def test_evaluate_rejects_a_run_without_interferers(tmp_path, capsys):
    """Without an interferer the SIR has nothing to measure and would read
    its cap; the command says so instead of scoring."""
    rng = np.random.default_rng(1)
    paths = []
    for name in ("est", "mix", "tgt"):
        paths.append(tmp_path / f"{name}.wav")
        save_wav(paths[-1], AudioBuffer(rng.normal(size=(4000, 2)), 16000))
    est, mix, tgt = (str(p) for p in paths)
    assert main(["evaluate", est, "--mixture", mix, "--target", tgt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: evaluate needs at least one --interferer (SIR is undefined "
            "without interference)") in captured.err


def test_simulate_seed_and_set_overrides(tmp_path):
    scen_path = tmp_path / "scene.json"
    write_scenario(scen_path)
    out = tmp_path / "o1"
    assert main(["simulate", str(scen_path), "-o", str(out),
                 "--seed", "9", "--set", "input_sir_db=4.0",
                 "--set", "sources.duration_seconds=0.5"]) == 0
    echo = json.loads((out / "scenario_resolved.json").read_text())
    assert echo["scenario"]["seed"] == 9
    assert echo["scenario"]["input_sir_db"] == 4.0
    assert echo["scenario"]["sources"]["duration_seconds"] == 0.5
    assert echo["manifest"]["overrides"] == ["input_sir_db=4.0",
                                             "sources.duration_seconds=0.5"]


def test_bench_grid(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "fs": 16000,
        "duration_seconds": 1.0,
        "trials": 2,
        "seed": 3,
        "num_sources": 2,
        "num_mics": 2,
        "input_sir_db": 10.0,
        "prior": ["t"],
        "stft": {"fft_size": 512, "hop_size": 128},
        "filter_len": 128,
    }))
    out = tmp_path / "bench"
    # a whole number written as a float counts: 2.0 trials are 2
    assert main(["bench", str(grid_path), "-o", str(out), "--set", "trials=2.0"]) == 0

    lines = (out / "records.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert records[0]["scenario_id"] == "N2_M2_sir10_t_trial000"
    assert records[1]["scenario_id"] == "N2_M2_sir10_t_trial001"
    for rec in records:
        assert rec["algorithm"] == "fastive-t"
        assert isinstance(rec["success"], bool)
        assert isinstance(rec["converged"], bool)
        assert 1 <= rec["iterations"] <= SolverConfig.max_iter

    summary = json.loads((out / "summary.json").read_text())
    # the echo is the resolved grid: defaults the file left out are filled in
    resolved = summary["grid"]
    assert resolved["trials"] == 2 and resolved["filter_len"] == 128
    assert (resolved["ref_mic"], resolved["nu"]) == (SolverConfig.ref_mic,
                                                     ContrastModel.nu)
    assert resolved["solver"]["rank"] is None
    assert resolved["room"]["speed_of_sound"] == roomsim.RoomSpec.speed_of_sound
    # and it feeds back in, running the same trials
    echo_path = tmp_path / "resolved.json"
    echo_path.write_text(json.dumps(resolved))
    again = tmp_path / "again"
    assert main(["bench", str(echo_path), "-o", str(again)]) == 0
    rerun = [json.loads(line) for line in
             (again / "records.jsonl").read_text().strip().splitlines()]
    for rec in records + rerun:
        del rec["runtime_s"]
    assert rerun == records
    assert json.loads((again / "summary.json").read_text())["grid"] == resolved
    assert summary["manifest"]["command"] == "bench"
    assert summary["manifest"]["seed"] == 3
    [cell] = summary["cells"]
    assert cell["cell"] == "N2_M2_sir10_t"
    assert cell["trials"] == 2
    assert cell["errors"] == 0
    assert cell["num_trials"] == 2
    assert 0.0 <= cell["success_rate"] <= 1.0
    assert cell["converged_share"] == sum(r["converged"] for r in records) / 2

    printed = capsys.readouterr().out
    assert "N2_M2_sir10_t" in printed


def test_bench_parallel_matches_serial(tmp_path, monkeypatch):
    # two geometries share one RIR build, and two priors one render and
    # reference factorisation per mixture
    grid = {
        "duration_seconds": 0.8,
        "trials": 2,
        "seed": 1,
        "num_sources": [2, 3],
        "prior": ["t", "ssl"],
        "stft": {"fft_size": 512, "hop_size": 128},
        "filter_len": 64,
    }
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    assert main(["bench", str(grid_path), "-o", str(tmp_path / "serial"),
                 "--jobs", "1"]) == 0
    serial = (tmp_path / "serial" / "records.jsonl").read_text().splitlines()
    assert len(serial) == 8
    # concurrent solves, also with every map forced to split its bins over
    # 3 threads of its own
    for jobs, split in itertools.product(("2", "3"), (False, True)):
        out = tmp_path / f"jobs{jobs}_{split}"
        with monkeypatch.context() as patch:
            if split:
                patch.setattr(extractor, "SPLIT_MIN_ENTRIES", 0)
                patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
            assert main(["bench", str(grid_path), "-o", str(out), "--jobs", jobs]) == 0
        par = (out / "records.jsonl").read_text().splitlines()
        assert len(par) == 8
        # whole records agree, scenario ids and SIRs included; only the
        # wall time may differ
        for a, b in zip(serial, par):
            ra, rb = json.loads(a), json.loads(b)
            del ra["runtime_s"], rb["runtime_s"]
            assert ra == rb


def test_bench_sharing_matches_single_geometry_grids(tmp_path, monkeypatch):
    # a multi-geometry grid slices one RIR build and shares each mixture's
    # reference factorisation across priors; its records must equal those
    # of one grid per geometry with every trial's references factored afresh
    grid = {
        "duration_seconds": 0.5, "trials": 2, "seed": 4,
        "input_sir_db": [0.0, 10.0], "prior": ["t", "ssl"],
        "stft": {"fft_size": 512, "hop_size": 128}, "filter_len": 64,
    }

    def records(name, **cells):
        grid_path = tmp_path / f"{name}.json"
        grid_path.write_text(json.dumps({**grid, **cells}))
        assert main(["bench", str(grid_path), "-o", str(tmp_path / name)]) == 0
        lines = (tmp_path / name / "records.jsonl").read_text().splitlines()
        return [{k: v for k, v in json.loads(line).items() if k != "runtime_s"}
                for line in lines]

    shared = records("shared", num_sources=[2, 3])
    score = cli.evaluate
    monkeypatch.setattr(
        cli, "evaluate",
        lambda *args, references=None, **kwargs: score(*args, **kwargs))
    fresh = records("n2", num_sources=2) + records("n3", num_sources=3)
    assert len(shared) == 16
    assert shared == fresh


def test_bench_renders_and_factors_each_mixture_once(tmp_path, monkeypatch):
    # 2 geometries x 2 trials are 4 mixtures; the 2 priors make 8 trials.
    # Sources are counted wherever they are drawn: one set per mixture
    calls = {}
    for module, name in ((roomsim, "speech_like_sources"), (cli, "speech_like_sources"),
                         (cli, "render"), (cli, "factor_references"),
                         (metrics, "decompose")):
        calls[name] = 0

        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "duration_seconds": 0.5, "trials": 2, "num_sources": [2, 3],
        "prior": ["t", "ssl"], "stft": {"fft_size": 512, "hop_size": 128},
        "filter_len": 64,
    }))
    out = tmp_path / "bench"
    assert main(["bench", str(grid_path), "-o", str(out)]) == 0
    # each mixture's channel is decomposed once, each prior's output once
    assert calls == {"speech_like_sources": 4, "render": 4, "factor_references": 4,
                     "decompose": 4 * (1 + 2)}
    ids = [json.loads(line)["scenario_id"]
           for line in (out / "records.jsonl").read_text().splitlines()]
    assert ids == [f"N{n}_M2_sir10_{prior}_trial{t:03d}"
                   for n in (2, 3) for prior in ("t", "ssl") for t in (0, 1)]


@pytest.mark.parametrize("override", ["filter_len=[1]", "solver.rank=[1]", "nu=[1]",
                                      "mod_hz=[1]", "filter_len=0", "solver.rank=0",
                                      "rank=1",
                                      "stft.fftsize=512", "solver.max_iters=1",
                                      "solver.ref_mic=1", "trial=3",
                                      "num_sources=-1", "num_sources=[-1,2]",
                                      "fs=0", "duration_seconds=0",
                                      "duration_seconds=-1", "trials=-1",
                                      "seed=-1", "mod_hz=NaN",
                                      "input_sir_db=Infinity", "trials=true",
                                      "seed=true", 'trials="2"',
                                      'room.rt60="0.3"', "seed=1_0",
                                      "num_sources=[]", "num_mics=[]",
                                      "prior=[]", "input_sir_db=[]",
                                      "solver.rank=3", 'prior=["t","bogus"]',
                                      "num_sources=[2,2]", "input_sir_db=[10,10.0]",
                                      'prior=["t","t"]'])
def test_bench_parses_every_key_before_building_responses(tmp_path, monkeypatch,
                                                          override):
    calls = []
    monkeypatch.setattr(cli, "compute_rirs", lambda *args: calls.append(args))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"duration_seconds": 0.5, "trials": 1}))
    assert main(["bench", str(grid), "-o", str(tmp_path / "bench"),
                 "--set", override]) == 2
    assert calls == []
    assert not (tmp_path / "bench").exists()


def test_bench_solver_rank_reaches_extract(tmp_path, monkeypatch):
    seen = []

    def recording(audio, config, stft_config):
        seen.append(config.rank)
        return extract(audio, config, stft_config)
    extract = cli.extract
    monkeypatch.setattr(cli, "extract", recording)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "duration_seconds": 0.5, "trials": 1, "solver": {"rank": 1},
        "stft": {"fft_size": 512, "hop_size": 128}, "filter_len": 64,
    }))
    assert main(["bench", str(grid_path), "-o", str(tmp_path / "bench")]) == 0
    assert seen == [1]


def test_bench_records_trial_errors_in_band(tmp_path, monkeypatch):
    # a trial that raises is recorded; the sweep still finishes
    def failing(*args, **kwargs):
        raise RuntimeError("extract fails")
    monkeypatch.setattr(cli, "extract", failing)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "duration_seconds": 0.5, "trials": 1,
        "stft": {"fft_size": 512, "hop_size": 128},
    }))
    out = tmp_path / "bench"
    assert main(["bench", str(grid_path), "-o", str(out)]) == 0
    [record] = [json.loads(line) for line in
                (out / "records.jsonl").read_text().splitlines()]
    assert record["error"] == "RuntimeError: extract fails"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells"][0]["errors"] == 1


def test_bench_cell_line_counts_over_the_trials_that_reported(tmp_path, capsys,
                                                              monkeypatch):
    # trial 0 raises inside extract; trial 1 reports, so the line reads
    # its successes over 1 report and names the 1 error
    calls = []

    def failing_first(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("trial 0 fails")
        return extract(*args, **kwargs)
    extract = cli.extract
    monkeypatch.setattr(cli, "extract", failing_first)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "duration_seconds": 0.5, "trials": 2, "prior": "t",
        "stft": {"fft_size": 512, "hop_size": 128}, "filter_len": 64,
    }))
    out = tmp_path / "bench"
    assert main(["bench", str(grid_path), "-o", str(out)]) == 0
    [cell] = json.loads((out / "summary.json").read_text())["cells"]
    assert (cell["trials"], cell["errors"], cell["num_trials"]) == (2, 1, 1)
    [line] = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("N2_M2_sir10_t:")]
    assert (f"success {cell['num_successes']}/1 ({cell['success_rate']:.0%}), "
            "1 error, mean" in line)


def test_bench_summary_is_the_aggregate_of_its_records(tmp_path, monkeypatch):
    # summary.json can be recomputed from records.jsonl: each cell's
    # statistics are metrics.aggregate of its scored lines, and its errors
    # count its error lines.  The first trial raises inside extract
    calls = []

    def failing_first(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("trial 0 fails")
        return extract(*args, **kwargs)
    extract = cli.extract
    monkeypatch.setattr(cli, "extract", failing_first)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "duration_seconds": 0.5, "trials": 2, "num_sources": [2, 3],
        "prior": ["t", "ssl"], "stft": {"fft_size": 512, "hop_size": 128},
        "filter_len": 64,
    }))
    out = tmp_path / "bench"
    assert main(["bench", str(grid_path), "-o", str(out)]) == 0
    records = [json.loads(line)
               for line in (out / "records.jsonl").read_text().splitlines()]
    cells = json.loads((out / "summary.json").read_text())["cells"]
    assert len(cells) == 4 and sum(cell["errors"] for cell in cells) == 1
    for cell in cells:
        lines = [r for r in records
                 if r["scenario_id"].startswith(f"{cell['cell']}_trial")]
        scored = [r for r in lines if "error" not in r]
        assert len(lines) == cell["trials"] == 2
        assert cell["errors"] == len(lines) - len(scored)
        stats = metrics.aggregate(scored)
        assert {key: cell[key] for key in stats} == stats


@pytest.mark.parametrize("key, message", [
    ("num_mics", "num_mics 7 exceeds the 6-mic default array"),
    ("num_sources", "num_sources 7 exceeds the 6 default talker spots"),
])
def test_bench_rejects_geometry_beyond_the_default_layout(tmp_path, capsys,
                                                          key, message):
    # the bad cell sits behind a valid one; nothing may run before the error
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "duration_seconds": 0.5, "trials": 1, key: [2, 7],
        "stft": {"fft_size": 512, "hop_size": 128},
    }))
    out = tmp_path / "bench"
    assert main(["bench", str(grid_path), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "N2_M2" not in captured.out
    assert not out.exists()


def test_main_returns_2_on_bad_input(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err

    mono = tmp_path / "mono.wav"
    save_wav(mono, AudioBuffer(np.zeros(4000), 16000))
    assert main(["extract", str(mono)]) == 2
    assert "2 channels" in capsys.readouterr().err

    scene = tmp_path / "scene.json"
    write_scenario(scene)
    for override, message in (
        ("fs.x=1", "override 'fs.x': fs is not an object"),
        ("room.max_order=abc", "room.max_order must be an integer, got 'abc'"),
        ("room.max_order=2.5", "room.max_order must be an integer, got 2.5"),
        ("room.rt60=[1]", "room.rt60 must be a number, got [1]"),
        ("room.rir_seconds=[1]", "room.rir_seconds must be a number, got [1]"),
        ("room.rt60=1e400", "room.rt60 must be finite, got inf"),
        ("room.rt60=1" + "0" * 400, "room.rt60 must be a number, got 1000"),
        ("room.rt60=true", "room.rt60 must be a number, got True"),
        ("sources.mod_hz=NaN", "sources.mod_hz must be finite, got nan"),
        ("input_sir_db=Infinity", "input_sir_db must be finite, got inf"),
        ("num_mics=[2]", "num_mics must be an integer, got [2]"),
        ("room.dimensions=5", "room.dimensions must be a list, got 5"),
        ("source_positions=[1,2]", "source_positions must be [N, 3]"),
        ("mic_positions=3", "mic_positions must be a list, got 3"),
        ("mic_positions=[[1,1,{}]]", "mic_positions[0][2] must be a number, got {}"),
        ('room.dimensions=[7,5,"x"]', "room.dimensions[2] must be a number, got 'x'"),
        ("room=[1]", "room must be an object, got [1]"),
        ("sources=[1]", "sources must be an object, got [1]"),
        ('sources={"kind": "wav", "paths": 5}', "sources.paths must be a list, got 5"),
        ('sources={"kind": "wav", "paths": [1, 2]}',
         "sources.paths must be a list of strings, got [1, 2]"),
        ("room.rt_60=0.9", "room.rt_60 is not a room key"),
        ("num_mic=4", "num_mic is not a scenario key"),
        ("sources.duration=1", "sources.duration is not a sources key"),
        ("num_sources=-1", "num_sources must be >= 1, got -1"),
        ("num_mics=-1", "num_mics must be >= 2, got -1"),
        ("sources.duration_seconds=0",
         "sources.duration_seconds must be finite and >= 6.25e-05, got 0"),
        ("seed=-1", "seed must be >= 0, got -1"),
        ("seed=true", "seed must be an integer, got True"),
        ('room.rt60="0.3"', "room.rt60 must be a number, got '0.3'"),
        ('sources.duration_seconds="1"',
         "sources.duration_seconds must be a number, got '1'"),
        ("seed=1_0", "seed must be an integer, got '1_0'"),
        ('num_sources="3"', "num_sources must be an integer, got '3'"),
        ("source_positions=[[1,1,1.5],[2,1,1.5],[3,1,1.5]]",
         "num_sources 2 disagrees with the 3 source_positions given"),
        ("mic_positions=[[1,4,1],[2,4,1],[3,4,1]]",
         "num_mics 2 disagrees with the 3 mic_positions given"),
    ):
        assert main(["simulate", str(scene), "-o", str(tmp_path / "sim"),
                     "--set", override]) == 2
        assert f"error: {message}" in capsys.readouterr().err
    assert main(["simulate", str(scene), "-o", str(tmp_path / "sim"),
                 "--seed", "-1"]) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"duration_seconds": 0.5, "trials": 1}))
    for override, message in (
        ("trials=[1]", "trials must be an integer, got [1]"),
        ("solver.rank=[1]", "solver.rank must be an integer, got [1]"),
        ("stft=[1]", "stft must be an object, got [1]"),
        ("solver=[1]", "solver must be an object, got [1]"),
        ('stft={"fft_size": 512, "hop_size": 1024}',
         "bad config: hop_size must not exceed fft_size"),
        ("stft.hop_size=1024", "bad config: window/hop violates constant overlap-add"),
        ("stft.window=kaiser", "bad config: unknown window 'kaiser'"),
        ("nu=-1", "nu must be finite and > 0, got -1.0"),
        ("gg_exponent=2", "gg_exponent must be finite and > 0 and < 1, got 2.0"),
        ("stft.fftsize=512", "stft.fftsize is not a stft key"),
        ("solver.max_iters=1", "solver.max_iters is not a solver key"),
        ("solver.ref_mic=1", "solver.ref_mic is not a solver key"),
        ("trial=3", "trial is not a grid key"),
        ("filter_len=0", "filter_len must be >= 1, got 0"),
        ("solver.rank=0", "rank must be >= 1, got 0"),
        ("rank=1", "rank is not a grid key"),
        ("num_sources=[-1,2]", "num_sources must be >= 1, got -1"),
        ("fs=0", "fs must be >= 1, got 0"),
        ("duration_seconds=0",
         "duration_seconds must be finite and >= 6.25e-05, got 0"),
        ("duration_seconds=-1",
         "duration_seconds must be finite and >= 6.25e-05, got -1"),
        ("trials=-1", "trials must be >= 1, got -1"),
        ("seed=-1", "seed must be >= 0, got -1"),
        ("mod_hz=NaN", "mod_hz must be finite, got nan"),
        ("input_sir_db=Infinity", "input_sir_db must be finite, got inf"),
        ("trials=true", "trials must be an integer, got True"),
        ("seed=true", "seed must be an integer, got True"),
        ("room.rt60=true", "room.rt60 must be a number, got True"),
        ('trials="2"', "trials must be an integer, got '2'"),
        ('room.rt60="0.3"', "room.rt60 must be a number, got '0.3'"),
        ("seed=1_0", "seed must be an integer, got '1_0'"),
        ("num_sources=[]", "num_sources must not be an empty list"),
        ("num_mics=[]", "num_mics must not be an empty list"),
        ("prior=[]", "prior must not be an empty list"),
        ("input_sir_db=[]", "input_sir_db must not be an empty list"),
        ("solver.rank=3", "solver.rank 3 exceeds num_mics 2"),
        ("num_sources=[2,2]", "grid repeats cell N2_M2_sir10_t"),
        ("num_mics=[2,3,2]", "grid repeats cell N2_M2_sir10_t"),
        ("input_sir_db=[10,10.0]", "grid repeats cell N2_M2_sir10_t"),
        # distinct values, one cell id: records could not tell them apart
        ("input_sir_db=[10,10.0000001]", "grid repeats cell N2_M2_sir10_t"),
        ('prior=["t","ssl","t"]', "grid repeats cell N2_M2_sir10_t"),
    ):
        assert main(["bench", str(grid), "-o", str(tmp_path / "bench"),
                     "--set", override]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()
    for flags, message in ((["--seed", "-1"], "seed must be >= 0, got -1"),
                           (["--jobs", "0"], "--jobs must be >= 1, got 0"),
                           (["--jobs", "-3"], "--jobs must be >= 1, got -3")):
        assert main(["bench", str(grid), "-o", str(tmp_path / "bench"), *flags]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    # a config file must hold a JSON object
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    for command in ("simulate", "bench"):
        assert main([command, str(listed), "-o", str(tmp_path / command)]) == 2
        assert (f"error: {listed}: top level must be an object, got [1]"
                in capsys.readouterr().err)
