"""Command-line tests: each subcommand end to end on small synthetic
scenarios, override parsing, and failure exit codes."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from fastive import cli
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


def test_extract_report_config_round_trips(tmp_path):
    # the report alone must rebuild the configuration that ran
    wav = tmp_path / "noise.wav"
    rng = np.random.default_rng(0)
    save_wav(wav, AudioBuffer(rng.laplace(size=(8000, 2)), 16000))
    assert main(["extract", str(wav), "-o", str(tmp_path),
                 "--prior", "gg", "--gg-exponent", "0.3", "--max-iter", "5",
                 "--ref-mic", "1", "--fft-size", "512", "--hop", "128"]) == 0
    cfg = json.loads((tmp_path / "noise_report.json").read_text())["config"]
    solver = SolverConfig(**{**cfg["solver"],
                             "prior": ContrastModel(**cfg["solver"]["prior"])})
    assert solver == SolverConfig(
        prior=ContrastModel(kind="gg", gg_exponent=0.3), max_iter=5, ref_mic=1)
    assert StftConfig(**cfg["stft"]) == StftConfig(fft_size=512, hop_size=128)
    assert cfg["rank"] is None

    # with no flags the CLI runs the library defaults
    default_dir = tmp_path / "defaults"
    assert main(["extract", str(wav), "-o", str(default_dir)]) == 0
    cfg = json.loads((default_dir / "noise_report.json").read_text())["config"]
    assert cfg == {"solver": asdict(SolverConfig()), "stft": asdict(StftConfig()),
                   "rank": None}


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
    assert main(["bench", str(grid_path), "-o", str(out)]) == 0

    lines = (out / "records.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert records[0]["scenario_id"] == "N2_M2_sir10_t_trial000"
    assert records[1]["scenario_id"] == "N2_M2_sir10_t_trial001"
    for rec in records:
        assert rec["algorithm"] == "fastive-t"
        assert isinstance(rec["success"], bool)
        assert rec["iterations"] >= 1

    summary = json.loads((out / "summary.json").read_text())
    assert summary["manifest"]["command"] == "bench"
    assert summary["manifest"]["seed"] == 3
    [cell] = summary["cells"]
    assert cell["cell"] == "N2_M2_sir10_t"
    assert cell["trials"] == 2
    assert cell["errors"] == 0
    assert cell["num_trials"] == 2
    assert 0.0 <= cell["success_rate"] <= 1.0

    printed = capsys.readouterr().out
    assert "N2_M2_sir10_t" in printed


def test_bench_parallel_matches_serial(tmp_path):
    # two geometries share one RIR build, and two priors one input SIR per mixture
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
    assert main(["bench", str(grid_path), "-o", str(tmp_path / "serial")]) == 0
    assert main(["bench", str(grid_path), "-o", str(tmp_path / "par"),
                 "--jobs", "2"]) == 0
    serial = (tmp_path / "serial" / "records.jsonl").read_text().splitlines()
    par = (tmp_path / "par" / "records.jsonl").read_text().splitlines()
    assert len(serial) == len(par) == 8
    for a, b in zip(serial, par):
        ra, rb = json.loads(a), json.loads(b)
        assert ra["scenario_id"] == rb["scenario_id"]
        assert ra["input_sir_db"] == pytest.approx(rb["input_sir_db"], abs=1e-9)
        assert ra["output_sir_db"] == pytest.approx(rb["output_sir_db"], abs=1e-9)


def test_bench_sharing_matches_single_geometry_grids(tmp_path, monkeypatch):
    # a multi-geometry grid slices one RIR build and shares each mixture's
    # input SIR across priors; its records must equal those of one grid per
    # geometry with every input SIR scored afresh
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
        lambda *args, input_sir_db=None, **kwargs: score(*args, **kwargs))
    fresh = records("n2", num_sources=2) + records("n3", num_sources=3)
    assert len(shared) == 16
    assert shared == fresh


def test_bench_records_trial_errors_in_band(tmp_path):
    # an unknown prior fails inside the trial; the sweep still finishes
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "duration_seconds": 0.5, "trials": 1, "prior": "bogus",
        "stft": {"fft_size": 512, "hop_size": 128},
    }))
    out = tmp_path / "bench"
    assert main(["bench", str(grid_path), "-o", str(out)]) == 0
    [record] = [json.loads(line) for line in
                (out / "records.jsonl").read_text().splitlines()]
    assert "error" in record
    assert "unknown prior" in record["error"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells"][0]["errors"] == 1


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
        ("num_mics=[2]", "num_mics must be an integer, got [2]"),
        ("room.dimensions=5", "room.dimensions must be a list, got 5"),
        ("source_positions=[1,2]", "source_positions must be [N, 3]"),
        ("mic_positions=3", "mic_positions must be a list, got 3"),
        ("mic_positions=[[1,1,{}]]", "mic_positions[0][2] must be a number, got {}"),
        ('room.dimensions=[7,5,"x"]', "room.dimensions[2] must be a number, got 'x'"),
        ("room=[1]", "room must be an object, got [1]"),
        ("sources=[1]", "sources must be an object, got [1]"),
        ('sources={"kind": "wav", "paths": 5}', "sources.paths must be a list, got 5"),
    ):
        assert main(["simulate", str(scene), "-o", str(tmp_path / "sim"),
                     "--set", override]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"duration_seconds": 0.5, "trials": 1}))
    assert main(["bench", str(grid), "-o", str(tmp_path / "bench"),
                 "--set", "trials=[1]"]) == 2
    assert "error: trials must be an integer, got [1]" in capsys.readouterr().err
    for key in ("stft", "solver"):
        assert main(["bench", str(grid), "-o", str(tmp_path / "bench"),
                     "--set", f"{key}=[1]"]) == 2
        assert f"error: {key} must be an object, got [1]" in capsys.readouterr().err
