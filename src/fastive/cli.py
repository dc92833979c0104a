"""Command-line front end: extract, simulate, evaluate, bench.

Every artifact written embeds the fully resolved configuration and seed so
runs can be reproduced from their outputs alone.  Exit status is nonzero
exactly when the command failed; individual bench trial failures are
recorded in-band and do not abort the sweep.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .extractor import ExtractionResult, SolverConfig, extract
from .metrics import DEFAULT_FILTER_LEN, aggregate, evaluate
from .priors import KINDS, ContrastModel
from .roomsim import (
    MixtureSet,
    compute_rirs,
    config_dict,
    config_float,
    config_int,
    render,
    scenario_from_dict,
    speech_like_sources,
)
from .stft import WINDOW_KINDS, StftConfig, load_wav, save_wav


@dataclass
class RunManifest:
    """Provenance block embedded in every output artifact."""

    command: str
    config_path: str | None = None
    overrides: list = dataclasses.field(default_factory=list)
    output_dir: str = "."
    seed: int | None = None

    def to_dict(self):
        return {"tool": f"fastive {__version__}", **dataclasses.asdict(self)}


def _add_solver_flags(p):
    p.add_argument("--prior", choices=KINDS, default=ContrastModel.kind,
                   help="source prior (default: %(default)s)")
    p.add_argument("--nu", type=float, default=ContrastModel.nu,
                   help="Student's t degrees of freedom (default: %(default)g)")
    p.add_argument("--gg-exponent", type=float, default=ContrastModel.gg_exponent,
                   help="generalized-Gaussian contrast exponent (default: %(default)g)")
    p.add_argument("--fft-size", type=int, default=StftConfig.fft_size)
    p.add_argument("--hop", type=int, default=StftConfig.hop_size)
    p.add_argument("--window", choices=WINDOW_KINDS, default=StftConfig.window)
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p.add_argument("--tol", type=float, default=SolverConfig.tol)
    p.add_argument("--ref-mic", type=int, default=SolverConfig.ref_mic)
    p.add_argument("--rank", type=int, default=None,
                   help="principal components kept by whitening (default: all)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fastive",
        description="Blind extraction of the dominant speaker from "
                    "multichannel recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ex = sub.add_parser("extract", help="extract the dominant source from a WAV")
    p_ex.add_argument("input", help="multichannel WAV file")
    p_ex.add_argument("-o", "--output-dir", default=".")
    p_ex.add_argument("--wav-format", choices=("float32", "pcm16"),
                      default="float32")
    _add_solver_flags(p_ex)

    p_sim = sub.add_parser("simulate", help="render a scenario file to WAVs")
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.add_argument("-o", "--output-dir", default=".")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_sim.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override a scenario key "
                       "(dotted path, JSON value)")

    p_ev = sub.add_parser("evaluate", help="score an extraction against truth images")
    p_ev.add_argument("estimate", help="extracted WAV (channel 0 is used)")
    p_ev.add_argument("--mixture", required=True, help="mixture WAV")
    p_ev.add_argument("--target", required=True, help="target image WAV")
    p_ev.add_argument("--interferer", action="append", default=[],
                      help="interferer image WAV (repeatable)")
    p_ev.add_argument("--channel", type=int, default=0,
                      help="reference channel of mixture/image WAVs")
    p_ev.add_argument("--filter-len", type=int, default=DEFAULT_FILTER_LEN)
    p_ev.add_argument("--algorithm", default="")
    p_ev.add_argument("--scenario-id", default="")

    p_be = sub.add_parser("bench", help="run a scenario grid and aggregate results")
    p_be.add_argument("grid", help="grid JSON file")
    p_be.add_argument("-o", "--output-dir", default=".")
    p_be.add_argument("--jobs", type=int, default=1,
                      help="concurrent trials (default: 1)")
    p_be.add_argument("--seed", type=int, default=None,
                      help="override the grid base seed")
    p_be.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                      dest="overrides", help="override a grid key "
                      "(dotted path, JSON value)")
    return parser


def apply_overrides(cfg, pairs):
    """Apply ``--set a.b=value`` pairs in place; values parse as JSON when
    possible, otherwise as strings."""
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ValueError(f"override {pair!r} is not KEY=VALUE")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for depth, part in enumerate(parts[:-1], 1):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(
                    f"override {key!r}: {'.'.join(parts[:depth])} is not an object"
                )
        node[parts[-1]] = value
    return cfg


def cmd_extract(args):
    audio = load_wav(args.input)
    model = ContrastModel(kind=args.prior, nu=args.nu,
                          gg_exponent=args.gg_exponent)
    solver = SolverConfig(prior=model, max_iter=args.max_iter, tol=args.tol,
                          ref_mic=args.ref_mic)
    stft_cfg = StftConfig(fft_size=args.fft_size, hop_size=args.hop,
                          window=args.window)
    result = extract(audio, solver, stft_cfg, rank=args.rank)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    wav_path = outdir / f"{stem}_extracted.wav"
    save_wav(wav_path, result.audio, fmt=args.wav_format)
    report = {
        "manifest": RunManifest(
            command="extract", config_path=str(args.input),
            output_dir=str(outdir)).to_dict(),
        "config": {"solver": dataclasses.asdict(solver),
                   "stft": dataclasses.asdict(stft_cfg), "rank": args.rank},
        "input_wav": str(args.input),
        "output_wav": str(wav_path),
        "sample_rate_hz": result.audio.sample_rate_hz,
        "iterations_used": result.iterations_used,
        "converged": result.state.converged,
        "runtime_s": result.runtime_seconds,
        "timings_s": result.timings,
        "cost_history": result.state.cost_history,
    }
    report_path = outdir / f"{stem}_report.json"
    with open(report_path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {wav_path} and {report_path} "
          f"({result.iterations_used} iterations, "
          f"{'converged' if result.state.converged else 'max_iter reached'}, "
          f"{result.runtime_seconds:.3f} s)")
    return 0


def cmd_simulate(args):
    path = Path(args.scenario)
    with open(path) as f:
        cfg = json.load(f)
    apply_overrides(cfg, args.overrides)
    if args.seed is not None:
        cfg["seed"] = args.seed
    scenario, fs, resolved = scenario_from_dict(cfg, base_dir=path.parent)
    mixture_set = render(scenario, fs)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    mix_path = outdir / "mixture.wav"
    save_wav(mix_path, mixture_set.mixture)
    image_paths = []
    for i, img in enumerate(mixture_set.images):
        p = outdir / f"image_{i:02d}.wav"
        save_wav(p, img)
        image_paths.append(str(p))
    echo = {
        "manifest": RunManifest(
            command="simulate", config_path=str(path),
            overrides=args.overrides, output_dir=str(outdir),
            seed=resolved["seed"]).to_dict(),
        "scenario": resolved,
        "mixture_wav": str(mix_path),
        "image_wavs": image_paths,
        "num_samples": mixture_set.mixture.num_samples,
    }
    with open(outdir / "scenario_resolved.json", "w") as f:
        json.dump(echo, f, indent=2)
        f.write("\n")
    print(f"wrote {mix_path} and {len(image_paths)} image files to {outdir}")
    return 0


def cmd_evaluate(args):
    estimate = ExtractionResult(load_wav(args.estimate), state=None,
                                runtime_seconds=0.0, iterations_used=0)
    truth = MixtureSet(load_wav(args.mixture),
                       [load_wav(p) for p in (args.target, *args.interferer)])
    report = evaluate(estimate, truth, ref_mic=args.channel,
                      filter_len=args.filter_len, algorithm=args.algorithm,
                      scenario_id=args.scenario_id)
    print(json.dumps(report.to_record()))
    return 0


def _as_list(value):
    return value if isinstance(value, list) else [value]


def _bench_trial(scenario_id, seed, cell, grid_ctx):
    """One bench trial: synthesize sources, render, extract, evaluate."""
    n_src, n_mic, sir, prior_kind = cell
    fs = grid_ctx["fs"]
    num_samples = grid_ctx["num_samples"]
    scenario = replace(
        grid_ctx["scenarios"][(n_src, n_mic)],
        source_signals=tuple(
            speech_like_sources(n_src, num_samples, fs, seed,
                                grid_ctx["mod_hz"])
        ),
        input_sir_db=sir,
        seed=seed,
    )
    rirs = [per_source[:n_mic] for per_source in grid_ctx["rirs"][:n_src]]
    mixture_set = render(scenario, fs, rirs=rirs)
    model = ContrastModel(kind=prior_kind, nu=grid_ctx["nu"],
                          gg_exponent=grid_ctx["gg_exponent"])
    solver = replace(grid_ctx["solver"], prior=model)
    result = extract(mixture_set.mixture, solver, grid_ctx["stft"],
                     rank=grid_ctx["rank"])
    # trials that differ only in prior score the same mixture at the same
    # length (the STFT is grid-wide), so they share its input SIR
    mixture_key = (n_src, n_mic, sir, seed)
    report = evaluate(
        result, mixture_set,
        soi_index=scenario.soi_index, ref_mic=scenario.ref_mic,
        filter_len=grid_ctx["filter_len"],
        algorithm=f"fastive-{prior_kind}",
        scenario_id=scenario_id,
        input_sir_db=grid_ctx["input_sirs"].get(mixture_key),
    )
    grid_ctx["input_sirs"].setdefault(mixture_key, report.input_sir_db)
    return report


def run_grid(grid, output_dir, jobs=1, manifest=None):
    """Execute a bench grid; writes records.jsonl and summary.json.

    Cells are the cross product of num_sources x num_mics x input_sir_db x
    prior; trial ``i`` in every cell uses seed ``base_seed + i`` so cells
    are comparable over the same source draws.
    """
    fs = config_int(grid.get("fs", 16000), "fs")
    duration = config_float(grid.get("duration_seconds", 3.0), "duration_seconds")
    trials = config_int(grid.get("trials", 10), "trials")
    base_seed = config_int(grid.get("seed", 0), "seed")
    stft_grid = {**dataclasses.asdict(StftConfig()),
                 **config_dict(grid.get("stft", {}), "stft")}
    solver_grid = {**dataclasses.asdict(SolverConfig()),
                   **config_dict(grid.get("solver", {}), "solver")}

    stft_cfg = StftConfig(
        fft_size=config_int(stft_grid["fft_size"], "stft.fft_size"),
        hop_size=config_int(stft_grid["hop_size"], "stft.hop_size"),
        window=stft_grid["window"],
    )
    solver_cfg = SolverConfig(
        max_iter=config_int(solver_grid["max_iter"], "solver.max_iter"),
        tol=config_float(solver_grid["tol"], "solver.tol"),
        ref_mic=config_int(grid.get("ref_mic", SolverConfig.ref_mic), "ref_mic"),
    )

    cells = list(itertools.product(
        [config_int(v, "num_sources") for v in _as_list(grid.get("num_sources", 2))],
        [config_int(v, "num_mics") for v in _as_list(grid.get("num_mics", 2))],
        [config_float(v, "input_sir_db")
         for v in _as_list(grid.get("input_sir_db", 10.0))],
        [str(v) for v in _as_list(grid.get("prior", ContrastModel.kind))],
    ))

    # cell axes pick the geometry; the grid's room, soi_index and ref_mic
    # go through the scenario schema, so every cell is checked before any trial
    geometry_cfg = {k: grid[k] for k in ("room", "soi_index", "ref_mic")
                    if k in grid}
    scenarios = {
        (n_src, n_mic): scenario_from_dict(
            {**geometry_cfg, "num_sources": n_src, "num_mics": n_mic})[0]
        for n_src, n_mic in sorted({cell[:2] for cell in cells})
    }
    # every cell is a prefix of the default layout in the grid's room, and
    # the cells are a cross product, so the largest key holds all responses
    rirs = compute_rirs(scenarios[max(scenarios)], fs)

    grid_ctx = {
        "fs": fs,
        "num_samples": int(round(duration * fs)),
        "mod_hz": config_float(grid.get("mod_hz", 4.0), "mod_hz"),
        "nu": config_float(grid.get("nu", ContrastModel.nu), "nu"),
        "gg_exponent": config_float(
            grid.get("gg_exponent", ContrastModel.gg_exponent), "gg_exponent"),
        "solver": solver_cfg,
        "stft": stft_cfg,
        "rank": grid.get("rank"),
        "filter_len": config_int(grid.get("filter_len", DEFAULT_FILTER_LEN),
                                 "filter_len"),
        "scenarios": scenarios,
        "rirs": rirs,
        "input_sirs": {},
    }

    records = []
    summaries = []
    for cell in cells:
        n_src, n_mic, sir, prior_kind = cell
        cell_id = f"N{n_src}_M{n_mic}_sir{sir:g}_{prior_kind}"
        seeds = [base_seed + t for t in range(trials)]

        def one(trial_seed, _cell=cell):
            trial, seed = trial_seed
            scenario_id = f"{cell_id}_trial{trial:03d}"
            try:
                return _bench_trial(scenario_id, seed, _cell, grid_ctx)
            except Exception as exc:  # recorded in-band, sweep continues
                return {
                    "scenario_id": scenario_id,
                    "algorithm": f"fastive-{_cell[3]}",
                    "error": f"{type(exc).__name__}: {exc}",
                }

        work = list(enumerate(seeds))
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(one, work))
        else:
            outcomes = [one(w) for w in work]

        reports = [r for r in outcomes if not isinstance(r, dict)]
        for r in outcomes:
            records.append(r if isinstance(r, dict) else r.to_record())
        summary = {
            "cell": cell_id,
            "num_sources": n_src,
            "num_mics": n_mic,
            "input_sir_db": sir,
            "prior": prior_kind,
            "trials": trials,
            "errors": len(outcomes) - len(reports),
        }
        if reports:
            summary.update(aggregate(reports))
        summaries.append(summary)
        rate = summary.get("success_rate")
        mean_imp = summary.get("mean_sirimp_db")
        print(f"{cell_id}: "
              + (f"success {summary.get('num_successes', 0)}/{trials}"
                 f" ({rate:.0%})" if rate is not None else "no results")
              + (f", mean SIRimp {mean_imp:.2f} dB" if mean_imp is not None
                 else "")
              + (f", mean runtime {summary['mean_runtime_s'] * 1e3:.0f} ms"
                 if "mean_runtime_s" in summary else ""))

    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    records_path = outdir / "records.jsonl"
    with open(records_path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    summary_path = outdir / "summary.json"
    with open(summary_path, "w") as f:
        json.dump({
            "manifest": (manifest.to_dict() if manifest else None),
            "grid": grid,
            "cells": summaries,
        }, f, indent=2)
        f.write("\n")
    print(f"wrote {records_path} ({len(records)} records) and {summary_path}")
    return records, summaries


def cmd_bench(args):
    path = Path(args.grid)
    with open(path) as f:
        grid = json.load(f)
    apply_overrides(grid, args.overrides)
    if args.seed is not None:
        grid["seed"] = args.seed
    manifest = RunManifest(command="bench", config_path=str(path),
                           overrides=args.overrides,
                           output_dir=str(args.output_dir),
                           seed=config_int(grid.get("seed", 0), "seed"))
    run_grid(grid, args.output_dir, jobs=args.jobs, manifest=manifest)
    return 0


_COMMANDS = {
    "extract": cmd_extract,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
    "bench": cmd_bench,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
