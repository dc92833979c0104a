"""Command-line front end and config parsers: extract, simulate, evaluate, bench.

Every artifact written embeds the fully resolved configuration and seed so
runs can be reproduced from their outputs alone.  Exit status is nonzero
exactly when the command failed; individual bench trial failures are
recorded in-band and do not abort the sweep.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from . import __version__
from .extractor import ExtractionResult, SolverConfig, extract
from .metrics import DEFAULT_FILTER_LEN, aggregate, evaluate, factor_references
from .priors import KINDS, ContrastModel
from .roomsim import (
    MixtureSet,
    RoomSpec,
    Scenario,
    compute_rirs,
    default_geometry,
    render,
    speech_like_sources,
)
from .stft import WINDOW_KINDS, StftConfig, check_int, check_number, load_wav, save_wav


def run_manifest(command, config_path, output_dir, overrides=(), seed=None):
    """Provenance block embedded in every output artifact."""
    return {"tool": f"fastive {__version__}", "command": command,
            "config_path": config_path, "overrides": list(overrides),
            "output_dir": output_dir, "seed": seed}


def config_float(value, name, least=None):
    """``value`` as a float; ValueError naming the key ``name`` unless a finite
    number, not a bool or str, and, when ``least`` is given, at least ``least``."""
    number = check_number(value, name)
    if not math.isfinite(number) or least is not None and number < least:
        bound = "" if least is None else f" and >= {least:g}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")
    return number


def config_int(value, name, least=-math.inf):
    """``value`` as an int, by ``stft.check_int``'s rule (at least ``least``),
    with a JSON number such as ``2.0`` counting as the integer it equals."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    check_int(value, name, least)
    return int(value)


def config_dict(value, name):
    """``value`` as a dict; ValueError naming the key ``name`` unless an object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    return dict(value)


def config_tuple(value, name):
    """``value`` as a tuple; ValueError naming the key ``name`` unless a list."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def config_unread(cfg, kind, prefix):
    """ValueError naming a key left in ``cfg`` after its parser popped its own."""
    if cfg:
        raise ValueError(f"{prefix}{next(iter(cfg))} is not a {kind} key")


def config_value(hint, value, name):
    """``value`` parsed by the annotation ``hint``, a ValueError naming ``name``:
    int, float, a dataclass, a ``tuple`` of numbers or of lists of them (entries
    named by index), an axis ``tuple[X, ...]`` of one X or a non-empty list of
    them, else passed through; ``null`` stays where ``hint`` allows None."""
    kinds = typing.get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    if is_dataclass(hint):
        return config_object(hint, value, name)
    if hint is tuple:
        return tuple(config_value(tuple if isinstance(v, (list, tuple)) else float,
                                  v, f"{name}[{i}]")
                     for i, v in enumerate(config_tuple(value, name)))
    if typing.get_origin(hint) is tuple:
        entries = value if isinstance(value, (list, tuple)) else [value]
        if not entries:
            raise ValueError(f"{name} must not be an empty list")
        return tuple(config_value(kinds[0], v, name) for v in entries)
    parse = {int: config_int, float: config_float}.get(kinds[0])
    return value if parse is None else parse(value, name)


def config_object(cls, value, name, prefix=None, build=None, **given):
    """``(build or cls)(**given, **parsed)``, each key of the JSON object
    ``value`` parsed by ``config_value`` and named ``prefix`` + key (default
    ``name.``; ``""`` at the top level).  A key that is not a field of
    ``cls``, or that ``given`` sets, is a ValueError."""
    cfg = config_dict(value, name)
    prefix = f"{name}." if prefix is None else prefix
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name in cfg and f.name not in given:
            given[f.name] = config_value(hints[f.name], cfg.pop(f.name),
                                         prefix + f.name)
    config_unread(cfg, name, prefix)
    return (build or cls)(**given)


def scenario_from_dict(cfg, base_dir=None):
    """Build a Scenario from the documented JSON schema.

    Returns ``(scenario, fs, resolved)`` where ``resolved`` is the fully
    expanded configuration (geometry and defaults filled in) suitable for
    provenance echo; it feeds back in as ``cfg``.  The scenario is one
    ``default_geometry`` call, which checks each count against the default
    layout, or against the explicit positions given beside it.  A key
    outside the schema is a ValueError.

    Schema keys (all optional unless noted):

    ``fs``               sample rate, at least 1, default 16000
    ``room``             RoomSpec fields: {dimensions, rt60, speed_of_sound,
                         rir_seconds, max_order}
    ``num_sources``      first N default talker spots, 1 to 6 (default 2)
    ``num_mics``         first M default array mics, 2 to 6 (default 2)
    ``source_positions`` explicit [N, 3] unless null; num_sources, if given, is N
    ``mic_positions``    explicit [M, 3] unless null; num_mics, if given, is M
    ``sources``          {"kind": "synthetic", "duration_seconds", "mod_hz"}
                         or {"kind": "wav", "paths": [...]}; at least 1/fs s
    ``soi_index``        target source index, default 0
    ``input_sir_db``     requested input SIR, null to leave natural mixing
    ``ref_mic``          reference mic for SIR and rescaling, default 0
    ``seed``             RNG seed for synthetic sources, default 0
    """
    cfg = {key: value for key, value in cfg.items()
           if value is not None or key not in ("source_positions", "mic_positions")}
    fs = config_int(cfg.pop("fs", 16000), "fs", least=1)
    sources_cfg = config_dict(cfg.pop("sources", {}), "sources")
    # a count defaults to 2 only where no positions stand in for it
    counts = {name: config_int(cfg.pop(name, 2), name)
              for name, key in (("num_sources", "source_positions"),
                                ("num_mics", "mic_positions"))
              if name in cfg or key not in cfg}
    scenario = config_object(Scenario, cfg, "scenario", prefix="",
                             build=lambda **kw: default_geometry(**counts, **kw),
                             source_signals=())
    kind = sources_cfg.pop("kind", "synthetic")
    if kind == "synthetic":
        duration = config_float(sources_cfg.pop("duration_seconds", 3.0),
                                "sources.duration_seconds", least=1 / fs)
        mod_hz = config_float(sources_cfg.pop("mod_hz", 4.0), "sources.mod_hz")
        sources = {"kind": kind, "duration_seconds": duration, "mod_hz": mod_hz}
        signals = speech_like_sources(
            scenario.num_sources, int(round(duration * fs)), fs, scenario.seed, mod_hz
        )
    elif kind == "wav":
        paths = config_tuple(sources_cfg.pop("paths", None), "sources.paths")
        if not all(isinstance(p, str) for p in paths):
            raise ValueError(
                f"sources.paths must be a list of strings, got {list(paths)!r}")
        paths = [str(Path(base_dir or ".") / p) for p in paths]
        if len(paths) != scenario.num_sources:
            raise ValueError(
                f"{len(paths)} WAV paths for {scenario.num_sources} sources"
            )
        signals = [load_wav(p) for p in paths]
        sources = {"kind": kind, "paths": paths}
    else:
        raise ValueError(f"unknown sources kind {kind!r}")
    config_unread(sources_cfg, "sources", "sources.")

    resolved = {"fs": fs, **asdict(scenario), "sources": sources}
    del resolved["source_signals"]
    return replace(scenario, source_signals=tuple(signals)), fs, resolved


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
    p.add_argument("--rank", type=int, default=SolverConfig.rank,
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
    p_be.add_argument("--jobs", type=int, default=1,
                      help="concurrent trials (default: 1)")

    for p, what in ((p_sim, "scenario"), (p_be, "grid")):
        p.add_argument(what, help=f"{what} JSON file")
        p.add_argument("-o", "--output-dir", default=".")
        p.add_argument("--seed", type=int, default=None,
                       help=f"override the {what} seed")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides",
                       help=f"override a {what} key (dotted path, JSON value)")
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
                          ref_mic=args.ref_mic, rank=args.rank)
    stft_cfg = StftConfig(fft_size=args.fft_size, hop_size=args.hop,
                          window=args.window)
    result = extract(audio, solver, stft_cfg)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    wav_path = outdir / f"{stem}_extracted.wav"
    save_wav(wav_path, result.audio, fmt=args.wav_format)
    report = {
        "manifest": run_manifest("extract", str(args.input), str(outdir)),
        "config": {"solver": asdict(solver), "stft": asdict(stft_cfg)},
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
    _write_json(report_path, report)
    print(f"wrote {wav_path} and {report_path} "
          f"({result.iterations_used} iterations, "
          f"{'converged' if result.state.converged else 'max_iter reached'}, "
          f"{result.runtime_seconds:.3f} s)")
    return 0


def _load_config(args, path):
    """The JSON object in a scenario or grid file, with ``--set`` and
    ``--seed`` applied."""
    with open(path) as f:
        cfg = config_dict(json.load(f), f"{path}: top level")
    apply_overrides(cfg, args.overrides)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _write_json(path, obj):
    """Write a JSON artifact: indented, newline-terminated."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def cmd_simulate(args):
    path = Path(args.scenario)
    cfg = _load_config(args, path)
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
        "manifest": run_manifest("simulate", str(path), str(outdir),
                                 args.overrides, resolved["seed"]),
        "scenario": resolved,
        "mixture_wav": str(mix_path),
        "image_wavs": image_paths,
        "num_samples": mixture_set.mixture.num_samples,
    }
    _write_json(outdir / "scenario_resolved.json", echo)
    print(f"wrote {mix_path} and {len(image_paths)} image files to {outdir}")
    return 0


def cmd_evaluate(args):
    if not args.interferer:
        raise ValueError("evaluate needs at least one --interferer "
                         "(SIR is undefined without interference)")
    # a WAV on disk: its extraction was not timed or counted here
    estimate = ExtractionResult(load_wav(args.estimate), state=None,
                                runtime_seconds=None, iterations_used=None)
    truth = MixtureSet(load_wav(args.mixture),
                       [load_wav(p) for p in (args.target, *args.interferer)])
    report = evaluate(estimate, truth, ref_mic=args.channel,
                      filter_len=args.filter_len, algorithm=args.algorithm,
                      scenario_id=args.scenario_id)
    print(json.dumps(report.to_record()))
    return 0


def _cell_id(n_src, n_mic, sir, prior_kind):
    return f"N{n_src}_M{n_mic}_sir{sir:g}_{prior_kind}"


@dataclass(frozen=True)
class GridSpec:
    """Every bench grid key but ``solver``, with its default."""

    fs: int = 16000
    duration_seconds: float = 3.0
    trials: int = 10
    seed: int = 0
    mod_hz: float = 4.0
    num_sources: tuple[int, ...] = (2,)
    num_mics: tuple[int, ...] = (2,)
    input_sir_db: tuple[float, ...] = (10.0,)
    prior: tuple[str, ...] = (ContrastModel.kind,)
    nu: float = ContrastModel.nu
    gg_exponent: float = ContrastModel.gg_exponent
    room: RoomSpec = field(default_factory=RoomSpec)
    soi_index: int = 0
    ref_mic: int = SolverConfig.ref_mic
    stft: StftConfig = field(default_factory=StftConfig)
    filter_len: int = DEFAULT_FILTER_LEN

    def __post_init__(self):
        for name, least in (("fs", 1), ("trials", 1), ("filter_len", 1), ("seed", 0)):
            check_int(getattr(self, name), name, least)
        config_float(self.duration_seconds, "duration_seconds", least=1 / self.fs)


def run_grid(grid, output_dir, jobs=1, manifest=None):
    """Execute a bench grid; writes records.jsonl and summary.json.

    Cells are the cross product of num_sources x num_mics x input_sir_db x
    prior; trial ``i`` in every cell uses seed ``seed + i`` so cells are
    comparable over the same source draws.  The unit of work is one mixture
    (a cell without its prior, and a trial), so trials that differ only in
    prior share its render and reference factorisation; ``jobs`` mixtures
    run at a time.  ``grid`` holds the ``GridSpec`` keys and a ``solver``
    block of the ``SolverConfig`` fields ``max_iter``, ``tol`` and ``rank``.
    Every key is parsed and every cell built before any response; an unknown
    key, such as a top-level ``rank`` or ``solver.ref_mic`` (``ref_mic``,
    ``nu`` and ``gg_exponent`` are grid keys), or a value no trial can run
    with, such as ``trials`` below 1 or an unknown ``prior``, or a repeated
    cell, is a ValueError.  Each line of records.jsonl is one trial's wire
    record, scored or failed, and each cell of summary.json is ``aggregate``
    of its scored lines.  summary.json echoes the resolved grid, which feeds
    back in as ``grid``, and ``manifest``, if given, with the grid's seed.
    """
    cfg = config_dict(grid, "grid")
    solver = cfg.pop("solver", {})
    spec = config_object(GridSpec, cfg, "grid", prefix="")
    solver_cfg = config_object(
        SolverConfig, solver, "solver", ref_mic=spec.ref_mic,
        prior=ContrastModel(nu=spec.nu, gg_exponent=spec.gg_exponent))
    solvers = {kind: replace(solver_cfg, prior=replace(solver_cfg.prior, kind=kind))
               for kind in spec.prior}
    fs, mod_hz = spec.fs, spec.mod_hz
    num_samples = int(round(spec.duration_seconds * fs))
    axes = (spec.num_sources, spec.num_mics, spec.input_sir_db)
    # a repeated cell would run its mixtures again under the same scenario
    # ids; ids, not values, are compared, as they print input_sir_db with :g
    cell_ids = [_cell_id(*cell) for cell in itertools.product(*axes, spec.prior)]
    for i, cell_id in enumerate(cell_ids):
        if cell_id in cell_ids[:i]:
            raise ValueError(f"grid repeats cell {cell_id}")

    # every cell is a prefix of the default layout in the grid's room, and
    # the cells are a cross product, so the largest cell holds every cell's
    # responses; building each cell's scenario checks it
    scenarios = {
        (n, m): default_geometry(n, m, room=spec.room, soi_index=spec.soi_index,
                                 ref_mic=spec.ref_mic)
        for n, m in itertools.product(*axes[:2])
    }
    smallest = min(spec.num_mics)
    if solver_cfg.rank is not None and solver_cfg.rank > smallest:
        raise ValueError(f"solver.rank {solver_cfg.rank} exceeds num_mics {smallest}")
    rirs = compute_rirs(scenarios[max(axes[0]), max(axes[1])], fs)

    def run_mixture(mixture):
        """One mixture under every prior: its sources are drawn, it is
        rendered and its references are factored once, then each prior
        extracts and is scored in its own trial.

        Returns one wire record per prior: the scored trial's, or an error.
        """
        n_src, n_mic, sir, trial = mixture
        seed = spec.seed + trial
        scenario = scenarios[(n_src, n_mic)]
        mixture_set = references = None
        records = []
        for prior_kind in spec.prior:
            cell_id = _cell_id(n_src, n_mic, sir, prior_kind)
            head = {"scenario_id": f"{cell_id}_trial{trial:03d}",
                    "algorithm": f"fastive-{prior_kind}"}
            try:
                if mixture_set is None:
                    sources = speech_like_sources(n_src, num_samples, fs, seed, mod_hz)
                    mixture_set = render(
                        replace(scenario, source_signals=tuple(sources),
                                input_sir_db=sir, seed=seed),
                        fs, rirs=[per_source[:n_mic] for per_source in rirs[:n_src]])
                result = extract(mixture_set.mixture, solvers[prior_kind], spec.stft)
                # every prior's output has the same length (the STFT is
                # grid-wide), so one factorisation scores them all
                if references is None:
                    references = factor_references(
                        mixture_set, result.audio.num_samples, scenario.soi_index,
                        scenario.ref_mic, spec.filter_len)
                records.append(evaluate(
                    result, mixture_set, soi_index=scenario.soi_index,
                    ref_mic=scenario.ref_mic, filter_len=spec.filter_len,
                    references=references, **head).to_record())
            except Exception as exc:  # recorded in-band, sweep continues
                records.append({**head, "error": f"{type(exc).__name__}: {exc}"})
        return records

    mixtures = list(itertools.product(*axes, range(spec.trials)))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_mixture, mixtures))
    else:  # inline: a one-worker pool raises bench-grid peak RSS by 7-10%
        outcomes = [run_mixture(m) for m in mixtures]
    by_mixture = dict(zip(mixtures, outcomes))

    records = []
    summaries = []
    cells = itertools.product(*axes, enumerate(spec.prior))
    for cell_id, (n_src, n_mic, sir, (p, prior_kind)) in zip(cell_ids, cells):
        cell = [by_mixture[(n_src, n_mic, sir, t)][p] for t in range(spec.trials)]
        records += cell
        scored = [r for r in cell if "error" not in r]
        summary = {
            "cell": cell_id,
            "num_sources": n_src,
            "num_mics": n_mic,
            "input_sir_db": sir,
            "prior": prior_kind,
            "trials": spec.trials,
            "errors": len(cell) - len(scored),
        }
        if scored:
            summary.update(aggregate(scored))
        summaries.append(summary)
        errors = summary["errors"]
        print(f"{cell_id}: "
              + (f"success {summary['num_successes']}/{summary['num_trials']}"
                 f" ({summary['success_rate']:.0%})" if scored else "no results")
              + (f", {errors} error{'s' * (errors > 1)}" if errors else "")
              + (f", mean SIRimp {summary['mean_sirimp_db']:.2f} dB"
                 if summary.get("mean_sirimp_db") is not None else "")
              + (f", mean runtime {summary['mean_runtime_s'] * 1e3:.0f} ms"
                 if scored else ""))

    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    records_path = outdir / "records.jsonl"
    with open(records_path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    summary_path = outdir / "summary.json"
    _write_json(summary_path, {
        "manifest": {**manifest, "seed": spec.seed} if manifest else None,
        "grid": {**asdict(spec), "solver": {
            key: getattr(solver_cfg, key) for key in ("max_iter", "tol", "rank")}},
        "cells": summaries,
    })
    print(f"wrote {records_path} ({len(records)} records) and {summary_path}")
    return records, summaries


def cmd_bench(args):
    jobs = config_int(args.jobs, "--jobs", least=1)
    path = Path(args.grid)
    grid = _load_config(args, path)
    manifest = run_manifest("bench", str(path), str(args.output_dir), args.overrides)
    run_grid(grid, args.output_dir, jobs=jobs, manifest=manifest)
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
