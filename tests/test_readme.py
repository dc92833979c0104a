"""README's examples stay true: each ``jsonc`` block parses the way the text
says it does, and the Python blocks run."""

import json
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from fastive import cli
from fastive.extractor import SolverConfig
from fastive.stft import AudioBuffer, StftConfig, save_wav

README = Path(__file__).resolve().parents[1] / "README.md"


def jsonc_blocks():
    """The README's ``jsonc`` blocks in order, comments stripped and a bare
    ``"key": value`` member wrapped into an object."""
    blocks = re.findall(r"^```jsonc\n(.*?)^```$", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    parsed = []
    for block in blocks:
        text = re.sub(r"//.*", "", block).strip()
        parsed.append(json.loads(text if text.startswith("{") else f"{{{text}}}"))
    return parsed


def test_readme_scenario_example_parses():
    scenario, _, _ = jsonc_blocks()
    cli.scenario_from_dict(scenario)


def test_readme_report_config_example_is_the_default_config():
    _, report, _ = jsonc_blocks()
    assert report["config"] == {"solver": asdict(SolverConfig()),
                                "stft": asdict(StftConfig())}


class Parsed(Exception):
    """Raised where run_grid starts building responses: every key was read."""


def test_readme_grid_example_parses(tmp_path, monkeypatch):
    _, _, grid = jsonc_blocks()
    # the documented schema is the spec's: every GridSpec field and solver
    assert set(grid) == {f.name for f in fields(cli.GridSpec)} | {"solver"}

    def stop(*args):
        raise Parsed
    monkeypatch.setattr(cli, "compute_rirs", stop)
    with pytest.raises(Parsed):
        cli.run_grid(grid, tmp_path / "bench")


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    """Both Python blocks run, in one namespace and through the names the
    package exports, on a 1 s 4-channel recording."""
    noise = np.random.default_rng(0).normal(scale=0.1, size=(16000, 4))
    save_wav(tmp_path / "meeting_4ch.wav", AudioBuffer(noise, 16000))
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    assert (tmp_path / "dominant_speaker.wav").exists()
    sirs = [float(v) for v in capsys.readouterr().out.splitlines()[-1].split()]
    assert len(sirs) == 3 and np.all(np.isfinite(sirs))
