import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from magcone import cli
from magcone.geometry import ConeConfig

REFERENCE = (
    ConeConfig(sigma=1.0, b0=1.0, alpha=0.25),
    ConeConfig(sigma=1.5, b0=1.0, alpha=0.4),
    ConeConfig(sigma=2.0, b0=0.5, alpha=0.3),
)


@pytest.fixture(params=REFERENCE, ids=lambda c: f"sigma{c.sigma}")
def cfg(request) -> ConeConfig:
    return request.param


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)


@pytest.fixture(scope="session")
def verify_all_output(tmp_path_factory):
    """cfg -> the directory `magcone verify all` wrote for cfg at the default grids and seed.

    Each configuration runs once per session and its files are shared by
    every test that asks for it, so tests only read them.
    """
    outputs = {}

    def output(cone: ConeConfig) -> Path:
        if cone not in outputs:
            root = tmp_path_factory.mktemp(f"verify-all-sigma{cone.sigma:g}")
            config = root / "cone.cfg"
            config.write_text(f"sigma = {cone.sigma!r}\nalpha = {cone.alpha!r}\nb0 = {cone.b0!r}\n",
                              encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--config", str(config), "--out", str(root / "out"), "verify", "all"])
            assert code == cli.EXIT_OK
            outputs[cone] = root / "out"
        return outputs[cone]

    return output
