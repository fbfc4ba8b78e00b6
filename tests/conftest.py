import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from magcone import cli, spectrum
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


def _synthesis_bound(field, r, cfg) -> np.ndarray:
    """4 (K + M + 1) 2^-52 sum_{k,m} |c_{k,m}| |R_{k,m}(r)| per radius, over the K nonzero ks and M + 1 levels.

    At every theta it bounds how far two summation orders of the terms
    c_{k,m} R_{k,m}(r) e^{i k theta / sigma} may lie apart: an a-priori bound
    from the terms the term-by-term oracles add, not from the code under test.
    """
    live = np.any(field.coeffs, axis=1)
    rows = spectrum.radial_profiles(cfg, field.window.k_values[live], field.window.m_max, r)  # (K, M + 1, R)
    total = np.einsum("km,kmr->r", np.abs(field.coeffs[live]), np.abs(rows))
    return 4 * (np.count_nonzero(live) + field.window.m_max + 1) * 2.0 ** -52 * total


def _norm_bound(field, p, cfg, grid) -> float:
    """The synthesis bound's L^p norm on the grid (its maximum for p = inf).

    By the triangle inequality it bounds how far the L^p norms of two
    syntheses of the field within that bound lie apart.
    """
    bound = _synthesis_bound(field, grid.r, cfg)
    return grid.lp_norm(np.broadcast_to(bound[:, None], (grid.r.size, grid.theta.size)), p)


@pytest.fixture(scope="session")
def synthesis_bound():
    """field, r, cfg -> the per-radius rounding bound of a synthesis against the term-by-term sum."""
    return _synthesis_bound


@pytest.fixture(scope="session")
def norm_bound():
    """field, p, cfg, grid -> the bound on how far two L^p norms of syntheses of the field lie apart."""
    return _norm_bound
