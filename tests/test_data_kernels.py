"""The corruption library's numpy kernels: pinned bytes, scipy differentials,
and a run that never imports scipy.

``PINNED`` holds one SHA-256 per corruption over every severity applied to
seeded batches of several shapes (``n = 0`` and 1x1 planes included), recorded
while the operators still called ``scipy.ndimage`` (scipy 1.17.1).  It needs
no scipy to check.  Where scipy is installed, hypothesis differentiates each
kernel in ``repro.data.ndimage`` against the ``scipy.ndimage`` call it
replaced, and ``cosdg`` / ``sindg`` against ``scipy.special``, by
``tobytes()`` equality; the previous scipy-backed operators live in
``benchmarks/reference.py``.  ``python benchmarks/probe.py data`` times each
operator at the pinned plans' shapes.  ``pixelate`` lost its per-pixel loop: it is
differentiated against that loop (``reference.ref_pixelate``, no scipy
needed) and has a second pin over blocks that do not divide the image.
"""

import ast
import hashlib
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks import reference
from repro.data import ndimage as kernels
from repro.data.corruptions import CORRUPTIONS, apply_corruption
from tests import test_reachability as reachability

needs_scipy = pytest.mark.skipif(reference.ndimage is None,
                                 reason="scipy is the differentials' reference")

PIN_SHAPES = ((0, 3, 12, 12), (1, 1, 1, 1), (2, 1, 2, 3), (4, 1, 12, 12),
              (3, 3, 12, 12), (2, 2, 7, 10), (2, 1, 28, 28))


def corruption_digest(name: str) -> str:
    """SHA-256 of ``name`` at severities 1..5 over every ``PIN_SHAPES`` batch,
    plus one draw from the generator the operators drew from."""
    rng = np.random.default_rng(2019)
    digest = hashlib.sha256()
    for severity in range(1, 6):
        for shape in PIN_SHAPES:
            x = np.clip(rng.normal(0.5, 0.4, shape), 0.0, 1.0)
            out = apply_corruption(x, name, severity, rng)
            digest.update(f"{out.dtype}{out.shape}".encode())
            digest.update(out.tobytes())
    digest.update(rng.random(1).tobytes())
    return digest.hexdigest()


PINNED = {
    "brightness":
        "f1e163c3e0f2bdd38380caca5d1aecc48a875c09fbefeed26328e056ce120122",
    "color_jitter":
        "0f2dc7e5e14d26859629e74701409b88211aa6e1b88fadefcd7522809578e4d6",
    "contrast":
        "bcf4345b8465ac15c606eea47acf7b9bc21e2ec399b080032c827b34766c9a17",
    "defocus_blur":
        "1de2315d280b3489e3b218bcbfa8a87e76a02ca0d19e37eb26f87057fcff37f3",
    "fog":
        "69c26c256300af2798325098ed06d8895db87280472dde78ae7f96f0312f0ae0",
    "frost":
        "f286eed59106748d495c966007941a15e92353b38c5308854eeebc0e7158be3f",
    "gaussian_blur":
        "cc336571598eee82a53c27d4e7cd6f9ef1ae87d64cc4fb6eec09460d06360d75",
    "gaussian_noise":
        "81176ec650a97912e7402245e2d630370f889e5cdfcf0a68fd874056784faaab",
    "identity":
        "9027fc40fab885edce3ed8bcf18ab8aba04fa8aff34bd2c8cd5e0d1215cdc8e4",
    "impulse_noise":
        "cfdbeeebb6b339775fe7aa97f5259d33cf4ad160ae2c99b09858f0789da84b3b",
    "invert_polarity":
        "38089eff8381026d85c4fa58f1040456eafd3524f775a7ca5a8f68259eab8915",
    "motion_blur":
        "73e5d4591c1d7894c1ef1fe3b6135ae724529ea2f80b67b5c7539ffa94aed4ac",
    "pixelate":
        "0936486ccd7033b83085d54301fdc0c37e294adb4233c589c95a97e0cf3cea21",
    "rain":
        "bc307a39cd8fffd93d87bec2eab4959211918732db29c58aa55bcbdcbb76c8b1",
    "rotation":
        "1ffa29a7a651c1e8c2c742babecbc6081061dd75644aea2a5e406ea62c6263db",
    "scale_jitter":
        "1a42450ebf5f7664b48f5c645ab0dce33fa2826540d51f9b79c31ee925a25c2c",
    "shot_noise":
        "f81f72dc7123e6982a0d3e3df2d07e2141e7c026d9e15f757132c6322b19ee5e",
    "snow":
        "07fb90c5a38c87562b887f1a030b662d30eaf882996f810c7bc3e7f16629e27a",
    "translate":
        "b2deea799690b6008ebe9343cabd80707997763b96cb13171ff95e3cb74e0ef9",
}


def test_pin_covers_every_corruption():
    assert sorted(PINNED) == sorted(CORRUPTIONS)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corruption_bytes_match_pin(name):
    assert corruption_digest(name) == PINNED[name]


# ``pixelate`` where its blocks do not divide the image (10 rows fall in
# blocks of 4, 3 and 3 at factor 3): every block must still sum its pixels in
# the per-pixel loop's order.  Recorded with that loop.
UNEVEN_SHAPES = ((3, 3, 10, 10), (2, 1, 11, 13), (1, 2, 5, 9), (2, 3, 12, 7))
UNEVEN_PIXELATE = "d2df96626eabb7135e715697d519cf4a3e7400b19689b1b124629d88a6327834"


def test_pixelate_over_uneven_blocks_matches_pin():
    rng = np.random.default_rng(2024)
    digest = hashlib.sha256()
    for severity in range(1, 6):
        for shape in UNEVEN_SHAPES:
            x = np.clip(rng.normal(0.5, 0.4, shape), 0.0, 1.0)
            out = apply_corruption(x, "pixelate", severity, rng)
            digest.update(f"{out.dtype}{out.shape}".encode())
            digest.update(out.tobytes())
    assert digest.hexdigest() == UNEVEN_PIXELATE


def test_a_run_imports_no_scipy():
    """Every module the reachability walk reaches (the run roots, the
    baselines the registry imports, the runner) and every operator at every
    severity leave no ``scipy`` module loaded (a fresh interpreter: this one
    may have imported it)."""
    script = textwrap.dedent("""
        import importlib, sys
        import numpy as np
        for module in sys.argv[1:]:
            importlib.import_module(module)
        from repro.data.corruptions import CORRUPTIONS, apply_corruption
        rng = np.random.default_rng(0)
        for name in CORRUPTIONS:
            for severity in range(1, 6):
                apply_corruption(rng.random((2, 1, 6, 6)), name, severity, rng)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    reached = sorted(reachability._reached())
    assert {"repro.harness.runner", "repro.core.server",
            "repro.baselines.oort"} <= set(reached)
    done = subprocess.run([sys.executable, "-c", script, *reached],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_a_serial_run_imports_no_process_pool():
    """Only ``run_cells`` at ``jobs > 1`` starts a pool, so a serial run (a
    fresh interpreter) leaves ``multiprocessing`` and the pool module unloaded; and
    it loads no ``repro`` module the reachability walk does not reach (a
    package ``__init__`` that re-exports would load every module it names)."""
    script = textwrap.dedent("""
        import sys
        from tests.conftest import make_run_settings, make_tiny_spec
        from repro.experiments.plan import ExperimentPlan
        ExperimentPlan.build(
            "cifar10_c_sim", ["fedavg"], seeds=(0,),
            spec_override=make_tiny_spec(num_parties=4, num_windows=2,
                                         window_regimes=(("fog", 2),),
                                         train=8, test=4),
            settings_override=make_run_settings(
                rounds_burn_in=1, rounds_per_window=1, participants=2,
                epochs=1)).run()
        print(sorted({"multiprocessing", "concurrent.futures.process"}
                     & set(sys.modules)))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "repro"))
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True,
                          cwd=Path(__file__).resolve().parent.parent)
    pools, loaded = done.stdout.strip().splitlines()
    assert pools == "[]"
    packages = {m for m, path in reachability.MODULES.items()
                if path.name == "__init__.py"}
    walked = reachability._reached() | packages
    assert sorted(set(ast.literal_eval(loaded)) - walked) == []


def test_a_run_imports_no_module_after_it_starts():
    """Every module a ShiftEx run needs is loaded before ``on_run_start``
    (a fresh interpreter): an import inside a window boundary would land in
    that window's timed shift response, as ``np.quantile``'s ``numpy.ma``
    once did in ``end_window(0)``."""
    script = textwrap.dedent("""
        import sys
        from tests.conftest import make_run_settings, make_tiny_spec
        from repro.experiments.events import RunCallback
        from repro.experiments.plan import ExperimentPlan

        class Imports(RunCallback):
            def on_run_start(self, info):
                self.before = set(sys.modules)

            def on_run_end(self, info, result):
                print(sorted(set(sys.modules) - self.before))

        ExperimentPlan.build(
            "cifar10_c_sim", ["shiftex"], seeds=(0,),
            spec_override=make_tiny_spec(num_parties=6, num_windows=3,
                                         window_regimes=(("fog", 3),
                                                         ("contrast", 3)),
                                         train=16, test=8),
            settings_override=make_run_settings(
                rounds_burn_in=1, rounds_per_window=1, participants=3,
                epochs=1)).run(callbacks=(Imports(),))
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True,
                          cwd=Path(__file__).resolve().parent.parent)
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------- differentials

@st.composite
def batches(draw):
    """``(n, c, h, w)`` normal draws, clipped to [0, 1] or not."""
    shape = (draw(st.integers(0, 3)), draw(st.integers(1, 3)),
             draw(st.integers(1, 14)), draw(st.integers(1, 14)))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.5, 0.5, shape)
    return np.clip(x, 0.0, 1.0) if draw(st.booleans()) else x


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(x=batches(), severity=st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_pixelate_matches_per_pixel_loop(x, severity):
    got = apply_corruption(x, "pixelate", severity, None)
    _same(got, reference.ref_pixelate(x, severity, None))
    assert got.flags.c_contiguous


@needs_scipy
@given(x=batches(), sigma=st.one_of(
    st.sampled_from([0.4, 0.6, 0.9, 1.2, 1.6, 1.0, 3.0, 7.0]),
    st.floats(0.05, 5.0)))
@settings(max_examples=150, deadline=None)
def test_gaussian_filter_matches_scipy(x, sigma):
    _same(kernels.gaussian_filter(x, sigma),
          reference.ndimage.gaussian_filter(x, sigma=(0, 0, sigma, sigma)))


@needs_scipy
@given(x=batches(), size=st.integers(1, 7), repeats=st.integers(1, 2))
@settings(max_examples=150, deadline=None)
def test_uniform_filter_matches_scipy(x, size, repeats):
    got = want = x
    for _ in range(repeats):
        got = kernels.uniform_filter(got, size)
        want = reference.ndimage.uniform_filter(want, size=(1, 1, size, size))
    _same(got, want)


@needs_scipy
@given(x=batches(), angle=st.one_of(
    st.floats(-720.0, 720.0), st.integers(-8, 8).map(lambda k: 45.0 * k)))
@settings(max_examples=150, deadline=None)
def test_rotate_matches_scipy(x, angle):
    _same(kernels.rotate(x, angle),
          reference.ndimage.rotate(x, angle, axes=(2, 3), reshape=False, order=1,
                                   mode="nearest"))


@needs_scipy
@given(x=batches(), factor=st.one_of(
    st.sampled_from([1.15, 1.25, 1.35, 1.50, 1.70]), st.floats(0.5, 3.0)))
@settings(max_examples=150, deadline=None)
def test_zoom_matches_scipy(x, factor):
    _same(kernels.zoom(x, factor),
          reference.ndimage.zoom(x, (1, 1, factor, factor), order=1))


@needs_scipy
@pytest.mark.parametrize("side, factor", [(4, 47.0), (8, 3.25), (11, 148 / 11)])
def test_zoom_past_the_last_pixel_reads_zero_like_scipy(side, factor):
    """``(out - 1)·((in - 1)/(out - 1))`` can round past ``in - 1``; scipy's
    ``constant`` mode then writes 0 for that whole row and column."""
    x = np.random.default_rng(side).random((1, 1, side, side))
    want = reference.ndimage.zoom(x, (1, 1, factor, factor), order=1)
    assert (want[0, 0, -1] == 0.0).all()
    _same(kernels.zoom(x, factor), want)


@needs_scipy
@given(angle=st.one_of(
    st.floats(-1e15, 1e15, allow_nan=False), st.floats(-1e3, 1e3),
    st.integers(-10**6, 10**6).map(lambda k: 22.5 * k)))
@settings(max_examples=500, deadline=None)
def test_cosdg_sindg_match_scipy_special(angle):
    for ours, theirs in ((kernels.cosdg, reference.special.cosdg),
                         (kernels.sindg, reference.special.sindg)):
        assert np.float64(ours(angle)).tobytes() == np.float64(theirs(angle)).tobytes()


@needs_scipy
@pytest.mark.parametrize("name", sorted(reference.SCIPY_CORRUPTIONS))
@given(x=batches(), severity=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_operator_matches_its_scipy_reference(name, x, severity, seed):
    got = apply_corruption(x, name, severity, np.random.default_rng(seed))
    want = reference.SCIPY_CORRUPTIONS[name](x, severity, np.random.default_rng(seed))
    _same(got, want)
