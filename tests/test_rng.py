"""Named substreams: a keyed Philox stream, the same as one built from ``Philox(key=...)``."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vehsim.radio import BaseStation, RadioObserver, RadioParams
from vehsim.rng import _key_type, stream_key, substream


def _by_key(seed, *scope):
    return np.random.Generator(np.random.Philox(key=np.frombuffer(stream_key(seed, *scope), "<u8")))


@pytest.mark.parametrize("kind", ["vehicle", "shadowing"])
def test_substream_equals_the_philox_built_from_its_key(kind):
    for seed in (0, 1, 5, 77, 2**31 - 1, -3, 10**12):
        for vid in range(15):
            ours, theirs = substream(seed, kind, vid), _by_key(seed, kind, vid)
            np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)
            assert ours.random() == theirs.random()
            assert ours.integers(7) == theirs.integers(7)
            assert ours.normal(0.0, 4.0, (70, 6)).tobytes() == theirs.normal(0.0, 4.0, (70, 6)).tobytes()


def test_a_key_serves_only_a_philox_key_and_spawns_nothing():
    key = _key_type()(np.frombuffer(stream_key(5, "vehicle", 0), "<u8"))
    assert key.generate_state(2, np.uint64) is key.words
    for n_words, dtype in ((4, np.uint64), (2, np.uint32), (1, np.uint64)):
        with pytest.raises(TypeError):
            key.generate_state(n_words, dtype)
    bit_generator = substream(5, "vehicle", 0).bit_generator
    if hasattr(bit_generator, "spawn"):
        with pytest.raises(TypeError):
            bit_generator.spawn(1)


def test_a_stream_pickles_with_its_state_and_next_draws():
    stream = substream(5, "shadowing", 3)
    stream.normal(0.0, 4.0, 37)
    reloaded = pickle.loads(pickle.dumps(stream))
    np.testing.assert_equal(reloaded.bit_generator.state, stream.bit_generator.state)
    assert reloaded.normal(0.0, 4.0, (70, 6)).tobytes() == stream.normal(0.0, 4.0, (70, 6)).tobytes()
    assert reloaded.integers(7, size=20).tobytes() == stream.integers(7, size=20).tobytes()


def test_a_shadowed_observer_pickles_and_reloads_its_streams():
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 500.0, 0.0)]
    observer = RadioObserver(stations, RadioParams(shadowing_sigma_db=4.0), seed=11)
    observer.update(3, 100.0, 0.0, 0.0)
    reloaded = pickle.loads(pickle.dumps(observer))
    for step in range(1, 200):
        for obs in (observer, reloaded):
            obs.update(3, 100.0 + 2.0 * step, 0.0, 0.1 * step)
        assert reloaded.current(3) == observer.current(3)


def _loads_numpy_random(statement, env):
    code = f"import sys; {statement}; print('numpy.random' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True, text=True)
    return run.stdout.strip() == "True"


def test_importing_the_package_leaves_numpy_random_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    if _loads_numpy_random("import numpy", env):
        pytest.skip("this NumPy (1.x) loads numpy.random on its own import")
    assert not _loads_numpy_random("import vehsim.cli", env)
