import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from bannet.model import (
    ActivationParams,
    BannModel,
    Dataset,
    LayerParams,
    propagate,
    unpack_pattern,
)

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 stays reproducible.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # Hypothesis still caches the constants it reads from the source files,
    # at collection time; keep that cache out of the working tree.
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


def hidden_pattern(model, x, k):
    """Pattern over {h1, h2} after hidden layer k of inputs x."""
    return unpack_pattern(model, propagate(model, x, k, with_output=False), k)


def make_random_model(rng, d0=None, n_hidden=None, dl=None, max_width=8, activation=None):
    """Random network with total depth 1..4 and hidden widths <= max_width."""
    d0 = int(d0 if d0 is not None else rng.integers(1, 6))
    dl = int(dl if dl is not None else rng.integers(1, 4))
    if n_hidden is None:
        n_hidden = int(rng.integers(0, 4))
    widths = [d0] + [int(rng.integers(1, max_width + 1)) for _ in range(n_hidden)] + [dl]
    layers = [
        LayerParams(rng.normal(size=(widths[k + 1], widths[k])), rng.normal(size=widths[k + 1]))
        for k in range(len(widths) - 1)
    ]
    return BannModel(activation or ActivationParams(), tuple(layers[:-1]), layers[-1])


def make_random_dataset(rng, m=None, d0=None, dl=None):
    m = int(m if m is not None else rng.integers(5, 60))
    d0 = int(d0 if d0 is not None else rng.integers(1, 6))
    dl = int(dl if dl is not None else rng.integers(1, 4))
    return Dataset(rng.normal(size=(m, d0)), rng.normal(size=(m, dl)))


def random_activation(rng):
    t = float(rng.normal())
    lo = float(rng.normal())
    return ActivationParams(t, lo, lo + float(rng.uniform(0.2, 3.0)))
