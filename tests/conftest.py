"""Shared fixtures.

The "desk" fixtures replicate the exact artifact chain the CLI produces
with shipped defaults: generated graph (seed 42), split, trained model
(seed 27), thresholds fitted on the validation split.  They are session
scoped because training takes tens of seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from ikge import rdf
from ikge.evaluation import select_thresholds
from ikge.ikggen import IkgGenSpec, gen_ikg
from ikge.model import DEFAULT_DIM, init_model, save_model
from ikge.pipeline import OntologyIndex, load_corpus
from ikge.training import TrainConfig, split_dataset, train

try:
    from importlib import resources
except ImportError:  # pragma: no cover
    resources = None


def _data_text(name: str) -> str:
    return resources.files("ikge").joinpath("data", name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def desk_ikg() -> rdf.Graph:
    return gen_ikg(IkgGenSpec())


@pytest.fixture(scope="session")
def desk_config() -> TrainConfig:
    return TrainConfig()


@pytest.fixture(scope="session")
def desk_split(desk_ikg, desk_config):
    return split_dataset(desk_ikg, desk_config.split, desk_config.seed)


@pytest.fixture(scope="session")
def desk_run(desk_split, desk_config):
    # Mirrors the train command: fit, then thresholds from validation
    # positives vs. sampled negatives, then stash the config used.
    model = init_model(desk_split.vocab, dim=DEFAULT_DIM, seed=desk_config.seed)
    report = train(model, desk_split, desk_config)
    valid = desk_split.valid_ids
    rng = np.random.default_rng((desk_config.seed, 2))
    model.thresholds = select_thresholds(model, valid, desk_split.sampler.sample_many(valid, rng))
    model.train_config = desk_config.to_document()
    return model, report


@pytest.fixture(scope="session")
def desk_model(desk_run):
    return desk_run[0]


@pytest.fixture(scope="session")
def desk_report(desk_run):
    return desk_run[1]


@pytest.fixture(scope="session")
def desk_index(desk_ikg) -> OntologyIndex:
    return OntologyIndex(desk_ikg)


@pytest.fixture(scope="session")
def desk_paths(tmp_path_factory, desk_ikg, desk_model):
    """On-disk copies of the desk artifacts for CLI tests."""
    root = tmp_path_factory.mktemp("desk")
    ikg_path = root / "ikg.ttl"
    model_path = root / "model.json"
    ikg_path.write_text(rdf.serialize(desk_ikg), encoding="utf-8")
    save_model(desk_model, model_path)
    return {"ikg": ikg_path, "model": model_path, "root": root}


@pytest.fixture(scope="session")
def shipped_corpus(desk_ikg):
    return load_corpus(_data_text("corpus.tsv"), desk_ikg)


@pytest.fixture(scope="session")
def shipped_blueprint() -> rdf.Graph:
    return rdf.parse(_data_text("blueprint.ttl"))
