"""Shared fixtures.

The "desk" fixtures are the artifact chain the CLI produces with shipped
defaults: generated graph (seed 42), the model ``evaluation.fit`` returns
for it (seed 27, thresholds fitted on the validation split), which is what
``ikge train`` runs, and the split that ``fit`` draws.  They are session scoped, so a test session
trains once.
"""

from __future__ import annotations

import base64

import numpy as np
import pytest

from ikge import rdf
from ikge.evaluation import fit
from ikge.ikggen import IkgGenSpec, gen_ikg
from ikge.model import PARAMETER_NAMES, model_to_document, save_model
from ikge.pipeline import OntologyIndex, load_corpus
from ikge.training import TrainConfig, split_dataset

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
def desk_run(desk_ikg, desk_config):
    return fit(desk_ikg, desk_config)


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


def _v1_document(model) -> dict:
    """``model_to_document(model)`` in format 1: each parameter array a
    nested list of floats."""
    doc = model_to_document(model)
    doc["format_version"] = 1
    for name in PARAMETER_NAMES:
        doc[name] = getattr(model, name).tolist()
    return doc


def _set_v2_entry(stored: dict, row: int, col: int, value: float) -> dict:
    """Set entry ``[row, col]`` of a format-2 stored array, in place."""
    arr = np.frombuffer(base64.b64decode(stored["f64le"]), dtype="<f8").reshape(stored["shape"]).copy()
    arr[row, col] = value
    stored["f64le"] = base64.b64encode(arr.tobytes()).decode("ascii")
    return stored


@pytest.fixture(scope="session")
def v1_document():
    return _v1_document


@pytest.fixture(scope="session")
def set_v2_entry():
    return _set_v2_entry
