"""Bundled DML scripts for the paper's five ML programs (Table 1).

``load_script(name)`` returns the DML source text; ``SCRIPTS`` lists the
available names with their default script-level arguments (Table 1:
icpt=0, lambda=0.01, eps=1e-9, maxiter=5).
"""

from __future__ import annotations

import functools
import importlib.resources
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ScriptSpec:
    """Metadata of one bundled ML script."""

    name: str
    filename: str
    description: str
    #: input argument names mapped to their roles
    inputs: tuple = ()
    #: default script-level arguments (Table 1)
    defaults: dict = field(default_factory=dict)
    #: whether initial compilation faces unknown sizes (Table 1's "?")
    has_unknowns: bool = False


SCRIPTS = {
    "LinregDS": ScriptSpec(
        name="LinregDS",
        filename="linreg_ds.dml",
        description="Linear regression, closed-form direct solve",
        inputs=("X", "Y"),
        defaults={"icpt": 0, "reg": 0.01},
    ),
    "LinregCG": ScriptSpec(
        name="LinregCG",
        filename="linreg_cg.dml",
        description="Linear regression, iterative conjugate gradient",
        inputs=("X", "Y"),
        defaults={"icpt": 0, "reg": 0.01, "tol": 1e-9, "maxi": 5},
    ),
    "L2SVM": ScriptSpec(
        name="L2SVM",
        filename="l2svm.dml",
        description="L2-regularized support vector machine (primal)",
        inputs=("X", "Y"),
        defaults={"icpt": 0, "reg": 0.01, "tol": 1e-9, "maxiter": 5},
    ),
    "MLogreg": ScriptSpec(
        name="MLogreg",
        filename="mlogreg.dml",
        description="Multinomial logistic regression",
        inputs=("X", "Y"),
        defaults={"icpt": 0, "reg": 0.01, "tol": 1e-9, "moi": 5, "mii": 5},
        has_unknowns=True,
    ),
    "GLM": ScriptSpec(
        name="GLM",
        filename="glm.dml",
        description="Generalized linear model (Poisson / log link)",
        inputs=("X", "Y"),
        defaults={"icpt": 0, "reg": 0.01, "tol": 1e-9, "moi": 5, "mii": 5},
        has_unknowns=True,
    ),
    # additional programs beyond the paper's evaluated five
    "KMeans": ScriptSpec(
        name="KMeans",
        filename="kmeans.dml",
        description="Lloyd's k-means clustering",
        inputs=("X",),
        defaults={"k": 5, "maxi": 5, "tol": 1e-4},
    ),
    "PCA": ScriptSpec(
        name="PCA",
        filename="pca.dml",
        description="Principal component analysis (power iteration)",
        inputs=("X",),
        defaults={"k": 3, "maxi": 20},
    ),
}


@functools.cache  # package data: read once per process, not per request
def load_script(name):
    """Return the DML source of a bundled script by registry name."""
    spec = SCRIPTS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown script {name!r}; available: {sorted(SCRIPTS)}"
        )
    ref = importlib.resources.files("repro.scripts").joinpath(spec.filename)
    return ref.read_text()


def script_spec(name):
    return SCRIPTS[name]
