"""Kernel-PCA out-of-distribution detection on penultimate-layer features.

Detectors score new feature vectors by reconstruction error in a mapped
space (cosine normalization, optionally followed by random Fourier
features), with a Gram-matrix scoring path, classic baselines (KNN, MSP,
energy, regularized reconstruction error, score fusion), detection
metrics, synthetic generators, and binary file formats behind a CLI.
"""

from . import (
    baselines,
    detector,
    errors,
    featmap,
    fileio,
    kernelspace,
    linalg,
    metrics,
    rng,
    synth,
)
from .baselines import (
    KnnScorer,
    build_knn,
    energy_score,
    fuse,
    knn_score,
    msp_score,
    reg_pca_error,
)
from .detector import (
    DetectorModel,
    choose_q,
    fit,
    reconstruction_errors,
    score_reconstruction,
    score_residual,
)
from .featmap import (
    FeatureMapSpec,
    RffMap,
    cosine_rff_spec,
    cosine_spec,
    identity_spec,
    map_apply,
    median_heuristic_gamma,
    rff_build,
)
from .kernelspace import (
    KernelSpaceModel,
    fit_kernelspace,
    gram,
    score_kernelspace,
)
from .linalg import SymEigResult, as_feature_matrix, sym_eig
from .metrics import (
    BenchReport,
    EvalReport,
    auroc,
    bench_scorers,
    evaluate,
    fpr_at_tpr,
)
from .rng import make_prng
from .synth import SynthSpec, generate

__version__ = "0.1.0"


def __getattr__(name):
    # The CLI loads on first use, not with the package: importing it here
    # would make ``python -m kpca_ood.cli`` run a module already imported.
    if name == "cli":
        import importlib

        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
