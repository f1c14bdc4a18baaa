"""Model-agnostic local explanations: LIME, the weight-free GLIME family,
KernelSHAP, and a SmoothGrad estimator, with analytic infinite-sample limits,
stability and fidelity metrics, and a deterministic experiment harness.
"""
from .errors import (
    ConfigError,
    DimensionMismatch,
    DimensionTooLarge,
    EngineError,
    InvalidGrid,
    IoFailure,
    LengthMismatch,
    NonFiniteOutput,
    NotPositiveDefinite,
    RemoteMalformed,
    RemoteUnavailable,
    ShapDegenerate,
    SingularSystem,
    UnsupportedCombination,
    UnsupportedModel,
)
from .explain import (
    ExplainRequest,
    Explanation,
    GlimeBinomial,
    GlimeGauss,
    GlimeLaplace,
    GlimeUniform,
    KernelShap,
    Lime,
    MethodSpec,
    SmoothGrad,
    explain,
    explanation_from_json,
    explanation_to_json,
    infinite_limit_linear_binomial,
    infinite_limit_linear_gauss,
    method_from_json,
    method_to_json,
    smoothgrad_estimate,
)
from .feature_space import (
    Reference,
    Segmentation,
    grid_segment,
    mean_reference,
    reconstruct_binary,
    reconstruct_continuous,
    singleton_segments,
)
from .metrics import (
    ExplanationDistance,
    FidelityReport,
    StabilityReport,
    explanation_distance,
    local_fidelity,
    sample_ball,
    top_k_indices,
    top_k_jaccard,
)
from .models import Linear, Mlp, Quadratic, Remote, evaluate, gradient, load_model
from .sampling import (
    Binomial,
    ExpKernel,
    Gaussian,
    Laplace,
    ShapKernel,
    UniformBinary,
    UniformBox,
    Unit,
    bernoulli_p,
    binomial_pmf,
    draw,
    expected_weight_uniform,
    substream_seed,
    weight,
)
from .solver import (
    RidgeProblem,
    RidgeSolution,
    analytic_moments,
    sherman_morrison_inverse,
    solve_weighted_ridge,
)

__version__ = "0.1.0"
