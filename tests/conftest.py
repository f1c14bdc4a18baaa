import os.path

from localex.explain import (
    GlimeBinomial,
    GlimeGauss,
    GlimeLaplace,
    GlimeUniform,
    KernelShap,
    Lime,
    SmoothGrad,
)

ASSETS = os.path.join(os.path.dirname(__file__), "..", "assets")

# one instance of every method variant: each class, plus Lime's pi = 1
# ablation and KernelShap's sampled mode
ALL_METHODS = (Lime(0.5), Lime(0.5, unit_weights=True), GlimeBinomial(1.0),
               GlimeGauss(0.3), GlimeLaplace(0.3), GlimeUniform(0.3),
               KernelShap(), KernelShap(exact=False), SmoothGrad(0.1))


def asset(name: str) -> str:
    return os.path.join(ASSETS, name)
