"""Model-agnostic local explanations: LIME, the weight-free GLIME family,
KernelSHAP and SmoothGrad, with analytic infinite-sample limits,
stability and fidelity metrics, and a deterministic experiment harness.
"""

__version__ = "0.1.0"
