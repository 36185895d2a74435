"""Section 3: queueing "in the wild" from CDN sRTT statistics."""

from repro.wild.analysis import WildAnalysis, analyze
from repro.wild.dataset import AccessTech, generate_dataset

__all__ = ["AccessTech", "generate_dataset", "WildAnalysis", "analyze"]
