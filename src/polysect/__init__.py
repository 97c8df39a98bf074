"""polysect: exact rational polytope kernel and convexity criteria testers.

The top level re-exports the names of the README's library example; every
other name is imported from its module (polysect.polytope, polysect.bodies,
polysect.criteria, ...).
"""

from .cones import visual_cone
from .geometry import AffineFlat
from .polytope import convex_hull, section
from .silhouette import shadow_walk

__version__ = "0.1.0"

__all__ = [
    "AffineFlat",
    "convex_hull",
    "section",
    "shadow_walk",
    "visual_cone",
]
