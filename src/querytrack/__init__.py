"""Query-propagation multiple-object tracking on synthetic video.

A detect-query/track-query tracker trained end to end over whole clips:
detect queries find newborn objects, track queries carry identities forward,
the caller picks which decoded slots to carry into the next frame, and a
temporal aggregation layer turns their states into that frame's track
queries. One clip-level loss supervises everything. Runs on a small
tape-based numpy autodiff core.
"""

from querytrack.autodiff import Tape, Tensor

__version__ = "0.1.0"

__all__ = ["Tape", "Tensor", "__version__"]
