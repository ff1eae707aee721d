"""Issue mechanisms from the paper's design progression (section 3).

``SimpleEngine`` -> ``TomasuloEngine`` -> ``TagUnitEngine`` ->
``RSPoolEngine`` -> ``RSTUEngine``; the RUU itself lives in
:mod:`repro.core` as the paper's contribution.  Tomasulo's family and
the RUU share one core, :class:`~repro.issue.common.WindowedEngine`.
"""

from .common import WindowedEngine, WindowEntry
from .dispatch_stack import DispatchStackEngine
from .rspool import RSPoolEngine
from .rstu import RSTUEngine
from .simple import SimpleEngine
from .tagunit import TagUnitEngine, TagUnitEntry
from .tomasulo import TomasuloEngine

__all__ = [
    "DispatchStackEngine",
    "RSPoolEngine",
    "RSTUEngine",
    "SimpleEngine",
    "TagUnitEngine",
    "TagUnitEntry",
    "TomasuloEngine",
    "WindowedEngine",
    "WindowEntry",
]
