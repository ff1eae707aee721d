"""Issue mechanisms from the paper's design progression (section 3).

``SimpleEngine`` -> ``TomasuloEngine`` -> ``TagUnitEngine`` ->
``RSPoolEngine`` -> ``RSTUEngine``; the RUU itself lives in
:mod:`repro.core` as the paper's contribution.  Tomasulo's family and
the RUU share one core, :class:`~repro.issue.common.WindowedEngine`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "common": ("WindowedEngine", "WindowEntry"),
    "dispatch_stack": ("DispatchStackEngine",),
    "rspool": ("RSPoolEngine",),
    "rstu": ("RSTUEngine",),
    "simple": ("SimpleEngine",),
    "tagunit": ("TagUnitEngine", "TagUnitEntry"),
    "tomasulo": ("TomasuloEngine",),
})
