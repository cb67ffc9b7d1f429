from .counting import (
    column_height,
    detect_kinks,
    dh_profile,
    height_invariant,
    smallest_gap_midpoint,
)
from .extrap import (
    double_limit,
    hbar_limit,
    hbar_limits,
    loglog_slope,
    x_limit,
)
from .jets import (
    recover_S01,
    recover_fr_gradient,
    recover_sigma1,
    twisting_number,
)
from .polygon import (
    PolygonEstimate,
    hausdorff,
    polygon_recover,
    sample_polygon_region,
)
from .spacings import LabelledSpectrum, ray_samples
from .taylor import (
    fit_log_expansion,
    solve_jet_order,
    solve_mixed,
    solve_taylor_order,
)

__all__ = [name for name in dir() if not name.startswith("_")]
