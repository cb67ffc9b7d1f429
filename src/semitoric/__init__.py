"""Joint spectra of quantum semitoric models and constructive recovery of
the classical symplectic invariants from the spectrum alone."""

from . import errors
from .config import ProbeConfig, RunConfig
from .geometry import Rect
from .lattice import (
    AffineBasis,
    ChartSpec,
    ChartTransition,
    GlobalLabelling,
    Labelling,
    PointCloud,
    glue_global,
    label_half_lattice,
    label_regular,
    label_semitoric,
    select_affine_basis,
    synth_lattice,
    transition,
)
from .models import (
    COUPLED_ANGULAR_MOMENTA,
    SPIN_OSCILLATOR,
    BlockSequence,
    JointSpectrum,
    ModelSpec,
    build_blocks,
    joint_spectrum,
    spectrum_to_csv,
    spectrum_to_json,
)
from .tridiag import eigs_in_window, eigs_sym_tridiagonal, sturm_count_below

__version__ = "0.1.0"
