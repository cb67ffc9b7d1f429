"""Joint spectra of quantum semitoric models and constructive recovery of
the classical symplectic invariants from the spectrum alone."""

from . import errors
from .config import ProbeConfig, RunConfig
from .lattice import label_semitoric
from .models import (
    COUPLED_ANGULAR_MOMENTA,
    SPIN_OSCILLATOR,
    BlockSequence,
    JointSpectrum,
    ModelSpec,
    build_blocks,
    joint_spectrum,
)
from .tridiag import eigs_in_window, eigs_sym_tridiagonal, sturm_count_below

__version__ = "0.1.0"
