import pytest

from semitoric import COUPLED_ANGULAR_MOMENTA, SPIN_OSCILLATOR, ModelSpec
from semitoric.pipeline import recover_all


# the default-config reports of both models, recovered once per session and
# shared by the acceptance criteria and the script smoke test
@pytest.fixture(scope="session")
def spin_report():
    return recover_all(ModelSpec(SPIN_OSCILLATOR))


@pytest.fixture(scope="session")
def coupled_report():
    return recover_all(ModelSpec(COUPLED_ANGULAR_MOMENTA, r1=1.0, r2=2.5, t=0.5))
