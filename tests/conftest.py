import pytest
from hypothesis import HealthCheck, settings

from helpers import dispatch_level
from sdeinvariance import CheckConfig

settings.register_profile(
    "suite", deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture
def quick_cfg() -> CheckConfig:
    """Reduced sampling budget; keeps the checker tests fast."""
    return CheckConfig(n_face_samples=256, n_time_samples=4)


def pytest_report_header(config):
    """Name the dispatch level in the log, next to any digest mismatch."""
    return f"numpy dispatch level: {dispatch_level()}"
