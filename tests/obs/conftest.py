import pytest

from repro.obs import OBS


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate every test from the global telemetry singleton."""
    prior = OBS.enabled
    OBS.reset()
    yield
    OBS.reset()
    OBS.configure(enabled=prior)
