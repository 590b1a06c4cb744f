import gc

import pytest

from tests import harness


@pytest.fixture
def frozen_session():
    """The session collected to idle and frozen (``gc.freeze``) for the
    test, so a collection inside walks only what the test made."""
    harness.collect_to_idle()
    gc.freeze()
    yield
    gc.unfreeze()
