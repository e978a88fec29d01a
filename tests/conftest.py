import io

import pytest

from twotower.data import ingest_logs


@pytest.fixture
def tiny_log_text() -> str:
    return (
        "u1,i1,2023-01-05\n"
        "u1,i2,2023-01-20\n"
        "u1,i3,2023-02-10\n"
        "u2,i1,2023-01-07\n"
        "u2,i3,2023-02-15\n"
        "u2,i2,2023-03-02\n"
    )


@pytest.fixture
def tiny_log(tiny_log_text):
    return ingest_logs(io.StringIO(tiny_log_text))

