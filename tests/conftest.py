import importlib.util
import pathlib
import sys
import threading

import pytest

DATA_DIR = pathlib.Path(__file__).parent / "data"
CORPUSGEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpusgen.py"


@pytest.fixture(scope="session")
def golden_dir() -> pathlib.Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def corpusgen():
    """perfbench/corpusgen.py, the seeded tweet generator of the benchmark."""
    spec = importlib.util.spec_from_file_location("corpusgen", CORPUSGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def in_threads():
    """in_threads(work) calls work(0) .. work(3) in four threads at once,
    switching between them as often as the interpreter allows, and fails
    if one is still running after a minute."""

    def run(work):
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)

    return run
