"""Shared fixtures for the test suite.

Expensive objects (opcode table, small datasets, default tables) are session
scoped so the several hundred tests stay fast.
"""

from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest

from repro.bhive import BlockGenerator, build_dataset
from repro.core.adapters import LLVMSimAdapter, MCAAdapter
from repro.isa.opcodes import DEFAULT_OPCODE_TABLE
from repro.isa.parser import parse_block
from repro.targets import HASWELL, build_default_mca_table
from repro.targets.hardware import HardwareModel


@pytest.fixture(scope="session")
def opcode_table():
    return DEFAULT_OPCODE_TABLE


@pytest.fixture(scope="session")
def haswell_default_table():
    return build_default_mca_table(HASWELL)


@pytest.fixture(scope="session")
def haswell_hardware():
    return HardwareModel(HASWELL, seed=0)


@pytest.fixture(scope="session")
def small_dataset():
    """A small Haswell dataset shared by dataset/evaluation/integration tests."""
    return build_dataset("haswell", num_blocks=150, seed=0)


@pytest.fixture(scope="session")
def mca_adapter():
    return MCAAdapter(HASWELL)


@pytest.fixture(scope="session")
def llvm_sim_adapter():
    return LLVMSimAdapter(HASWELL)


@pytest.fixture(scope="session")
def block_generator():
    return BlockGenerator(seed=7)


@pytest.fixture(scope="session")
def sample_blocks(block_generator):
    return block_generator.generate_blocks(30)


@pytest.fixture
def simple_block():
    return parse_block("addq %rax, %rbx\nimulq %rbx, %rcx\nmovq %rcx, 16(%rsp)")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` fails the test instead of letting it hang.

    A SIGALRM timer interrupts the test thread's wait (a lock acquire, a
    pipe read) with ``TimeoutError``; leaving the block cancels the timer.
    """
    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(_signum, _frame):
            raise TimeoutError(f"still waiting after {seconds}s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
