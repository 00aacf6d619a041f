"""Bit-identity pins for the search baselines and the Ithemal baseline.

Each search baseline runs through its registry entry
(``BASELINES.get(name).run``) on a 200-block Haswell training split, at
two seeds.  200 blocks is at least every searcher's default
``blocks_per_evaluation``, so every scored batch has its configured size.
The pins are the digest of the returned table and its full-set error as a
hex float; for the tuner classes also their counters and histories, and for
OpenTuner its log, which is where it reports its trajectory.  Ithemal's
pins are its epoch losses as hex floats and a digest of its predictions.

A change to the search or training plumbing that promises identical
outputs must pass these unchanged; a change that alters a trajectory on
purpose re-records them and says why.
"""

import hashlib
import logging

import numpy as np
import pytest

from repro.api import BASELINES
from repro.baselines import (AnnealingConfig, CoordinateDescentConfig,
                             CoordinateDescentTuner, GeneticConfig, GeneticTuner,
                             IthemalBaseline, IthemalConfig, SimulatedAnnealingTuner)
from repro.bhive.dataset import build_dataset
from repro.core.adapters import MCAAdapter
from repro.core.losses import mape_loss_value
from repro.targets import HASWELL

#: Evaluation budget per searcher: a few scoring rounds each, and two
#: 32-table chunks for random search (whose budget is its sample count).
BUDGETS = {"opentuner": 2000, "random_search": 40, "genetic": 3100,
           "annealing": 2000, "coordinate_descent": 2000}

#: The tuner class and config behind each registry entry that has one.
TUNERS = {"genetic": (GeneticTuner, GeneticConfig),
          "annealing": (SimulatedAnnealingTuner, AnnealingConfig),
          "coordinate_descent": (CoordinateDescentTuner, CoordinateDescentConfig)}

#: ``(name, seed) -> (table digest, full-set error, OpenTuner log)``.
RUN_PINS = {
    ("annealing", 0): ("cf6fae00c10471b5e72a0f28e4a35e66", "0x1.7ed05b77c4b80p-1", []),
    ("annealing", 1): ("bf98ff286b1aeeaf2903d9d15dd8b851", "0x1.ccaac9bf41936p-1", []),
    ("coordinate_descent", 0): ("c983fcc282c49f466a8862a0dc0cc41a",
                                "0x1.be966b610a92ap-2", []),
    ("coordinate_descent", 1): ("1dcaf2a6ec4539340d1e9e6f3c91e131",
                                "0x1.b8daa19ba31dcp-2", []),
    ("genetic", 0): ("572bd40d29b290855ff23d8608799658", "0x1.89bb3d177bb88p-1", []),
    ("genetic", 1): ("a61dfd30075b4d8a965b0ff3d2fa14cf", "0x1.3c0cd751622e3p-1", []),
    ("opentuner", 0): ("882b871f864485f09f824653ceaac0e4", "0x1.6e3d432d1b708p+0", [
        "iteration 1: random improved error to 1.410",
        "iteration 5: annealing improved error to 1.273",
        "finished after 2000 block evaluations, best batch error 1.273"]),
    ("opentuner", 1): ("461ee1ba76cdafb5a75bc24b694b5f33", "0x1.5c1018430de97p+0", [
        "iteration 1: random improved error to 1.396",
        "iteration 2: hillclimb improved error to 1.363",
        "iteration 4: differential improved error to 1.290",
        "iteration 7: hillclimb improved error to 1.286",
        "finished after 2000 block evaluations, best batch error 1.286"]),
    ("random_search", 0): ("609918a95199a7fed2e66ccc7c3a0697",
                           "0x1.4a4866204c736p-1", []),
    ("random_search", 1): ("f33b9d145179d512ff3cb878cfb3f71c",
                           "0x1.38fa1c67b89cfp-1", []),
}

#: ``(name, seed) -> (table digest, best_error, integer counters,
#: (history length, history digest))``.
TUNER_PINS = {
    ("annealing", 0): ("cf6fae00c10471b5e72a0f28e4a35e66", "0x1.7ed05b77c4b80p-1",
                       {"accepted_moves": 23, "evaluations": 1984, "steps": 30},
                       (31, "6ee84419fd4b50ca5c892a37c7f0f983")),
    ("annealing", 1): ("bf98ff286b1aeeaf2903d9d15dd8b851", "0x1.ccaac9bf41936p-1",
                       {"accepted_moves": 16, "evaluations": 1984, "steps": 30},
                       (31, "babef7d600d4e1f7d8bffc262a368d94")),
    ("coordinate_descent", 0): ("c983fcc282c49f466a8862a0dc0cc41a",
                                "0x1.be966b610a92ap-2", {"evaluations": 1984},
                                (5, "31cd1f747730e253dc0366c8cb753033")),
    ("coordinate_descent", 1): ("1dcaf2a6ec4539340d1e9e6f3c91e131",
                                "0x1.b8daa19ba31dcp-2", {"evaluations": 1984},
                                (5, "222e9da9f37f9279aa42d8860dc1e157")),
    ("genetic", 0): ("572bd40d29b290855ff23d8608799658", "0x1.89bb3d177bb88p-1",
                     {"evaluations": 3072, "generations": 2},
                     (3, "4276d03082e733168acca8caf7f28000")),
    ("genetic", 1): ("a61dfd30075b4d8a965b0ff3d2fa14cf", "0x1.3c0cd751622e3p-1",
                     {"evaluations": 3072, "generations": 2},
                     (3, "fab628ac220a493e1fd26fe9dee3509a")),
}

#: Default ``IthemalConfig`` with 2 epochs on the train split of a 120-block
#: Haswell dataset (seed 0): epoch losses, and the digest of its predictions
#: on all 120 blocks.
ITHEMAL_PIN = (["0x1.39f02ad650d2dp-1", "0x1.dc33c1c7a6807p-2"],
               "41b9bee745a70b40854ef5e3d4076f21")


def _digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _float_digest(*arrays) -> str:
    return _digest(b"".join(np.ascontiguousarray(array, dtype=np.float64).tobytes()
                            for array in arrays))


def _hex(values):
    return [float(value).hex() for value in values]


@pytest.fixture(scope="module")
def pin_problem():
    dataset = build_dataset("haswell", num_blocks=250, seed=11)
    blocks = [example.block for example in dataset.train_examples]
    timings = np.array([example.timing for example in dataset.train_examples])
    assert len(blocks) == 200
    return MCAAdapter(HASWELL, narrow_sampling=True), blocks, timings


@pytest.mark.parametrize("name, seed", sorted(RUN_PINS))
def test_search_baseline_run_is_pinned(pin_problem, caplog, name, seed):
    adapter, blocks, timings = pin_problem
    with caplog.at_level(logging.INFO, logger="repro.baselines"):
        arrays = BASELINES.get(name).run(adapter, blocks, timings,
                                         budget=BUDGETS[name], seed=seed)
    error = mape_loss_value(adapter.predict_timings(arrays, blocks), timings)
    log = [record.getMessage() for record in caplog.records
           if record.name == "repro.baselines.opentuner"]
    observed = (_float_digest(arrays.global_values, arrays.per_instruction_values),
                error.hex(), log)
    assert observed == RUN_PINS[name, seed]


@pytest.mark.parametrize("name, seed", sorted(TUNER_PINS))
def test_tuner_counters_and_histories_are_pinned(pin_problem, name, seed):
    adapter, blocks, timings = pin_problem
    tuner_class, config_class = TUNERS[name]
    result = tuner_class(adapter, config_class(evaluation_budget=BUDGETS[name],
                                               seed=seed)).tune(blocks, timings)
    counters = {key: value for key, value in vars(result).items()
                if isinstance(value, int)}
    if name == "coordinate_descent":
        history = [(field, float(value).hex(), float(error).hex())
                   for field, value, error in result.sweep_history]
    else:
        history = _hex(result.error_history)
    best = result.best_arrays
    observed = (_float_digest(best.global_values, best.per_instruction_values),
                result.best_error.hex(), counters,
                (len(history), _digest(repr(history).encode())))
    assert observed == TUNER_PINS[name, seed]
    # The class and its registry entry return the same table.
    assert observed[0] == RUN_PINS[name, seed][0]


def test_ithemal_losses_and_predictions_are_pinned():
    dataset = build_dataset("haswell", num_blocks=120, seed=0)
    blocks = [example.block for example in dataset.train_examples]
    timings = np.array([example.timing for example in dataset.train_examples])
    baseline = IthemalBaseline(config=IthemalConfig(epochs=2))
    losses = baseline.fit(blocks, timings)
    every_block = blocks + [example.block for example in dataset.test_examples]
    predictions = baseline.predict_many(every_block)
    assert (_hex(losses), _float_digest(predictions)) == ITHEMAL_PIN
