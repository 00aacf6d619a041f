"""The one message path: library code logs under ``repro.*``, the CLI prints.

* a source scan asserts that no function parameter or class field under
  ``src/repro`` is named ``log`` or ``progress``, the message callables
  that stdlib ``logging`` replaced, and that no library module configures
  the root logger;
* ``repro serve`` prints its startup line on stdout (the line the
  repository benchmark parses for the port), answers ``/healthz``, and
  prints ``server stopped`` when SIGTERM shuts it down;
* ``cli.main`` leaves the ``repro`` logger as it found it, also when a
  command exits with an error;
* a library ``Session.tune()`` prints nothing unless logging is
  configured, and its stage lines come from ``repro.pipeline.stages``.
"""

import ast
import json
import logging
import os
import pathlib
import signal
import subprocess
import sys
import threading
import urllib.request

import pytest

import repro
from repro import cli
from repro.api import Session, TuneSpec

SOURCE_ROOT = pathlib.Path(repro.__file__).resolve().parent
#: Names the threaded message callables went by.
MESSAGE_NAMES = {"log", "progress"}


def _message_parameters(tree):
    """Function parameters and annotated class fields named like a callable."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            arguments = node.args
            for argument in (arguments.posonlyargs + arguments.args
                             + arguments.kwonlyargs
                             + [arguments.vararg, arguments.kwarg]):
                if argument is not None and argument.arg in MESSAGE_NAMES:
                    yield argument.lineno, argument.arg
        elif isinstance(node, ast.ClassDef):
            for statement in node.body:
                if (isinstance(statement, ast.AnnAssign)
                        and isinstance(statement.target, ast.Name)
                        and statement.target.id in MESSAGE_NAMES):
                    yield statement.lineno, statement.target.id


def _root_logger_setup(tree):
    """``basicConfig`` calls and ``getLogger()`` calls that name no logger."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "basicConfig":
            yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "getLogger" and not node.args):
            yield node.lineno


def _sources():
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        yield path.relative_to(SOURCE_ROOT).as_posix(), ast.parse(path.read_text())


class TestNoMessageCallables:
    def test_source_has_no_log_or_progress_parameters(self):
        offenders = [f"{name}:{line} {argument}" for name, tree in _sources()
                     for line, argument in _message_parameters(tree)]
        assert offenders == []

    def test_library_leaves_the_root_logger_alone(self):
        # Only an application configures the root logger; the CLI's
        # handler sits on the ``repro`` logger.
        offenders = [f"{name}:{line}" for name, tree in _sources()
                     for line in _root_logger_setup(tree)]
        assert offenders == []

    @pytest.mark.parametrize("source", [
        "def run(spec, log=None): pass",
        "def build(*, progress): pass",
        "async def serve(log): pass",
        "handler = lambda log: None",
        "class State:\n    log: object = None",
    ])
    def test_scan_flags_message_parameters(self, source):
        assert len(list(_message_parameters(ast.parse(source)))) == 1

    @pytest.mark.parametrize("source", [
        "def log(self): pass",
        "def train(config, log_every=0): pass",
        "logger.info('progress')",
        "class Config:\n    log_every: int = 0",
    ])
    def test_scan_passes_other_names(self, source):
        assert list(_message_parameters(ast.parse(source))) == []

    @pytest.mark.parametrize("source", ["logging.basicConfig(level=logging.INFO)",
                                        "logging.getLogger().setLevel(10)"])
    def test_root_scan_flags_root_setup(self, source):
        assert list(_root_logger_setup(ast.parse(source))) == [1]

    def test_root_scan_passes_named_loggers(self):
        assert list(_root_logger_setup(ast.parse(
            "logger = logging.getLogger(__name__)"))) == []


class TestServeStdout:
    def test_startup_line_health_and_stop(self):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SOURCE_ROOT.parent), environment.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=environment)
        watchdog = threading.Timer(60.0, process.kill)
        watchdog.start()
        try:
            lines = []
            for line in process.stdout:
                lines.append(line)
                if " on http://" in line:
                    break
            startup = [line for line in lines if " on http://" in line]
            assert len(startup) == 1, lines + [process.stderr.read()]
            # Parsed the way the repository benchmark's server wrapper does.
            port = int(startup[0].split(" on http://", 1)[1].split()[0]
                       .rsplit(":", 1)[1])
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz",
                                        timeout=30) as response:
                assert json.loads(response.read())["status"] == "ok"
            process.send_signal(signal.SIGTERM)
            remaining, errors = process.communicate(timeout=60)
        finally:
            watchdog.cancel()
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, errors
        later = remaining.splitlines()
        assert not any(" on http://" in line for line in later), later
        assert "server stopped" in later[-1], remaining


class TestCliLeavesLoggingAsFound:
    @pytest.fixture
    def repro_logger(self):
        logger = logging.getLogger("repro")
        sentinel = logging.NullHandler()
        logger.addHandler(sentinel)
        logger.setLevel(logging.ERROR)
        try:
            yield logger
        finally:
            logger.removeHandler(sentinel)
            logger.setLevel(logging.NOTSET)

    def test_restored_after_a_command(self, repro_logger, capsys):
        before = (list(repro_logger.handlers), repro_logger.level)
        assert cli.main(["campaign", "list"]) == 0
        assert (list(repro_logger.handlers), repro_logger.level) == before

    def test_restored_when_a_command_exits(self, repro_logger):
        before = (list(repro_logger.handlers), repro_logger.level)
        with pytest.raises(SystemExit, match="--corpus names one target"):
            cli.main(["tune", "--targets", "haswell", "zen2",
                      "--corpus", "nowhere"])
        assert (list(repro_logger.handlers), repro_logger.level) == before

    def test_messages_reach_the_stdout_of_the_call(self, capsys):
        with cli.print_messages():
            logging.getLogger("repro.pipeline.stages").info("stage line")
            logging.getLogger("repro.core.training_loop").debug("batch line")
        logging.getLogger("repro.pipeline.stages").info("after the block")
        assert capsys.readouterr().out == "[repro.pipeline.stages] stage line\n"


class TestLibraryIsQuiet:
    @staticmethod
    def _tune():
        return Session.from_spec(TuneSpec(target="haswell", num_blocks=60,
                                          preset="test")).tune()

    def test_unconfigured_tune_prints_nothing(self, capfd):
        assert self._tune().completed
        assert capfd.readouterr() == ("", "")
        assert logging.getLogger("repro").handlers == []

    def test_stage_lines_come_from_the_stages_logger(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro"):
            assert self._tune().completed
        stages = [record.getMessage() for record in caplog.records
                  if record.name == "repro.pipeline.stages"]
        assert any(message.startswith("collecting simulated dataset")
                   for message in stages)
        assert any(message.startswith("training surrogate on")
                   for message in stages)
        assert "optimizing the parameter table through the frozen surrogate" in stages
        assert all(record.levelno == logging.INFO for record in caplog.records
                   if record.name.startswith("repro."))
