"""Interpreter executing parsed scripts against a filesystem-like host.

The host is whatever object provides the :class:`ScriptHost` surface — in
practice the simulated OS filesystem (:class:`repro.osim.fs.SimFileSystem`).
The interpreter captures stdout, threads pipeline text between commands, and
applies output redirections through the host so every filesystem effect is
visible to the integrity-measurement layer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.scripts import commands as command_table
from repro.scripts.parser import parse_script
from repro.scripts.shell_ast import (
    Command,
    ConditionalList,
    IfStatement,
    Pipeline,
    Script,
    Statement,
)
from repro.util.errors import ScriptError


@functools.lru_cache(maxsize=256)
def _parse_shared(source: str) -> Script:
    """One AST per distinct script source, shared by every run: a fleet of
    clients installing the same package runs the same hook text.  Safe
    because nothing here or in the command table mutates an AST; parse
    errors are not cached, so bad source raises on every run."""
    return parse_script(source)


@runtime_checkable
class ScriptHost(Protocol):
    """Filesystem surface the interpreter executes against."""

    def exists(self, path: str) -> bool: ...
    def isfile(self, path: str) -> bool: ...
    def isdir(self, path: str) -> bool: ...
    def read_file(self, path: str) -> bytes: ...
    def write_file(self, path: str, data: bytes, mode: int | None = None) -> None: ...
    def append_file(self, path: str, data: bytes) -> None: ...
    def mkdir(self, path: str, parents: bool = False) -> None: ...
    def remove(self, path: str, recursive: bool = False) -> None: ...
    def symlink(self, target: str, link: str) -> None: ...
    def chmod(self, path: str, mode: int) -> None: ...
    def rename(self, src: str, dst: str) -> None: ...
    def touch(self, path: str) -> None: ...
    def set_xattr(self, path: str, name: str, value: bytes) -> None: ...


@dataclass
class ExecutionResult:
    """Outcome of running a script."""

    exit_code: int
    stdout: str
    commands_run: int


class _ExitSignal(Exception):
    def __init__(self, code: int):
        super().__init__(f"exit {code}")
        self.code = code


@dataclass
class _Context:
    host: ScriptHost
    stdout: list[str] = field(default_factory=list)
    commands_run: int = 0


class Interpreter:
    """Executes the shell subset; raises :class:`ScriptError` on anything
    outside the supported command set (strict by design — TSR rejects what
    it cannot reason about)."""

    def __init__(self, host: ScriptHost):
        self._host = host

    def run(self, script: Script | str) -> ExecutionResult:
        if isinstance(script, str):
            script = _parse_shared(script)
        context = _Context(host=self._host)
        try:
            code = self._run_statements(script.statements, context)
        except _ExitSignal as signal:
            code = signal.code
        return ExecutionResult(
            exit_code=code,
            stdout="".join(context.stdout),
            commands_run=context.commands_run,
        )

    # -- execution ----------------------------------------------------------

    def _run_statements(self, statements: list[Statement], context: _Context) -> int:
        code = 0
        for statement in statements:
            code = self._run_statement(statement, context)
        return code

    def _run_statement(self, statement: Statement, context: _Context) -> int:
        if isinstance(statement, IfStatement):
            condition = self._run_conditional(statement.condition, context)
            if condition == 0:
                return self._run_statements(statement.then_body, context)
            if statement.else_body:
                return self._run_statements(statement.else_body, context)
            return 0
        return self._run_conditional(statement, context)

    def _run_conditional(self, conditional: ConditionalList, context: _Context) -> int:
        code = self._run_pipeline(conditional.pipelines[0], context)
        for connector, pipeline in zip(conditional.connectors,
                                       conditional.pipelines[1:]):
            if connector == "&&" and code != 0:
                continue
            if connector == "||" and code == 0:
                continue
            code = self._run_pipeline(pipeline, context)
        return code

    def _run_pipeline(self, pipeline: Pipeline, context: _Context) -> int:
        stdin = ""
        code = 0
        last = len(pipeline.commands) - 1
        for index, command in enumerate(pipeline.commands):
            code, output = self._run_command(command, stdin, context)
            if index != last:
                stdin = output
            else:
                self._deliver_output(command, output, context)
        return code

    def _run_command(self, command: Command, stdin: str,
                     context: _Context) -> tuple[int, str]:
        implementation = command_table.lookup(command.name)
        if implementation is None:
            raise ScriptError(
                f"unsupported command {command.name!r} at line {command.line}"
            )
        context.commands_run += 1
        code, output = implementation(context.host, command.args, stdin)
        if code == command_table.EXIT_REQUESTED:
            raise _ExitSignal(int(output or "0"))
        return code, output

    def _deliver_output(self, command: Command, output: str, context: _Context):
        if command.redirect is None:
            context.stdout.append(output)
            return
        data = output.encode()
        if command.redirect.append and self._host.exists(command.redirect.path):
            self._host.append_file(command.redirect.path, data)
        else:
            self._host.write_file(command.redirect.path, data)
