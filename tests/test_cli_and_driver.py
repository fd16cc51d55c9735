"""Tests for the CLI (python -m repro) and the compile-pipeline driver."""

import pathlib

import pytest

from repro.__main__ import main as cli_main
from repro.opt.driver import compile_module, compile_source
from repro.opt.options import AliasLevel, CompilerOptions, OptLevel
from repro.lang import parse
from repro.sim.interp import run

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

SRC = """
var total: int;
proc main(): int {
    var i: int;
    total = 0;
    for i = 1 to 6 { total = total + i * i; }
    return total;
}
"""


@pytest.fixture()
def tin_file(tmp_path):
    path = tmp_path / "demo.tin"
    path.write_text(SRC, encoding="utf-8")
    return str(path)


class TestCLI:
    def test_run_command(self, tin_file, capsys):
        assert cli_main(["run", tin_file]) == 0
        out = capsys.readouterr().out
        assert "result: 91" in out

    def test_run_command_opt_levels(self, tin_file, capsys):
        for level in ("0", "4"):
            assert cli_main(["run", tin_file, "-O", level]) == 0
            assert "result: 91" in capsys.readouterr().out

    def test_measure_command(self, tin_file, capsys):
        assert cli_main(["measure", tin_file, "--unroll", "2"]) == 0
        out = capsys.readouterr().out
        assert "superscalar-4" in out and "base" in out

    def test_exhibit_list(self, capsys):
        assert cli_main(["exhibit", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig4-1" in out and "table5-1" in out

    def test_exhibit_unknown(self, capsys):
        assert cli_main(["exhibit", "nope"]) == 2

    def test_exhibit_runs_analytic_one(self, capsys):
        assert cli_main(["exhibit", "fig4-7"]) == 0
        out = capsys.readouterr().out
        assert "1.667" in out


class TestExhibitEngineFlags:
    """``repro exhibit`` runs its cells through the engine and honours
    the cache flags at one worker."""

    EXPECTED = (RESULTS / "fig4-5.txt").read_text(encoding="utf-8") + "\n"

    def test_cache_dir_holds_exactly_the_exhibits_units(self, tmp_path,
                                                        capsys):
        from repro.benchmarks import suite
        from repro.engine.cache import TraceCache, trace_key

        root = tmp_path / "cache"
        assert cli_main(["exhibit", "fig4-5", "--cache-dir", str(root)]) == 0
        assert capsys.readouterr().out == self.EXPECTED
        cache = TraceCache(str(root))
        keys = {trace_key(b.source(), suite.default_options(b))
                for b in suite.all_benchmarks()}
        assert len(keys) == 8
        for key in keys:
            assert pathlib.Path(cache.path_for(key)).is_file()
        assert len(list(root.glob("??/*.pkl"))) == 8

    def test_no_cache_leaves_no_entries(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        root = tmp_path / "cache"
        assert cli_main(["exhibit", "fig4-5", "--no-cache",
                         "--cache-dir", str(root)]) == 0
        assert capsys.readouterr().out == self.EXPECTED
        assert list(tmp_path.iterdir()) == []


class TestReportFormats:
    """``repro report --format json|markdown``."""

    def _report(self, tmp_path, fmt):
        return cli_main([
            "report", "--benchmarks", "whet", "--machines", "base",
            "-o", str(tmp_path / "run.jsonl"), "--format", fmt,
        ])

    def test_json_stdout_is_one_parseable_document(self, tmp_path,
                                                   capsys):
        import json

        assert self._report(tmp_path, "json") == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["run_id"] and doc["conservation_holds"] is True
        entry = doc["benchmarks"][0]
        assert entry["benchmark"] == "whet"
        assert any(t["machine"] == "base" for t in entry["timings"])
        # The status line must not corrupt the JSON stream.
        assert "JSONL report written" in captured.err

    def test_markdown_renders_tables(self, tmp_path, capsys):
        assert self._report(tmp_path, "markdown") == 0
        out = capsys.readouterr().out
        assert "| " in out and " --- " in out.replace("|---", "| --- ")
        assert "whet" in out and "base" in out

    def test_text_remains_the_default(self, tmp_path, capsys):
        assert self._report(tmp_path, "text") == 0
        out = capsys.readouterr().out
        assert "| " not in out.splitlines()[0]
        assert "whet" in out


#: Engine flags each command does not honour, and so does not register.
REMOVED_ENGINE_FLAGS = {
    "report": ["--cache-dir", "--no-cache", "--retries", "--group-timeout",
               "--faults", "--live", "--sample-resources"],
    "exhibit": ["--retries", "--group-timeout", "--faults", "--trace-out",
                "--live", "--sample-resources"],
    "gap": ["--faults", "--trace-out", "--live", "--sample-resources",
            "--scheduler"],
}

#: A value for each engine flag that takes one (switches take none).
FLAG_VALUES = {
    "--workers": "2", "--cache-dir": "c", "--retries": "1",
    "--group-timeout": "5", "--faults": "crash@whet", "--trace-out": "t",
    "--scheduler": "list",
}

KEPT_ENGINE_FLAGS = {
    "measure": ["--workers", "--cache-dir", "--no-cache", "--retries",
                "--group-timeout", "--faults", "--trace-out", "--live",
                "--sample-resources", "--scheduler"],
    "suite": ["--workers", "--cache-dir", "--no-cache", "--retries",
              "--group-timeout", "--faults", "--trace-out", "--live",
              "--sample-resources", "--scheduler"],
    "report": ["--workers", "--trace-out", "--scheduler"],
    "exhibit": ["--workers", "--cache-dir", "--no-cache", "--scheduler"],
    "gap": ["--workers", "--cache-dir", "--no-cache", "--retries",
            "--group-timeout"],
}

#: Positional arguments each command needs to parse.
COMMAND_ARGS = {"measure": ["whet"], "suite": [], "report": [],
                "exhibit": ["list"], "gap": []}


def _flag_argv(command: str, flag: str) -> list[str]:
    value = [FLAG_VALUES[flag]] if flag in FLAG_VALUES else []
    return [command, *COMMAND_ARGS[command], flag, *value]


class TestEngineFlags:
    """Each command registers only the engine flags it honours."""

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in REMOVED_ENGINE_FLAGS.items()
        for flag in flags
    ])
    def test_unhonoured_flag_is_rejected(self, command, flag, capsys):
        from repro.__main__ import _build_parser

        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(_flag_argv(command, flag))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in KEPT_ENGINE_FLAGS.items()
        for flag in flags
    ])
    def test_honoured_flag_parses(self, command, flag):
        from repro.__main__ import _build_parser

        args = _build_parser().parse_args(_flag_argv(command, flag))
        value = getattr(args, flag[2:].replace("-", "_"))
        assert value not in (None, False)


class TestDriver:
    def test_opt_level_ordering_monotone_instruction_count(self):
        counts = []
        for level in OptLevel:
            program = compile_source(
                SRC, CompilerOptions(opt_level=level)
            )
            counts.append(run(program).instructions)
        # optimization levels never increase the dynamic instruction
        # count on this straight-line-ish program
        assert counts[0] >= counts[2] >= counts[4]

    def test_compile_module_consumes_fresh_ast(self):
        module = parse(SRC)
        program = compile_module(module, CompilerOptions(unroll=2))
        assert run(program).value == 91

    def test_default_options_schedule_for_superscalar8(self):
        opts = CompilerOptions()
        assert opts.schedule_for.issue_width == 8
        assert opts.do_schedule and opts.do_regalloc

    def test_alias_level_defaults(self):
        assert CompilerOptions().alias_level is AliasLevel.CONSERVATIVE
        assert CompilerOptions(careful=True).alias_level is AliasLevel.AFFINE
        explicit = CompilerOptions(alias=AliasLevel.OBJECT)
        assert explicit.alias_level is AliasLevel.OBJECT

    def test_rejects_bad_unroll(self):
        with pytest.raises(ValueError):
            CompilerOptions(unroll=0)

    def test_all_levels_produce_valid_programs(self):
        for level in OptLevel:
            program = compile_source(SRC, CompilerOptions(opt_level=level))
            program.validate()

    def test_deterministic_compilation(self):
        from repro.isa import format_program

        a = format_program(compile_source(SRC, CompilerOptions()))
        b = format_program(compile_source(SRC, CompilerOptions()))
        assert a == b
