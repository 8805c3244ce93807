"""CLI surface tests (parsing + the cheap paths)."""

import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_experiment_choices(self):
        p = build_parser()
        for name in EXPERIMENTS + ("all", "list"):
            args = p.parse_args([name])
            assert args.experiment == name

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    def test_settings_validated(self):
        args = build_parser().parse_args(["table1", "--settings", "30", "100"])
        assert args.settings == ["30", "100"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--settings", "99"])

    def test_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.methods == ["fedavg", "fednova", "fedprox", "fedkemf"]
        assert args.seed == 0
        assert args.out is None

    def test_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["table1", "--checkpoint-dir", "ck", "--checkpoint-every", "5", "--resume"]
        )
        assert str(args.checkpoint_dir) == "ck"
        assert args.checkpoint_every == 5
        assert args.resume is True
        bare = build_parser().parse_args(["table1"])
        assert bare.checkpoint_dir is None and bare.resume is False


class TestRuntimeFlagValidation:
    """Bad runtime flag values die at parse time as one-line usage errors
    (exit 2) naming the flag, before any run starts."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--executor", "batched"], "--executor"),
            (["--defense", "krum=abc"], "--defense"),
            (["--defense", "bogus"], "--defense"),
            (["--faults", "dropout=abc"], "--faults"),
            (["--faults", "frobnicate=1"], "--faults"),
        ],
    )
    def test_bad_value_exits_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["table2", *argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    def test_valid_specs_pass_through_as_strings(self):
        args = build_parser().parse_args(
            ["table2", "--defense", "krum=1", "--faults", "dropout=0.3,signflip=0.2"]
        )
        assert args.defense == "krum=1"
        assert args.faults == "dropout=0.3,signflip=0.2"


class TestListCommand:
    def test_list_prints_index(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_scale_raises(self):
        with pytest.raises(KeyError):
            main(["table1", "--scale", "galactic"])
