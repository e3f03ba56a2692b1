"""Tests for the command-line driver: output formats, determinism, exit codes."""

import json
import re
from fractions import Fraction
from itertools import product

import pytest

from confchern import classes, cli
from confchern.classes import ProjFixedPoint, TorusData, mc_conf_proj_at


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_conf_proj_json_round_trip(capsys):
    code, out, _ = run(["conf-proj", "--n", "2", "--point", "1,1",
                        "--output", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"universe", "num", "den"}
    t = TorusData.standard(2)
    want = mc_conf_proj_at(t, ProjFixedPoint((1, 1)))
    assert blob == want.to_json()


def test_output_deterministic(capsys):
    argv = ["conf-affine", "--n", "2", "--k", "2", "--output", "json"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_text_output_parses(capsys):
    code, out, _ = run(["orbit", "--n", "1", "--k", "1"], capsys)
    assert code == 0
    assert "y" in out


def test_check_szeregi_pass(capsys):
    code, out, _ = run(["check", "--name", "szeregi", "--N", "3"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"


def test_check_a_oracle_reports_counts(capsys):
    code, out, _ = run(["check", "--name", "a-oracle", "--k", "3"], capsys)
    assert code == 0
    assert out.strip() == "PASS 5/5"


def test_check_residue_custom_alphas(capsys):
    code, out, _ = run(["check", "--name", "residue", "--N", "2",
                        "--alphas", "2,5"], capsys)
    assert code == 0
    assert "PASS" in out


def test_check_residue_negative_alphas_as_next_token(capsys):
    # a value with a leading minus reads as an option unless glued by `=`
    split = run(["check", "--name", "residue", "--alphas", "-2,3",
                 "--N", "2"], capsys)
    glued = run(["check", "--name", "residue", "--alphas=-2,3",
                 "--N", "2"], capsys)
    assert split[0] == 0
    assert split == glued


def test_check_recursion(capsys):
    code, out, _ = run(["check", "--name", "recursion", "--n", "2",
                        "--k", "2"], capsys)
    assert code == 0
    assert "4/4" in out


def test_check_a_oracle_cap_precedes_enumeration(capsys, monkeypatch):
    def refuse(k):
        raise AssertionError("enumerated Bell(%d) partitions" % k)

    monkeypatch.setattr(cli, "enumerate_partitions", refuse)
    code, out, err = run(["check", "--name", "a-oracle", "--k", "7"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: check a-oracle takes --k in 1..6, got 7\n"


# Every size range of the CLI: command, option, lowest, highest.  Written
# out here, not read from the CLI's table, so that a changed range fails.
RANGES = [
    ("conf-affine", "n", 1, 6), ("conf-affine", "k", 1, 7),
    ("orbit", "n", 1, 6), ("orbit", "k", 1, 7),
    ("orbit-full", "n", 1, 6), ("orbit-full", "k", 1, 7),
    ("conf-proj", "n", 1, 6), ("conf-proj", "point", 1, 7),
    ("a-oracle", "k", 1, 6),
    ("szeregi", "N", 1, 18), ("s1", "N", 1, 18), ("s3-point", "N", 1, 18),
    ("s2", "n", 1, 6), ("s2", "N", 1, 18),
    ("s2-full", "n", 1, 6), ("s2-full", "N", 1, 18),
    ("residue", "alphas", 1, 32), ("residue", "N", 1, 8),
    ("bb-stability", "n", 2, 4), ("bb-stability", "k", 1, 3),
    ("recursion", "n", 1, 6), ("recursion", "k", 1, 7),
    ("limits-props", "count", 1, 10000),
]


class Reached(Exception):
    """Raised by a stub runner: the CLI began to compute."""


def _stub_runners(monkeypatch, stub):
    """Put `stub` in place of the runner of every class and check."""
    for name, (text, params, _) in cli.CLASSES.items():
        monkeypatch.setitem(cli.CLASSES, name, (text, params, stub))
    for name, (params, _) in cli.CHECKS.items():
        monkeypatch.setitem(cli.CHECKS, name, (params, stub))


def _argv(command, option, value):
    """argv of `command` with `option` at `value` and every other size
    option at its lowest; a --point of a length is 1,1,...,1 and --alphas
    is 2,3,..."""
    sizes = {opt: lo for cmd, opt, lo, _ in RANGES if cmd == command}
    sizes[option] = value
    argv = ["check", "--name", command] if command in cli.CHECKS \
        else [command]
    for opt, v in sizes.items():
        text = {"point": ",".join(["1"] * v),
                "alphas": ",".join(map(str, range(2, v + 2)))}
        argv += ["--" + opt, text.get(opt, str(v))]
    return argv


@pytest.mark.parametrize("command,option,lo,hi", RANGES,
                         ids=["%s-%s" % r[:2] for r in RANGES])
def test_range_edges(command, option, lo, hi, capsys, monkeypatch):
    # each edge value reaches a stub in place of the runner, and one past
    # each edge is refused before the stub is called
    def stub(args):
        raise Reached(getattr(args, option))

    _stub_runners(monkeypatch, stub)
    for value in (lo, hi):
        with pytest.raises(Reached) as exc:
            cli.main(_argv(command, option, value))
        got = exc.value.args[0]
        assert (len(got) if option in cli.LISTS else got) == value
    where = "check " + command if command in cli.CHECKS else command
    label = option + " length" if option in cli.LISTS else option
    # an empty list is malformed, not a length out of range
    for value in (lo - 1, hi + 1) if option not in cli.LISTS else (hi + 1,):
        code, out, err = run(_argv(command, option, value), capsys)
        assert (code, out) == (2, "")
        assert err == "error: %s takes --%s in %d..%d, got %d\n" \
            % (where, label, lo, hi, value)


# The largest k of the orbit classes, of conf-affine and of a conf-proj
# fixed point at each n, where it is below the shared range's 7, written
# out like RANGES.
ORBIT_K_EDGES = [(3, 5), (4, 4), (5, 3), (6, 3)]
AFFINE_K_EDGES = [(6, 5)]
PROJ_POINT_EDGES = [(6, 6)]


def _class_size_edges(command, option, edges, capsys, monkeypatch):
    """The largest size at each n reaches the builder, one more is refused
    before it runs, and --help names each of these edges."""
    def stub(args):
        size = getattr(args, option)
        raise Reached(args.n, len(size) if option in cli.LISTS else size)

    def argv(n, size):
        value = ",".join(["1"] * size) if option in cli.LISTS else str(size)
        return [command, "--n", str(n), "--" + option, value]

    label = option + " length" if option in cli.LISTS else option
    text, params, _ = cli.CLASSES[command]
    monkeypatch.setitem(cli.CLASSES, command, (text, params, stub))
    for n, size in edges:
        with pytest.raises(Reached) as exc:
            cli.main(argv(n, size))
        assert exc.value.args == (n, size)
        assert run(argv(n, size + 1), capsys) == (
            2, "", "error: %s takes --%s in 1..%d at --n %d, got %d\n"
            % (command, label, size, n, size + 1))
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--%s %s 1..7; at most " % (option, option.upper()) + ", ".join(
        "%d at n = %d" % (size, n) for n, size in edges) in text


@pytest.mark.parametrize("command", ["orbit", "orbit-full"])
def test_orbit_k_range_by_n(command, capsys, monkeypatch):
    _class_size_edges(command, "k", ORBIT_K_EDGES, capsys, monkeypatch)


def test_conf_affine_k_range_by_n(capsys, monkeypatch):
    _class_size_edges("conf-affine", "k", AFFINE_K_EDGES, capsys,
                      monkeypatch)


def test_conf_proj_point_range_by_n(capsys, monkeypatch):
    _class_size_edges("conf-proj", "point", PROJ_POINT_EDGES, capsys,
                      monkeypatch)


# The largest order of `check s2` and `check s2-full` at each n, where it
# is below the 18 of n = 1 and 2, written out like RANGES.
S2_N_EDGES = [(3, 10), (4, 6), (5, 4), (6, 2)]


def _series_order_edges(name, edges, capsys, monkeypatch):
    """The largest N at each n reaches the runner, one more is refused
    before it runs, and --help names each of these edges."""
    def stub(args):
        raise Reached(args.n, args.N)

    monkeypatch.setitem(cli.CHECKS, name, (cli.CHECKS[name][0], stub))
    for n, N in edges:
        argv = ["check", "--name", name, "--n", str(n), "--N", str(N)]
        with pytest.raises(Reached) as exc:
            cli.main(argv)
        assert exc.value.args == (n, N)
        argv[-1] = str(N + 1)
        assert run(argv, capsys) == (
            2, "", "error: check %s takes --N in 1..%d at --n %d, got %d\n"
            % (name, N, n, N + 1))
    with pytest.raises(SystemExit):
        cli.main(["check", "--help"])
    rows = capsys.readouterr().out.splitlines()
    row = next(r for r in rows if r.split()[:1] == [name])
    assert "--N 3 (1..18; at most " + ", ".join(
        "%d at n = %d" % (N, n) for n, N in edges) + ")" in row


def test_s2_order_range_by_n(capsys, monkeypatch):
    _series_order_edges("s2", S2_N_EDGES, capsys, monkeypatch)


def test_s2_full_order_range_by_n(capsys, monkeypatch):
    _series_order_edges("s2-full", S2_N_EDGES, capsys, monkeypatch)


def test_recursion_admits_at_most_256_fixed_points(capsys, monkeypatch):
    # the k table by n admits exactly the sizes with n^k <= 256 fixed points
    # inside the shared ranges
    def stub(args):
        raise Reached(args.n, args.k)

    monkeypatch.setitem(cli.CHECKS, "recursion",
                        (cli.CHECKS["recursion"][0], stub))
    admitted = set()
    for n, k in product(range(1, 7), range(1, 8)):
        try:
            code = run(["check", "--name", "recursion", "--n", str(n),
                        "--k", str(k)], capsys)[0]
        except Reached:
            admitted.add((n, k))
        else:
            assert code == 2
    assert admitted == {(n, k) for n in range(1, 7) for k in range(1, 8)
                        if n ** k <= 256}


@pytest.mark.parametrize("argv,err", [
    (["check", "--name", "a-oracle", "--k", "0"],
     "error: check a-oracle takes --k in 1..6, got 0\n"),
    (["check", "--name", "s2", "--n", "0"],
     "error: check s2 takes --n in 1..6, got 0\n"),
    (["check", "--name", "bb-stability", "--n", "1"],
     "error: check bb-stability takes --n in 2..4, got 1\n"),
    (["check", "--name", "recursion", "--n", "2", "--k", "8"],
     "error: check recursion takes --k in 1..7, got 8\n"),
    (["check", "--name", "recursion", "--n", "5", "--k", "4"],
     "error: check recursion takes --k in 1..3 at --n 5, got 4\n"),
], ids=["a-oracle-k", "s2-n", "bb-stability-n", "recursion-k",
        "recursion-n-to-the-k"])
def test_range_error_names_the_range(argv, err, capsys):
    assert run(argv, capsys) == (2, "", err)


def test_help_states_every_range(capsys):
    def help_text(argv):
        with pytest.raises(SystemExit):
            cli.main(argv + ["--help"])
        return capsys.readouterr().out

    rows = help_text(["check"]).splitlines()
    for command, option, lo, hi in RANGES:
        if command in cli.CHECKS:
            row = next(r for r in rows if r.split()[:1] == [command])
            assert re.search(r"--%s \S+ \(%d\.\.%d[;)]" % (option, lo, hi), row)
        else:
            text = " ".join(help_text([command]).split())
            assert "--%s %s %d..%d" % (option, option.upper(), lo, hi) in text


def test_check_recursion_rejects_broken_product(capsys, monkeypatch):
    # the recursion is built on mc_conf_proj_at, so a check that compares
    # the two with each other passes a wrong product; the definition does not
    def doubled(t, e, _real=classes.mc_conf_proj_at):
        return 2 * _real(t, e)

    monkeypatch.setattr(classes, "mc_conf_proj_at", doubled)
    monkeypatch.setattr(cli, "mc_conf_proj_at", doubled)
    code, out, _ = run(["check", "--name", "recursion", "--n", "3",
                        "--k", "3"], capsys)
    assert code == 1
    assert out.strip().splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("argv", [
    ["check", "--name", "s2", "--n", "9", "--N", "2"],
    ["check", "--name", "residue", "--alphas", "1/0"],
    ["conf-affine", "--n", "-1", "--k", "2"],
    ["conf-proj", "--n", "2", "--point", ""],
    ["check", "--name", "s1", "--N", "19"],
    ["check", "--name", "s3-point", "--N", "19"],
    ["orbit", "--n", "2", "--k", "0"],
    ["check", "--name", "recursion", "--k", "0"],
    ["check", "--name", "recursion", "--n", "5", "--k", "4"],
    ["check", "--name", "recursion", "--n", "2", "--k", "8"],
    ["check", "--name", "bb-stability", "--k", "0"],
    ["check", "--name", "szeregi", "--N", "0"],
    ["check", "--name", "s1", "--N", "0"],
    ["check", "--name", "s2", "--N", "0"],
    ["check", "--name", "s3-point", "--N", "0"],
    ["check", "--name", "residue", "--N", "0"],
    ["check", "--name", "residue", "--N", "-2"],
    ["check", "--name", "limits-props", "--count", "0"],
    ["check", "--name", "limits-props", "--count", "-3"],
    ["check", "--name", "limits-props", "--count", "10001"],
    ["check", "--name", "szeregi", "--n", "4"],
    ["check", "--name", "a-oracle", "--N", "3"],
    ["check", "--name", "s2", "--k", "2"],
    ["check", "--name", "recursion", "--alphas", "2,3"],
    ["check", "--name", "residue", "--seed", "1"],
    ["check", "--name", "bb-stability", "--count", "5"],
    ["check", "--name", "limits-props", "--n", "2"],
], ids=["cap", "alphas-zero-denominator", "negative-n", "empty-point",
        "s1-order-cap", "s3-point-order-cap", "orbit-k-zero",
        "recursion-k-zero", "recursion-cap", "recursion-k-cap",
        "bb-stability-k-zero", "szeregi-order-zero",
        "s1-order-zero", "s2-order-zero", "s3-point-order-zero",
        "residue-order-zero", "residue-order-negative",
        "limits-props-count-zero", "limits-props-count-negative",
        "limits-props-count-cap", "szeregi-unused-n", "a-oracle-unused-N",
        "s2-unused-k", "recursion-unused-alphas", "residue-unused-seed",
        "bb-stability-unused-count", "limits-props-unused-n"])
def test_usage_error_exit_2(argv, capsys):
    # malformed input or a cap violation: exit code 2, a message on stderr
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# The highest numerator and denominator of a `check residue` pole, 20
# digits, written out like RANGES, and the refusal one digit above.
TOP = 10 ** 20 - 1
HIGH = "error: check residue takes --alphas numerators and denominators " \
    "of at most 20 digits\n"


@pytest.mark.parametrize("argv,err", [
    (["check", "--name", "residue", "--alphas", "2,2"],
     "error: alphas must be distinct and differ from 0 and 1\n"),
    (["check", "--name", "residue", "--alphas=-2,1"],
     "error: alphas must be distinct and differ from 0 and 1\n"),
    (["check", "--name", "recursion", "--n", "3", "--k", "6"],
     "error: check recursion takes --k in 1..5 at --n 3, got 6\n"),
    (["conf-proj", "--n", "2", "--point", "1,3"],
     "error: fixed point index out of range\n"),
    (["conf-proj", "--n", "2", "--point", "0,1"],
     "error: a fixed point is a nonempty tuple of 1-based indices\n"),
    (["check", "--name", "residue", "--alphas", "2,%d" % (TOP + 1)], HIGH),
    (["check", "--name", "residue", "--alphas=-%d/7" % (TOP + 1)], HIGH),
    (["check", "--name", "residue", "--alphas", "2,1/%d" % (TOP + 1)], HIGH),
    # an exponent could name a number too large to build
    (["check", "--name", "residue", "--alphas", "1e999"],
     "error: --alphas expects comma-separated values, got '1e999'\n"),
], ids=["residue-repeated-pole", "residue-pole-at-1", "recursion-cap",
        "point-index", "point-zero", "residue-numerator-height",
        "residue-negative-numerator-height", "residue-denominator-height",
        "residue-exponent"])
def test_domain_refusals_precede_the_run(argv, err, capsys, monkeypatch):
    # _admit refuses these before any runner is called
    def stub(args):
        raise AssertionError("reached the library")

    _stub_runners(monkeypatch, stub)
    assert run(argv, capsys) == (2, "", err)


def test_residue_poles_of_the_highest_height_reach_the_runner(monkeypatch):
    def stub(args):
        raise Reached(args.alphas)

    monkeypatch.setitem(cli.CHECKS, "residue",
                        (cli.CHECKS["residue"][0], stub))
    edge = [Fraction(TOP), Fraction(-TOP, TOP - 1), Fraction(1, TOP)]
    with pytest.raises(Reached) as exc:
        cli.main(["check", "--name", "residue",
                  "--alphas", ",".join(map(str, edge))])
    assert exc.value.args[0] == edge


def test_a_table_by_n_follows_n():
    # _admit reads a table of highest values by n at --n, which it holds to
    # its range first, so every row with such a table lists n first
    rows = [params for _, params, _ in cli.CLASSES.values()] \
        + [params for params, _ in cli.CHECKS.values()]
    tables = [params for params in rows
              if any(isinstance(hi, dict) for _, _, hi in params.values())]
    assert len(tables) == 7
    for params in tables:
        assert list(params)[0] == "n"


@pytest.mark.parametrize("exc,text", [
    (ValueError("bad\nvalue"), "bad value"), (KeyError("x0"), "'x0'"),
    (ZeroDivisionError("pole"), "pole"), (MemoryError(), "out of memory"),
    (ValueError(), "no message"),
], ids=["ValueError", "KeyError", "ZeroDivisionError", "MemoryError",
        "ValueError-no-text"])
@pytest.mark.parametrize("argv", [["orbit", "--n", "2", "--k", "2"],
                                  ["check", "--name", "szeregi", "--N", "3"]],
                         ids=["class", "check"])
def test_library_fault_exit_3(argv, exc, text, capsys, monkeypatch):
    # a library exception on admitted input is a fault: exit 3 and one
    # error line, not the usage code 2 and not a traceback
    def broken(*args):
        raise exc

    monkeypatch.setattr(cli, "mc_orbit_conf", broken)
    monkeypatch.setattr(cli, "check_partition_exp_identity", broken)
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    # an exception with no text, such as a MemoryError, gets a fixed one
    assert err == "error: library fault, %s: %s\n" % (type(exc).__name__,
                                                       text)


def test_unused_check_parameter_is_named(capsys):
    code, out, err = run(["check", "--name", "szeregi", "--N", "3",
                          "--n", "4"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: check szeregi does not take --n\n"


def test_output_accepted_by_every_check(capsys, monkeypatch):
    for name, (defaults, _) in cli.CHECKS.items():
        monkeypatch.setitem(cli.CHECKS, name, (defaults, lambda args: True))
        code, _, err = run(["check", "--name", name, "--output", "json"],
                           capsys)
        assert (code, err) == (0, "")


def test_check_prints_text_whatever_output_says(capsys):
    for output in ("text", "json"):
        assert run(["check", "--name", "s1", "--N", "2", "--output", output],
                   capsys) == (0, "PASS\n", "")
    with pytest.raises(SystemExit):
        cli.main(["check", "--help"])
    assert "--output {text,json} accepted; a check prints text whatever it " \
        "says" in " ".join(capsys.readouterr().out.split())


def test_unknown_check_name_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["check", "--name", "bogus"], capsys)
    assert exc.value.code == 2


def test_check_failure_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_partition_exp_identity", lambda N: False)
    code, out, _ = run(["check", "--name", "szeregi", "--N", "2"], capsys)
    assert code == 1
    assert out.strip().splitlines()[-1] == "FAIL"
