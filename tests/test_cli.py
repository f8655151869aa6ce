import contextlib
import dataclasses
import io

import pytest
from hypothesis import given, settings, strategies as st

from profmatch import (
    Criterion,
    Matching,
    Profile,
    batch_stats,
    blocking_pair,
    format_instance,
    generate_uniform,
    parse_instance,
    preprocess,
    woman_optimal,
)
from profmatch.cli import main

from helpers import I0_MAN_OPTIMAL, I0_RANK_MAXIMAL, I0_TEXT, count_calls


@pytest.fixture()
def i0_file(tmp_path):
    path = tmp_path / "i0.txt"
    path.write_text(I0_TEXT)
    return str(path)


def _pairs_from(lines):
    return [tuple(int(x) for x in line.split()) for line in lines if line]


def test_solve_rank_maximal(i0_file, capsys):
    assert main(["solve", "--in", i0_file, "--criterion", "rank-maximal"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[-1] == "profile: 6,3,2,1,1,0,1,2"
    assert _pairs_from(out[:-1]) == list(I0_RANK_MAXIMAL)


def test_solve_man_optimal(i0_file, capsys):
    assert main(["solve", "--in", i0_file, "--criterion", "man-optimal"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert _pairs_from(out[:-1]) == list(I0_MAN_OPTIMAL)


def test_solve_output_restable(i0_file, capsys):
    for criterion in ("generous", "median", "egalitarian", "sex-equal", "min-regret"):
        assert main(["solve", "--in", i0_file, "--criterion", criterion]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        matching = Matching(_pairs_from(out[:-1]))
        inst = preprocess(parse_instance(I0_TEXT))
        assert blocking_pair(inst, matching) is None


def test_solve_invalid_criterion(i0_file, capsys):
    assert main(["solve", "--in", i0_file, "--criterion", "fairest"]) == 2
    assert "usage" in capsys.readouterr().err


def test_solve_missing_file(capsys):
    assert main(["solve", "--in", "/nonexistent/x.txt", "--criterion", "generous"]) == 2
    assert capsys.readouterr().err


def _one_line_error(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_solve_directory_as_input(tmp_path, capsys):
    assert main(["solve", "--in", str(tmp_path), "--criterion", "generous"]) == 2
    assert _one_line_error(capsys.readouterr().err)


def test_solve_non_ascii_input(tmp_path, capsys):
    path = tmp_path / "accent.txt"
    path.write_bytes("1 1\n1\n1 \u00e9\n".encode("utf-8"))
    assert main(["solve", "--in", str(path), "--criterion", "generous"]) == 2
    assert _one_line_error(capsys.readouterr().err)


def test_solve_directory_as_output(i0_file, tmp_path, capsys):
    args = ["solve", "--in", i0_file, "--criterion", "generous", "--out", str(tmp_path)]
    assert main(args) == 2
    assert _one_line_error(capsys.readouterr().err)


def test_solve_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2\n1\n")
    assert main(["solve", "--in", str(bad), "--criterion", "generous"]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_deterministic(i0_file, capsys):
    main(["solve", "--in", i0_file, "--criterion", "generous"])
    first = capsys.readouterr().out
    main(["solve", "--in", i0_file, "--criterion", "generous"])
    assert capsys.readouterr().out == first


def test_enumerate(i0_file, capsys):
    assert main(["enumerate", "--in", i0_file]) == 0
    out = capsys.readouterr().out
    blocks = out.strip().split("\n\n")
    assert blocks[0] == "8"
    assert len(blocks) == 9
    first = Matching(_pairs_from(blocks[1].split("\n")))
    assert first == Matching(I0_MAN_OPTIMAL)


def test_enumerate_cap_exit(i0_file, capsys):
    assert main(["enumerate", "--in", i0_file, "--cap", "4"]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["enumerate", "stats"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cap_below_one_is_a_usage_error(i0_file, capsys, verb, cap):
    assert main([verb, "--in", i0_file, "--cap", cap]) == 2
    assert _one_line_error(capsys.readouterr().err)


def test_solve_cap_exit_for_enumeration_backed(i0_file, capsys, monkeypatch):
    monkeypatch.setattr("profmatch.cli.DEFAULT_ENUMERATION_CAP", 4)
    assert main(["solve", "--in", i0_file, "--criterion", "median"]) == 3
    capsys.readouterr()
    assert main(["solve", "--in", i0_file, "--criterion", "sex-equal"]) == 3
    capsys.readouterr()
    # Flow-backed criteria and minimum regret never enumerate, so the cap
    # is irrelevant there.
    assert main(["solve", "--in", i0_file, "--criterion", "rank-maximal"]) == 0
    capsys.readouterr()
    assert main(["solve", "--in", i0_file, "--criterion", "egalitarian"]) == 0
    capsys.readouterr()
    assert main(["solve", "--in", i0_file, "--criterion", "min-regret"]) == 0
    capsys.readouterr()


def test_solve_output_stable_in_original_after_preprocessing(tmp_path, capsys):
    # Man 2's list dies at parse; man 3 exists only through woman 2.
    path = tmp_path / "shrink.txt"
    path.write_text("3 2\n1\n\n2\n1 3\n3\n")
    assert main(["solve", "--in", str(path), "--criterion", "rank-maximal"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    matching = Matching(_pairs_from(out[:-1]))
    original = parse_instance(path.read_text())
    assert {m for m, _ in matching} <= {1, 3}  # original indices
    assert blocking_pair(original, matching) is None


def test_enumerate_unique(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("1 1\n1\n1\n")
    assert main(["enumerate", "--in", str(path)]) == 0
    assert capsys.readouterr().out.startswith("1\n")


def test_generate_deterministic_and_valid(tmp_path, capsys):
    args = ["generate", "--men", "6", "--women", "6", "--density", "0.7", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    inst = parse_instance(first)
    assert inst.n_men == 6

    out_path = tmp_path / "gen.txt"
    assert main(args + ["--out", str(out_path)]) == 0
    assert out_path.read_text() == first


def test_generate_rejects_zero_agents(capsys):
    assert main(["generate", "--men", "0", "--women", "3", "--seed", "1"]) == 2
    assert "at least 1" in capsys.readouterr().err


def test_generate_rejects_bad_density(capsys):
    assert main(["generate", "--men", "2", "--women", "2", "--density", "0", "--seed", "1"]) == 2
    capsys.readouterr()


def test_unknown_flag_rejected(i0_file, capsys):
    assert main(["solve", "--in", i0_file, "--criterion", "generous", "--frobnicate"]) == 2
    capsys.readouterr()


def test_space_report_i1(capsys):
    assert main(["space-report", "--i1", "100000"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "rotation,exponential_bits,vector_bits"
    total = out[-1].split(",")
    assert total[0] == "total"
    assert int(total[1]) > 8 * 10**10
    assert int(total[2]) < 6 * 10**6


def test_space_alias_and_instance_input(i0_file, capsys):
    assert main(["space", "--in", i0_file]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 7  # header + 5 rotations + total


def test_space_flag_validation(i0_file, capsys):
    assert main(["space-report"]) == 2
    capsys.readouterr()
    assert main(["space-report", "--in", i0_file, "--i1", "4"]) == 2
    capsys.readouterr()
    assert main(["space-report", "--i1", "5"]) == 2
    capsys.readouterr()


def test_stats_csv(i0_file, capsys):
    assert main(["stats", "--in", i0_file, "--criteria", "rank-maximal,generous"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 3
    assert out[1].split(",")[1] == "rank-maximal"


def test_stats_rejects_unknown_criterion(i0_file, capsys):
    assert main(["stats", "--in", i0_file, "--criteria", "bogus"]) == 2
    capsys.readouterr()


def test_oracle_check_passes(capsys):
    assert main(["oracle-check", "--n", "5", "--trials", "6", "--seed", "7"]) == 0
    assert "agreed" in capsys.readouterr().out


def test_oracle_check_compares_closed_subsets(monkeypatch, capsys):
    # A vector closed subset missing one rotation, in the solve's own
    # flow, must be reported, even though the flow values still agree.
    from profmatch import solvers

    real = solvers.max_profile_closed_subset

    def drop_one(net, digraph, cut):
        subset = real(net, digraph, cut)
        return subset - {max(subset)} if subset else subset

    monkeypatch.setattr(solvers, "max_profile_closed_subset", drop_one)
    assert main(["oracle-check", "--n", "8", "--trials", "6", "--seed", "7"]) == 1
    err = capsys.readouterr().err
    assert "vector closed subset disagrees with exponential-weight oracle" in err


def test_oracle_check_compares_egalitarian_matchings(monkeypatch, capsys):
    # An egalitarian weight without the rotation-count entry still finds a
    # least-cost matching, but not always the first enumerated one; with
    # this seed, trial 30 is the first where the two differ.
    from profmatch import solvers

    def cost_only(change):
        dm, dw = change
        return Profile([-(dm + dw)])

    monkeypatch.setattr(solvers, "_egalitarian_weight", cost_only)
    assert main(["oracle-check", "--n", "8", "--trials", "40", "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert "egalitarian matching differs from first enumerated minimum-cost matching" in err


def test_oracle_check_compares_min_regret_matchings(monkeypatch, capsys):
    # The man-optimal matching is stable but not always of the minimum
    # degree; the first minimum-degree matching of the enumeration judges it.
    from profmatch import solvers

    real = solvers._Lattice.solve

    def man_optimal_for_min_regret(lattice, criterion):
        if criterion is Criterion.MIN_REGRET:
            return lattice.full.man_optimal
        return real(lattice, criterion)

    monkeypatch.setattr(solvers._Lattice, "solve", man_optimal_for_min_regret)
    assert main(["oracle-check", "--n", "8", "--trials", "40", "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert "min-regret matching differs from first enumerated minimum-degree matching" in err


@pytest.mark.parametrize(
    "criterion, message",
    [
        (
            Criterion.SEX_EQUAL,
            "sex-equal matching differs from first enumerated most balanced matching",
        ),
        (Criterion.MEDIAN, "median matching differs from median assembled over the enumeration"),
    ],
)
def test_oracle_check_compares_walked_matchings(monkeypatch, capsys, criterion, message):
    # The man-optimal matching is stable but not always the sex-equal or the
    # median one; the selectors over the enumeration judge the walks.
    from profmatch import solvers

    name = "_sex_equal" if criterion is Criterion.SEX_EQUAL else "_median"
    monkeypatch.setattr(solvers, name, lambda poset, walk: poset.man_optimal)
    assert main(["oracle-check", "--n", "8", "--trials", "40", "--seed", "3"]) == 1
    assert message in capsys.readouterr().err


def test_oracle_check_compares_generous_closed_subsets(monkeypatch, capsys):
    # A fault in the generous network alone is reported under its own
    # message: here the oracle returns the wrong closed subset in generous
    # mode only.  Three of these six trials have generous rotations.
    from profmatch import cli

    real = cli.oracle_exponential_flow

    def faulty(rotations, digraph, n, window=None):
        value, subset = real(rotations, digraph, n, window)
        if window is not None:
            subset = frozenset(range(len(rotations))) - subset
        return value, subset

    monkeypatch.setattr(cli, "oracle_exponential_flow", faulty)
    assert main(["oracle-check", "--n", "8", "--trials", "6", "--seed", "7"]) == 1
    err = capsys.readouterr().err
    assert "trial 0: generous vector closed subset disagrees with exponential-weight oracle" in err


def _one_unit_off(cut):
    return dataclasses.replace(cut, capacity=cut.capacity + Profile([1]))


def _oracle_check_failure(capsys, trials=6, seed=7):
    assert main(["oracle-check", "--n", "8", "--trials", str(trials), "--seed", str(seed)]) == 1
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "criterion, fault, message",
    [
        # The rank-maximal flow chose rightly, but the woman-optimal
        # matching is answered: the enumeration's best profile judges it.
        (Criterion.RANK_MAXIMAL,
         lambda poset, matching, witness: (woman_optimal(poset.inst), witness),
         "rank-maximal profile differs from enumeration maximum"),
        (Criterion.GENEROUS,
         lambda poset, matching, witness: (
             matching, (witness[0], _one_unit_off(witness[1]), witness[2])),
         "generous min-cut capacity differs from max-flow value"),
        # The generous poset's man-optimal matching has the minimum-regret
        # degree but not always the least reverse profile.
        (Criterion.GENEROUS,
         lambda poset, matching, witness: (poset.man_optimal, witness),
         "generous reverse profile differs from enumeration minimum"),
    ],
)
def test_oracle_check_judges_flow_solutions(monkeypatch, capsys, criterion, fault, message):
    # One fault in what oracle-check's flow solve of ``criterion`` hands
    # back is reported in the first trial under its own message.
    from profmatch import cli

    real = cli._flow_solution

    def solution(poset, asked):
        matching, witness = real(poset, asked)
        if asked is criterion:
            return fault(poset, matching, witness)
        return matching, witness

    monkeypatch.setattr(cli, "_flow_solution", solution)
    assert f"trial 0: {message}" in _oracle_check_failure(capsys)


def test_oracle_check_compares_cut_capacity_with_flow_value(monkeypatch, capsys):
    # A min cut one unit off its flow is caught in the first flow judged.
    from profmatch import solvers

    real = solvers.min_cut
    monkeypatch.setattr(solvers, "min_cut", lambda net, flow: _one_unit_off(real(net, flow)))
    err = _oracle_check_failure(capsys)
    assert "trial 0: min-cut capacity differs from max-flow value" in err


def test_oracle_check_compares_flow_value_with_oracle(monkeypatch, capsys):
    # An exponential-weight value one off the vector flow's is reported.
    from profmatch import cli

    real = cli.oracle_exponential_flow

    def one_off(rotations, digraph, n, window=None):
        value, subset = real(rotations, digraph, n, window)
        return value + 1, subset

    monkeypatch.setattr(cli, "oracle_exponential_flow", one_off)
    err = _oracle_check_failure(capsys)
    assert "trial 0: vector max-flow value disagrees with exponential-weight oracle" in err


def test_oracle_check_compares_generous_degree(monkeypatch, capsys):
    # No wrong answer reaches this check: a matching's degree follows from
    # its profile, so the reverse-profile check before it catches a wrong
    # generous answer, and the min-regret check a wrong minimum-degree
    # witness.  A degree that reads the women's ranks only, in the check
    # itself, does: with this seed trial 10 is the first it misjudges.
    from profmatch import cli

    def women_degree(inst, matching):
        return max((inst.women_rank[w][m] for m, w in matching), default=0)

    monkeypatch.setattr(cli, "matching_degree", women_degree)
    err = _oracle_check_failure(capsys, trials=40, seed=3)
    assert "trial 10: generous degree differs from minimum-regret degree" in err


@pytest.mark.parametrize("consumer", ["stats", "oracle-check"])
def test_each_poset_is_built_once_per_instance(monkeypatch, consumer):
    # One full poset, one walk over it and one generous poset per instance,
    # shared by every criterion and, in oracle-check, by the enumeration
    # and both flow cross-checks.  One vector flow per flow-backed criterion
    # (rank-maximal, egalitarian, generous): oracle-check judges the flows
    # the solves ran, and the scalar oracle runs on each of two posets.
    # Each rotation's profile is built once, though in oracle-check both the
    # flow and the scalar oracle read it, and each full-poset rotation's
    # rank change once, though egalitarian and sex-equal both read it.
    from profmatch.cli import _agreement_failure
    from profmatch.solvers import _Lattice

    raw = generate_uniform(40, 40, 1.0, seed=3)
    pre = preprocess(raw)
    lattice = _Lattice(pre)
    full = len(lattice.full.rotations)
    rotations = full + len(lattice.generous.rotations)
    counts = count_calls(monkeypatch)
    if consumer == "stats":
        batch_stats([("u", raw)], list(Criterion))
    else:
        assert _agreement_failure(pre) is None
    assert counts["_rotations_from"] == counts["build_digraph"] == 2
    assert counts["_min_regret_run"] == counts["_closed_subsets"] == 1
    # One deferred-acceptance run, which both posets continue; stats also
    # preprocesses, which runs one from each side, and finds the
    # woman-optimal matching.
    assert counts["DeferredAcceptance"] == (4 if consumer == "stats" else 1)
    assert counts["max_vb_flow"] == 3
    assert counts["oracle_exponential_flow"] == (2 if consumer == "oracle-check" else 0)
    assert counts["_cycle_profile"] == rotations
    assert counts["_rank_change"] == full == 7


def test_stats_builds_generous_poset_only_when_read(tmp_path, monkeypatch, capsys):
    # Neither rank-maximal nor median reads the generous poset, so no
    # minimum-regret descent runs, and the rows are those of a run that
    # builds it.
    path = tmp_path / "u.txt"
    path.write_text(format_instance(generate_uniform(40, 40, 1.0, seed=3)))
    assert main(["stats", "--in", str(path)]) == 0
    every = capsys.readouterr().out.strip().split("\n")
    counts = count_calls(monkeypatch)
    assert main(["stats", "--in", str(path), "--criteria", "rank-maximal,median"]) == 0
    assert counts["_min_regret_run"] == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == [every[0]] + [row for row in every[1:]
                                  if row.split(",")[1] in ("rank-maximal", "median")]


def test_stats_under_cap_walks_once_and_marks_timeout(tmp_path, monkeypatch, capsys):
    # Below the stable-matching count, one walk stops at the cap: the count
    # column and the sex-equal and median rows read TIMEOUT, and every other
    # row is the one an uncapped run writes.
    path = tmp_path / "u.txt"
    path.write_text(format_instance(generate_uniform(40, 40, 1.0, seed=3)))
    assert main(["stats", "--in", str(path)]) == 0
    uncapped = [row.split(",") for row in capsys.readouterr().out.strip().split("\n")]
    assert int(uncapped[1][5]) > 2
    counts = count_calls(monkeypatch)
    assert main(["stats", "--in", str(path), "--cap", "2"]) == 0
    assert counts["_closed_subsets"] == 1
    expected = [uncapped[0]]
    for row in uncapped[1:]:
        if row[1] in ("sex-equal", "median"):
            row = row[:5] + ["TIMEOUT"] * (len(row) - 5)
        else:
            row = row[:5] + ["TIMEOUT"] + row[6:]
        expected.append(row)
    assert [row.split(",") for row in capsys.readouterr().out.strip().split("\n")] == expected


def test_oracle_check_flag_validation(capsys):
    assert main(["oracle-check", "--n", "0", "--trials", "5", "--seed", "1"]) == 2
    capsys.readouterr()


def test_warnings_go_to_stderr(tmp_path, capsys):
    path = tmp_path / "nm.txt"
    path.write_text("2 1\n1\n1\n1\n")
    assert main(["solve", "--in", str(path), "--criterion", "man-optimal"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "1 1" in captured.out


def test_degenerate_instance_all_commands(tmp_path, capsys):
    # Mutual filtering empties both lists; preprocessing removes everyone.
    path = tmp_path / "empty.txt"
    path.write_text("1 1\n\n\n")
    assert main(["solve", "--in", str(path), "--criterion", "rank-maximal"]) == 0
    assert capsys.readouterr().out == "profile: 0\n"
    assert main(["enumerate", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "1\n\n\n"
    assert main(["stats", "--in", str(path), "--criteria", "generous"]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert row[2] == "0" and row[5] == "1"  # n = 0, one (empty) stable matching
    assert main(["space-report", "--in", str(path)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[-1] == "total,0,64"


def test_solve_out_file(i0_file, tmp_path, capsys):
    out_path = tmp_path / "m.txt"
    assert main(["solve", "--in", i0_file, "--criterion", "woman-optimal", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text().strip().split("\n")[-1].startswith("profile:")


CRITERIA = [c.value for c in Criterion]


def _solve_file(path, data: bytes, criterion: str) -> None:
    """Any input file ends in exit 0, 2 or 3, never in an exception or traceback."""
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", "--in", str(path), "--criterion", criterion])
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=200), criterion=st.sampled_from(CRITERIA))
def test_fuzz_solve_raw_bytes(tmp_path_factory, data, criterion):
    _solve_file(tmp_path_factory.mktemp("fuzz") / "in.txt", data, criterion)


@st.composite
def near_valid_instance(draw):
    """Instance text for n <= 6 whose entries may be out of range, repeated or one-sided."""
    n_men, n_women = draw(st.integers(0, 6)), draw(st.integers(0, 6))

    def lists(count, n_other):
        if draw(st.booleans()):
            entry = st.integers(-1, n_other + 2)
            return [draw(st.lists(entry, max_size=n_other + 1)) for _ in range(count)]
        perms = st.permutations(range(1, n_other + 1))
        return [draw(perms)[: draw(st.integers(0, n_other))] for _ in range(count)]

    lines = [f"{n_men} {n_women}"]
    lines += [" ".join(map(str, lst)) for lst in lists(n_men, n_women)]
    lines += [" ".join(map(str, lst)) for lst in lists(n_women, n_men)]
    return "\n".join(lines) + "\n" * draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(text=near_valid_instance(), criterion=st.sampled_from(CRITERIA))
def test_fuzz_solve_near_valid_text(tmp_path_factory, text, criterion):
    _solve_file(tmp_path_factory.mktemp("fuzz") / "in.txt", text.encode("ascii"), criterion)
