import random
import re
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from geomfo import checker, cli, fileio, interpret
from geomfo.cli import main
from geomfo.formula import POSET, print_formula
from geomfo.generators import MAX_WITNESS_ORDER, terfan_polygon
from geomfo.geometry import (Arc, Box, Chord, Disk, Interval, LabeledGraph, PermSegment,
                             Polygon, Representation)
from geomfo.poset import LabeledPoset, PosetError

from helpers import path_sentence, rand_arcs, rand_boxes, rand_chords, rand_disks, rand_fan, \
    rand_intervals, rand_segments, with_broken_interval_psi


def test_fileio_representation_idempotent():
    for seed in (33, 34, 35):
        rng = random.Random(seed)
        for n in (0, 1, 2, 6, 13):
            for mk in (rand_intervals, rand_arcs, rand_chords, rand_segments, rand_boxes,
                       rand_disks):
                rep = mk(rng, n)
                text = fileio.write_representation(rep)
                again = fileio.read_representation(text)
                assert again == rep
                assert fileio.write_representation(again) == text
        for n in (3, 7, 12):
            rep = Representation("visibility", (rand_fan(rng, n),))
            text = fileio.write_representation(rep)
            assert fileio.read_representation(text) == rep
            assert fileio.write_representation(fileio.read_representation(text)) == text


# README's File formats examples, with more objects whose coordinates are
# all distinct, so each coordinate's place in the line is pinned
FORMAT_EXAMPLES = {
    "interval": ("interval 1 3/2\ninterval 2 4\n",
                 [Interval(1, Fr(3, 2)), Interval(2, 4)]),
    "circular_arc": ("arc 7/8 1/8\narc 1/3 1/2\n",
                     [Arc(Fr(7, 8), Fr(1, 8)), Arc(Fr(1, 3), Fr(1, 2))]),
    "circle": ("chord 0 1/3\nchord 1/4 3/4\nchord 2/3 1/6\n",
               [Chord(0, Fr(1, 3)), Chord(Fr(1, 4), Fr(3, 4)), Chord(Fr(2, 3), Fr(1, 6))]),
    "permutation": ("perm 1 5/2\nperm 3 -1\n", [PermSegment(1, Fr(5, 2)), PermSegment(3, -1)]),
    "box": ("box 0 1 0 1\nbox -1 1/2 2 7/3\n",
            [Box(Interval(0, 1), Interval(0, 1)),
             Box(Interval(-1, Fr(1, 2)), Interval(2, Fr(7, 3)))]),
    "unit_disk": ("disk 1/2 0\ndisk -3 5/4\n", [Disk(Fr(1, 2), 0), Disk(-3, Fr(5, 4))]),
    "visibility": ("polygon\npt 0 0\npt 1 2\npt 3 0\n",
                   [Polygon(((0, 0), (1, 2), (3, 0)))]),
}


@pytest.mark.parametrize("cls", list(FORMAT_EXAMPLES))
def test_fileio_representation_format_per_class(cls):
    body, objects = FORMAT_EXAMPLES[cls]
    text = f"class {cls}\n{body}"
    rep = fileio.read_representation(text)
    assert rep == Representation(cls, tuple(objects))
    assert fileio.write_representation(rep) == text
    if cls == "visibility":
        return
    line = body.split("\n", 1)[0]
    for bad in (line + " 0", line.rsplit(" ", 1)[0]):  # one field too many, one too few
        with pytest.raises(fileio.FileFormatError,
                           match=f"^bad object line for class {cls}: {re.escape(bad)}$"):
            fileio.read_representation(f"class {cls}\n{bad}\n")
    for other, (other_body, _) in FORMAT_EXAMPLES.items():
        if other not in (cls, "visibility"):
            foreign = other_body.split("\n", 1)[0]
            with pytest.raises(fileio.FileFormatError,
                               match=f"^bad object line for class {cls}: {re.escape(foreign)}$"):
                fileio.read_representation(f"class {cls}\n{foreign}\n")
    stranger = "interval 0 1"
    with pytest.raises(fileio.FileFormatError, match=r"^cannot serialize 'interval 0 1'$"):
        fileio.write_representation(Representation(cls, tuple(objects) + (stranger,)))


def test_fileio_writes_only_its_own_class_objects():
    with pytest.raises(fileio.FileFormatError, match=r"^cannot serialize Arc\("):
        fileio.write_representation(Representation("interval", (Arc(Fr(1, 8), Fr(1, 4)),)))


def test_visibility_files_hold_one_polygon(tmp_path, capsys):
    one = "polygon\npt 0 0\npt 1 2\npt 3 0\n"
    path = tmp_path / "two.rep"
    path.write_text("class visibility\n" + one + one)
    only_one = "^a visibility representation holds one polygon$"
    with pytest.raises(fileio.FileFormatError, match=only_one):
        fileio.read_representation(path.read_text())
    poly = fileio.read_representation("class visibility\n" + one).objects[0]
    with pytest.raises(fileio.FileFormatError, match=only_one):
        fileio.write_representation(Representation("visibility", (poly, poly)))
    for command in (["interpret", "--out-poset", str(tmp_path / "p"),
                     "--out-interp", str(tmp_path / "i")],
                    ["graph"], ["check", "--formula", "exists x. x=x"]):
        assert main(command + ["--class", "visibility", "--in", str(path)]) == 2
        assert "holds one polygon" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_visibility_files_put_the_polygon_line_first():
    msg = "^visibility representation needs a polygon line first$"
    for body in ("pt 0 0\npt 1 2\npolygon\npt 3 0\n", "pt 0 0\npt 1 2\npt 3 0\n", ""):
        with pytest.raises(fileio.FileFormatError, match=msg):
            fileio.read_representation("class visibility\n" + body)


def test_fileio_comments_and_errors():
    text = "# a comment\nclass interval\ninterval 1/2 3/2  # trailing\n"
    rep = fileio.read_representation(text)
    assert rep.objects[0] == Interval(Fr(1, 2), Fr(3, 2))
    with pytest.raises(fileio.FileFormatError):
        fileio.read_representation("interval 1 2\n")
    with pytest.raises(fileio.FileFormatError):
        fileio.read_representation("class interval\nbox 0 1 0 1\n")


def test_fileio_poset_graph_idempotent():
    p = LabeledPoset(4, {(0, 1), (0, 2), (0, 3), (1, 3)}, {"D": {0, 1}})
    text = fileio.write_poset(p)
    q = fileio.read_poset(text)
    assert q.n == p.n and q.pairs() == p.pairs() and q.labels == p.labels
    assert fileio.write_poset(q) == text
    g = LabeledGraph(4, {(0, 1), (2, 3)}, {"blue": {0}})
    text = fileio.write_graph(g)
    assert fileio.read_graph(text) == g


def _write_interval_rep(tmp_path):
    rep = tmp_path / "rep.txt"
    rep.write_text("class interval\ninterval 1 3\ninterval 2 4\n")
    return str(rep)


def test_cli_check_verdicts(tmp_path, capsys):
    rep = _write_interval_rep(tmp_path)
    code = main(["check", "--class", "interval", "--in", rep,
                 "--formula", "exists x. exists y. edge(x,y)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "graph_verdict True" in out and "poset_verdict True" in out
    code = main(["check", "--class", "interval", "--in", rep,
                 "--formula", "forall x. forall y. edge(x,y)"])
    assert code == 1


def test_cli_check_error_exit(tmp_path, capsys):
    rep = _write_interval_rep(tmp_path)
    assert main(["check", "--class", "interval", "--in", rep,
                 "--formula", "exists x. edge(x,"]) == 2
    assert main(["check", "--class", "circle", "--in", rep,
                 "--formula", "exists x. x=x"]) == 2


def test_cli_check_emit(tmp_path, capsys):
    rep = _write_interval_rep(tmp_path)
    out = tmp_path / "poset.txt"
    assert main(["check", "--class", "interval", "--in", rep,
                 "--formula", "exists x. x=x", "--emit", "poset",
                 "--emit-out", str(out)]) == 0
    p = fileio.read_poset(out.read_text())
    assert p.n == 6 and p.labels["D"]
    # on stdout, the emitted text comes first and the two verdict lines follow
    built = fileio.read_representation(Path(rep).read_text())
    inst = interpret.make_instance("interval", built)
    verdicts = "graph_verdict True\nposet_verdict True\n"
    for emit in ("graph", "interp"):
        capsys.readouterr()
        assert main(["check", "--class", "interval", "--in", rep,
                     "--formula", "exists x. exists y. edge(x,y)", "--emit", emit]) == 0
        text = capsys.readouterr().out
        assert text.endswith(verdicts)
        emitted = text[:-len(verdicts)]
        if emit == "graph":
            assert fileio.read_graph(emitted) == checker.build_graph("interval", built)
        else:
            read = fileio.read_interpretation_formulas(emitted, POSET)
            assert list(map(print_formula, read)) == [print_formula(inst.interp.nu),
                                                      print_formula(inst.interp.psi)]


def test_read_interpretation_formulas_errors():
    with pytest.raises(fileio.FileFormatError, match=r"^bad interpretation line: rho x<=y$"):
        fileio.read_interpretation_formulas("nu !D(x)\nrho x<=y\n", POSET)
    with pytest.raises(fileio.FileFormatError,
                       match=r"^interpretation file needs both nu and psi$"):
        fileio.read_interpretation_formulas("nu !D(x)\n# psi x<=y\n", POSET)


@pytest.mark.parametrize("error, message", [(RecursionError, "input nested too deeply to process"),
                                            (MemoryError, "out of memory")])
def test_cli_reports_recursion_and_memory_errors_in_one_line(tmp_path, capsys, monkeypatch,
                                                             error, message):
    def fail(*args):
        raise error()

    monkeypatch.setattr(cli, "model_check", fail)
    rep = _write_interval_rep(tmp_path)
    assert main(["check", "--class", "interval", "--in", rep,
                 "--formula", "exists x. x=x"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_cli_interpret_and_deterministic(tmp_path, capsys):
    rep = _write_interval_rep(tmp_path)
    args = ["interpret", "--class", "interval", "--in", rep,
            "--out-poset", str(tmp_path / "p.txt"),
            "--out-interp", str(tmp_path / "i.txt")]
    assert main(args) == 0
    first = (tmp_path / "p.txt").read_text(), (tmp_path / "i.txt").read_text()
    assert main(args) == 0
    second = (tmp_path / "p.txt").read_text(), (tmp_path / "i.txt").read_text()
    assert first == second
    nu, psi = fileio.read_interpretation_formulas(first[1], "poset")
    assert nu is not None and psi is not None


def test_cli_generate_terfan_pipeline(tmp_path, capsys):
    h = tmp_path / "h.txt"
    h.write_text("graph 2\nedge 0 1\n")
    out = tmp_path / "w.rep"
    assert main(["generate", "--kind", "terfan", "--graph", str(h),
                 "--out", str(out)]) == 0
    code = main(["check", "--class", "visibility", "--in", str(out),
                 "--formula", "exists x. exists y. (edge(x,y) & !(x=y))"])
    assert code == 0


def test_cli_generate_cliquewidth_cert(tmp_path):
    out = tmp_path / "cw.rep"
    cert = tmp_path / "cw.cert"
    assert main(["generate", "--kind", "cliquewidth", "--class", "circular_arc",
                 "--param", "1", "--out", str(out), "--out-cert", str(cert)]) == 0
    lines = cert.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("part ")) == 6
    assert sum(1 for l in lines if l.startswith("order ")) == 6
    assert any(l.startswith("index-set 1 4") for l in lines)
    rep = fileio.read_representation(out.read_text())
    assert len(rep.objects) == 222


def test_cli_generate_consecutive_and_hardness(tmp_path):
    out = tmp_path / "wit.rep"
    cert = tmp_path / "wit.cert"
    assert main(["generate", "--kind", "consecutive", "--class", "unit_disk",
                 "--param", "3,1/4", "--out", str(out), "--out-cert", str(cert)]) == 0
    assert "complement 0" in cert.read_text()
    h = tmp_path / "h.txt"
    h.write_text("graph 3\nedge 0 1\nedge 1 2\n")
    assert main(["generate", "--kind", "hardness", "--class", "permutation",
                 "--graph", str(h), "--out", str(tmp_path / "gh.rep"),
                 "--out-labels", str(tmp_path / "gh.labels"),
                 "--out-interp", str(tmp_path / "gh.interp")]) == 0
    labeled = fileio.read_graph((tmp_path / "gh.labels").read_text())
    assert set(labeled.labels) == {"blue", "green", "red"}
    nu, psi = fileio.read_interpretation_formulas(
        (tmp_path / "gh.interp").read_text(), "graph")
    assert nu is not None and psi is not None
    assert main(["generate", "--kind", "efo-hardness", "--class", "unit_box",
                 "--graph", str(h), "--out", str(tmp_path / "efo.rep")]) == 0


@pytest.mark.parametrize("read, text", [
    (fileio.read_graph, "graph x\n"),
    (fileio.read_graph, "graph 2\nedge a 1\n"),
    (fileio.read_graph, "graph 2\nlabel red 1.5\n"),
    (fileio.read_poset, "poset x\n"),
    (fileio.read_poset, "poset 2\nlt 0 b\n"),
    (fileio.read_poset, "poset 2\nlabel D z\n"),
])
def test_fileio_rejects_bad_integers(read, text):
    with pytest.raises(fileio.FileFormatError, match="bad integer"):
        read(text)


@pytest.mark.parametrize("read, text, message", [
    (fileio.read_representation, "class visibility\npolygon\npt 0\n", "bad polygon line: pt 0"),
    (fileio.read_representation, "class blob\n", "unknown representation class 'blob'"),
    (fileio.read_graph, "edge 0 1\n", "graph must start with 'graph <n>'"),
    (fileio.read_graph, "graph 2\nedge 0\n", "bad graph line: edge 0"),
    (fileio.read_poset, "poset 2\nedge 0 1\n", "bad poset line: edge 0 1"),
])
def test_fileio_refuses_bad_lines_and_headers(read, text, message):
    with pytest.raises(fileio.FileFormatError, match=f"^{re.escape(message)}$"):
        read(text)


@pytest.mark.parametrize("text, error, fault", [
    ("poset 3\nlt 0 1\nlt 1 0\nlt 1 2\n", PosetError, "cycle"),
    ("poset 2\nlt 1 1\n", PosetError, "cycle"),
    ("poset 3\nlt 0 1\nlt 1 2\n", fileio.FileFormatError, "not transitively closed"),
])
def test_read_poset_rejects_a_relation_that_is_no_order(text, error, fault):
    with pytest.raises(error, match=fault):
        fileio.read_poset(text)


@pytest.mark.parametrize("graph_text", ["graph x\n", "graph 2\nedge a 1\n"])
def test_cli_generate_hardness_bad_graph_file(tmp_path, capsys, graph_text):
    h = tmp_path / "h.txt"
    h.write_text(graph_text)
    assert main(["generate", "--kind", "hardness", "--class", "permutation",
                 "--graph", str(h), "--out", str(tmp_path / "o.rep")]) == 2
    assert capsys.readouterr().err.startswith("error: bad integer")


@pytest.mark.parametrize("kind, param", [
    ("consecutive", "x"), ("consecutive", "3,1/0"), ("cliquewidth", "x")])
def test_cli_generate_bad_param(tmp_path, capsys, kind, param):
    assert main(["generate", "--kind", kind, "--class", "circle", "--param", param,
                 "--out", str(tmp_path / "o.rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


_GENERATE_KINDS = ("consecutive", "hardness", "efo-hardness", "cliquewidth", "terfan")


@pytest.mark.parametrize("argv", [
    *(["generate", "--kind", kind, "--out", "{tmp}/o.rep"] for kind in _GENERATE_KINDS),
    ["verify", "--dir", "{tmp}/rep.txt"],
    ["verify", "--dir", "{tmp}"],
    ["check", "--class", "interval", "--in", "{tmp}/none.rep", "--formula", "exists x. x=x"],
    ["interpret", "--class", "interval", "--in", "{tmp}/rep.txt",
     "--out-poset", "{tmp}/none/p", "--out-interp", "{tmp}/i"],
], ids=[*(f"generate-{kind}" for kind in _GENERATE_KINDS),
        "verify-on-a-file", "verify-without-rep-files", "check-missing-input",
        "interpret-into-a-missing-directory"])
def test_cli_refusals_exit_2_with_one_error_line(tmp_path, capsys, argv):
    """A missing argument of a generate kind, a verify directory that is a
    file or holds no ``*.rep``, a missing input and an output into a missing
    directory each end in one error line."""
    _write_interval_rep(tmp_path)
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_generate_consecutive_over_the_order_cap_exits_2(tmp_path, capsys):
    """An order past ``MAX_WITNESS_ORDER`` is refused before any object is
    made: one error line, no file."""
    out = tmp_path / "o.rep"
    assert main(["generate", "--kind", "consecutive", "--class", "permutation",
                 "--param", str(MAX_WITNESS_ORDER + 1), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: witness order {MAX_WITNESS_ORDER + 1} exceeds the size cap\n"
    assert captured.out == "" and not out.exists()


def test_cli_graph_output(tmp_path, capsys):
    rep = _write_interval_rep(tmp_path)
    assert main(["graph", "--class", "interval", "--in", rep]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph 2\n") and "edge 0 1" in out


def test_cli_verify_corpus(tmp_path, capsys):
    cases = tmp_path / "cases"
    cases.mkdir()
    (cases / "a.rep").write_text("class interval\ninterval 1 3\ninterval 2 4\n")
    rng = random.Random(55)
    for name, mk in (("b", rand_chords), ("c", rand_boxes), ("d", rand_disks),
                     ("e", rand_segments), ("f", rand_arcs)):
        (cases / f"{name}.rep").write_text(fileio.write_representation(mk(rng, 5)))
    inst = terfan_polygon(LabeledGraph(2, {(0, 1)}))
    (cases / "g.rep").write_text(
        fileio.write_representation(Representation("visibility", (inst.polygon,))))
    (cases / "a.formulas").write_text("exists x. x=x\nforall x. edge(x,x)\n")
    assert main(["verify", "--dir", str(cases)]) == 0
    out = capsys.readouterr().out
    assert "7/7 cases pass" in out


def test_cli_verify_builds_once_per_case_and_prints_as_model_check(tmp_path, capsys,
                                                                   monkeypatch):
    cases = tmp_path / "cases"
    cases.mkdir()
    rng = random.Random(56)
    sentences = "exists x. exists y. edge(x,y)\nforall x. exists y. (edge(x,y) | x=y)\n"
    for name, mk in (("a", rand_intervals), ("b", rand_chords), ("c", rand_boxes),
                     ("d", rand_disks), ("e", rand_segments), ("f", rand_arcs)):
        (cases / f"{name}.rep").write_text(fileio.write_representation(mk(rng, 5)))
        (cases / f"{name}.formulas").write_text(sentences)
    inst = terfan_polygon(LabeledGraph(3, {(0, 1), (1, 2)}))
    (cases / "g.rep").write_text(  # the default battery
        fileio.write_representation(Representation("visibility", (inst.polygon,))))
    good = "class interval\ninterval 1 3\ninterval 2 4\n"
    (cases / "h.rep").write_text(good)
    (cases / "h.formulas").write_text("# no sentences\n")
    (cases / "i.rep").write_text(good)
    (cases / "i.formulas").write_text("edge(x,y)\n" + sentences)
    (cases / "j.rep").write_text("class interval\n")  # no poset instance to build
    (cases / "j.formulas").write_text(sentences)

    builds = []
    build = interpret._build
    monkeypatch.setattr(interpret, "_build", lambda cls, rep: builds.append(cls) or build(cls, rep))
    assert main(["verify", "--dir", str(cases)]) == 1
    out = capsys.readouterr().out
    assert builds == ["interval", "circle", "box", "unit_disk", "permutation",
                      "circular_arc", "visibility", "interval"]
    assert "h.rep" in out and "0 sentences  PASS" in out
    assert "ERROR empty representation" in out and "8/10 cases pass" in out
    # the same report as one model_check per sentence
    monkeypatch.setattr(cli, "_model_checker",
                        lambda cls, rep: lambda phi: checker.model_check(cls, rep, phi))
    assert main(["verify", "--dir", str(cases)]) == 1
    assert capsys.readouterr().out == out
    assert len(builds) == 8 + 6 * 2 + 5 + 1  # one build per sentence there


def test_cli_verify_reports_disagreement_and_goes_on(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(interpret, "_build", with_broken_interval_psi(interpret._build))
    cases = tmp_path / "cases"
    cases.mkdir()
    (cases / "a.rep").write_text("class interval\ninterval 1 3\ninterval 2 4\n")
    (cases / "a.formulas").write_text("exists x. exists y. edge(x,y)\n")
    (cases / "b.rep").write_text(fileio.write_representation(rand_chords(random.Random(57), 4)))
    assert main(["verify", "--dir", str(cases)]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("a.rep") and rows[0].endswith(
        "FAIL graph verdict True != poset verdict False for class interval on 2 objects: "
        "exists x. exists y. edge(x,y)")
    assert rows[1].startswith("b.rep") and rows[1].endswith("PASS ")
    assert rows[2] == "1/2 cases pass"


def test_cli_check_evaluation_errors_exit_2(tmp_path, capsys):
    rep = _write_interval_rep(tmp_path)
    for text, message in (("edge(x,y)", "model checking needs a sentence"),
                          ("exists x. red(x)", "undeclared label 'red'")):
        assert main(["check", "--class", "interval", "--in", rep,
                     "--formula", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


def test_cli_check_deep_formula_exits_2(tmp_path, capsys):
    rep = _write_interval_rep(tmp_path)
    # a syntax error after 3000 negations; a free variable inside parentheses
    # nested 3000 deep
    for text in ("!" * 3000 + "exists x. x=x", "(" * 3000 + "x=x" + ")" * 3000):
        assert main(["check", "--class", "interval", "--in", rep, "--formula", text]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
    # the parser and the evaluator run on explicit stacks, so a chain of 5000
    # negations and a disjunction of 5000 atoms, which the evaluator splits
    # into 5000 branches, are decided
    for text in ("exists x. " + "!" * 5000 + "edge(x,x)",
                 "exists x. " + " | ".join(["edge(x,x)"] * 5000)):
        assert main(["check", "--class", "interval", "--in", rep, "--formula", text]) == 1
        assert capsys.readouterr().out == "graph_verdict False\nposet_verdict False\n"


def test_cli_check_over_the_cell_budget_exits_2(tmp_path, capsys, monkeypatch):
    rep = tmp_path / "rep.txt"  # 20 intervals, a poset of 60 elements
    rep.write_text(fileio.write_representation(rand_intervals(random.Random(3), 20)))
    monkeypatch.setattr(checker, "MAX_CELLS", 20 ** 4 - 1)
    assert main(["check", "--class", "interval", "--in", str(rep),
                 "--formula", path_sentence(5)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "over the budget" in captured.err
    assert captured.out == ""


def test_cli_check_over_the_budget_on_the_poset_side_exits_2(tmp_path, capsys, monkeypatch):
    rep = tmp_path / "rep.txt"  # 20 intervals, a poset of 60 elements
    rep.write_text(fileio.write_representation(rand_intervals(random.Random(3), 20)))
    monkeypatch.setattr(checker, "MAX_CELLS", 400)  # the graph side needs 20x20
    assert main(["check", "--class", "interval", "--in", str(rep),
                 "--formula", "exists x. exists y. edge(x,y)"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "n=60" in captured.err
    assert "axes of 40x20" in captured.err and captured.out == ""


def test_cli_check_path_on_40_intervals_decides(tmp_path, capsys):
    rep = tmp_path / "rep.txt"  # 40 intervals, a poset of 120 elements
    rep.write_text(fileio.write_representation(rand_intervals(random.Random(3), 40)))
    code = main(["check", "--class", "interval", "--in", str(rep),
                 "--formula", path_sentence(5)])
    verdict = {0: True, 1: False}[code]
    assert capsys.readouterr().out == f"graph_verdict {verdict}\nposet_verdict {verdict}\n"


def test_cli_verify_reports_evaluation_error_and_goes_on(tmp_path, capsys):
    cases = tmp_path / "cases"
    cases.mkdir()
    for name in ("a", "b", "c"):
        (cases / f"{name}.rep").write_text("class interval\ninterval 1 3\ninterval 2 4\n")
    (cases / "a.formulas").write_text("edge(x,y)\n")
    (cases / "b.formulas").write_text("exists x. red(x)\n")
    assert main(["verify", "--dir", str(cases)]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert "ERROR model checking needs a sentence" in rows[0]
    assert "ERROR undeclared label 'red'" in rows[1]
    assert "PASS" in rows[2] and rows[3] == "1/3 cases pass"


def test_cli_verify_reports_bad_input_and_goes_on(tmp_path, capsys):
    cases = tmp_path / "cases"
    cases.mkdir()
    good = "class interval\ninterval 1 3\ninterval 2 4\n"
    (cases / "a.rep").write_text(good + "interval 5\n")
    (cases / "b.rep").write_text(good)
    # the parser and the evaluator take any depth: a deep chain of | is decided
    (cases / "b.formulas").write_text("exists x. " + "(x=x | " * 3000 + "x=x" + ")" * 3000 + "\n")
    (cases / "c.rep").write_text(good)
    assert main(["verify", "--dir", str(cases)]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("a.rep") and "ERROR bad object line" in rows[0]
    assert rows[1].startswith("b.rep") and "PASS" in rows[1]
    assert "PASS" in rows[2] and rows[3] == "2/3 cases pass"
