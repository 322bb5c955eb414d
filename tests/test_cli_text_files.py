"""Form and targets files are read as UTF-8 text, by one reader.

A byte that is not UTF-8 is an error that names the file and the line.  A
valid file reads as text mode reads it: "\\r\\n" and a lone "\\r" end a line
as "\\n" does.
"""

import pytest

from siegelmodp import qexp
from siegelmodp.cli import run
from siegelmodp.qexp import QExpansion
from siegelmodp.rep import Weight

F = QExpansion(p=7, N=3, weight=Weight(4, 4),
               support={(0, 0, 0): (3,), (1, 0, 1): (2,), (1, 1, 1): (5,)})


def form_bytes(newline="\n"):
    return qexp.serialize(F).replace("\n", newline).encode("utf-8")


def spoil_line(data, lineno, newline="\n"):
    """``data`` with a 0xff byte at the end of its line ``lineno``."""
    lines = data.split(newline.encode("utf-8"))
    lines[lineno - 1] += b"\xff"
    return newline.encode("utf-8").join(lines)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("argv", [
    ["theta", "--op", "big", "{form}", "-o", "{out}"],
    ["hecke", "eigen", "--ell", "2", "--assume-complete", "{form}"],
    ["hecke", "--ell", "2", "--targets", "{targets}", "--assume-complete",
     "{form}", "-o", "{out}"],
])
def test_a_form_that_is_not_utf8_names_its_line(tmp_path, capsys, newline,
                                                argv):
    form = tmp_path / "bad.smf"
    form.write_bytes(spoil_line(form_bytes(newline), 5, newline))
    targets = tmp_path / "t.txt"
    targets.write_text("0 0 0\n", encoding="utf-8")
    out = tmp_path / "out.smf"
    names = {"form": form, "targets": targets, "out": out}
    assert run([a.format(**names) for a in argv]) == 1
    assert capsys.readouterr().err == f"{form}:5: not UTF-8 text\n"
    assert not out.exists()


@pytest.mark.parametrize("text, lineno", [
    (b"0 0 0\n\xff\n", 2),
    (b"# \xc3\xa9t\xc3\xa9\n0 0 0\r\n\r\n1 0 1 \xfe\n", 4),
    (b"0 0 0\r\r1 1 1\r\xc3\n", 4),
])
def test_a_targets_file_that_is_not_utf8_names_its_line(tmp_path, capsys,
                                                        text, lineno):
    form = tmp_path / "in.smf"
    form.write_bytes(form_bytes())
    targets = tmp_path / "t.txt"
    targets.write_bytes(text)
    out = tmp_path / "out.smf"
    assert run(["hecke", "--ell", "2", "--targets", str(targets),
                "--assume-complete", str(form), "-o", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"{targets}:{lineno}: not UTF-8 text\n"
    assert not out.exists()


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_every_line_ending_reads_as_a_newline(tmp_path, newline):
    targets = "# constant term and two more\n0 0 0\n\n1 0 1\n1 1 1\n"
    outputs = []
    for nl in ("\n", newline):
        form = tmp_path / "in.smf"
        form.write_bytes(form_bytes(nl))
        listed = tmp_path / "t.txt"
        listed.write_bytes(targets.replace("\n", nl).encode("utf-8"))
        out = tmp_path / "out.smf"
        assert run(["hecke", "--ell", "2", "--targets", str(listed),
                    "--assume-complete", str(form), "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert qexp.parse(outputs[0].decode("utf-8")).support


@pytest.mark.parametrize("text, lineno", [
    ("0 0 0\r\n\r\n1 x 2\r\n", 3),
    ("0 0 0\r\r1 x 2\r", 3),
    ("0 0 0\r\n1 1\r", 2),
    ("# a\x0bb\n1 x 2\n", 2),
])
def test_line_numbers_count_line_endings_as_text_mode_does(tmp_path, capsys,
                                                            text, lineno):
    form = tmp_path / "in.smf"
    form.write_bytes(form_bytes())
    targets = tmp_path / "t.txt"
    targets.write_bytes(text.encode("utf-8"))
    assert run(["hecke", "--ell", "2", "--targets", str(targets),
                "--assume-complete", str(form),
                "-o", str(tmp_path / "out.smf")]) == 1
    assert capsys.readouterr().err.startswith(
        f"{targets}:{lineno}: expected three integers")
