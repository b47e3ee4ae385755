import pytest

from spdcpol.config import parse_config
from spdcpol.errors import ConfigError

SAMPLE = """\
# comment
[alpha]
x = 1.5
flag = yes

[beta]
name = hello world
count = 7
"""


def test_sections_and_entries():
    sections = parse_config(SAMPLE, "sample.cfg")
    assert [s.name for s in sections] == ["alpha", "beta"]
    alpha, beta = sections
    assert alpha.get_float("x") == 1.5
    assert alpha.get_bool("flag") is True
    assert beta.get_str("name") == "hello world"
    assert beta.get_int("count") == 7
    assert alpha.line == 2
    assert alpha.entries["x"].line == 3


def test_defaults_and_missing_keys():
    section = parse_config(SAMPLE)[0]
    assert section.get_float("absent", 2.0) == 2.0
    with pytest.raises(ConfigError) as info:
        section.get_float("absent")
    assert "absent" in str(info.value)


def test_type_errors_point_at_line():
    section = parse_config("[s]\nx = notanumber\n", "f.cfg")[0]
    with pytest.raises(ConfigError) as info:
        section.get_float("x")
    assert info.value.line == 2
    assert info.value.path == "f.cfg"


def test_entry_before_section():
    with pytest.raises(ConfigError) as info:
        parse_config("x = 1\n")
    assert info.value.line == 1


def test_duplicate_key():
    with pytest.raises(ConfigError) as info:
        parse_config("[s]\nx = 1\nx = 2\n")
    assert info.value.line == 3


@pytest.mark.parametrize("separator", ["\f", "\v", "\x1c", "\x1d", "\x1e",
                                       "\x85", "\u2028", "\u2029"])
def test_only_newlines_end_a_line(separator):
    # str.splitlines also ends a line at these; a file read as text does not
    text = (f"# page one{separator} page two\n[scenario]\n"
            f"name = caf{separator}e\n")
    (section,) = parse_config(text, "s.cfg")
    assert section.line == 2
    assert section.entries["name"].value == f"caf{separator}e"
    assert section.entries["name"].line == 3
    with pytest.raises(ConfigError, match=r"^s\.cfg:4: expected"):
        parse_config(text + "garbage\n", "s.cfg")


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_keep_the_line_numbers(newline):
    text = newline.join(["# comment", "[alpha]", "x = 1", "", "garbage", ""])
    with pytest.raises(ConfigError, match=r"^s\.cfg:5: expected"):
        parse_config(text, "s.cfg")
    (section,) = parse_config(text.replace("garbage", "y = 2"))
    assert section.entries["x"].value == "1"
    assert [entry.line for entry in section.entries.values()] == [3, 5]


def test_garbage_line():
    with pytest.raises(ConfigError) as info:
        parse_config("[s]\nnot a pair\n")
    assert info.value.line == 2


def test_reject_unknown():
    section = parse_config("[s]\ngood = 1\nbad = 2\n", "f.cfg")[0]
    with pytest.raises(ConfigError) as info:
        section.reject_unknown({"good"})
    assert "bad" in str(info.value)
    assert info.value.line == 3


def test_bool_values():
    section = parse_config("[s]\na = true\nb = off\nc = maybe\n")[0]
    assert section.get_bool("a") is True
    assert section.get_bool("b") is False
    with pytest.raises(ConfigError):
        section.get_bool("c")


def test_non_finite_numbers_point_at_their_line():
    for raw in ("nan", "inf", "-inf", "NaN", "1e400"):
        section = parse_config(f"[s]\n\nx = {raw}\n", "f.cfg")[0]
        with pytest.raises(ConfigError) as info:
            section.get_float("x")
        assert info.value.line == 3
        assert "finite" in str(info.value)
