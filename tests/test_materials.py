import pytest

import spdcpol as sp
from spdcpol.errors import ConfigError


def test_builtin_bbo_record():
    record = sp.get_material("bbo")
    assert record.ordinary.a == 2.7405
    assert record.ordinary.b == 0.0184
    assert record.extraordinary.a == 2.3730
    assert record.extraordinary.d == 0.0044
    assert record.band == (0.3e-6, 1.1e-6)


def test_get_material_is_case_insensitive():
    assert sp.get_material("BBO") is sp.get_material("bbo")
    with pytest.raises(KeyError) as info:
        sp.get_material("ktp")
    assert "bbo" in str(info.value)


def test_record_builds_crystal():
    crystal = sp.get_material("bbo").crystal(cut_angle=0.5, length=2e-3)
    assert crystal.length == 2e-3
    assert crystal.material is sp.get_material("bbo")
    assert crystal.material.name == "bbo"
    assert crystal.material.band == (0.3e-6, 1.1e-6)


CUSTOM = """\
[quartzlike]
ordinary_a = 2.35
ordinary_b = 0.0107
ordinary_c = 0.0100
ordinary_d = 0.0077
extraordinary_a = 2.30
extraordinary_b = 0.0100
extraordinary_c = 0.0095
extraordinary_d = 0.0070
band_min_um = 0.35
band_max_um = 1.0
"""


def test_parse_custom_catalogue(tmp_path):
    path = tmp_path / "mats.txt"
    path.write_text(CUSTOM)
    catalogue = sp.load_materials(path)
    assert set(catalogue) == {"quartzlike"}
    record = sp.get_material("quartzlike", catalogue)
    assert record.band == pytest.approx((0.35e-6, 1.0e-6))


def _swapped_sets(text):
    return (text.replace("extraordinary_", "swap_")
            .replace("ordinary_", "extraordinary_")
            .replace("swap_", "ordinary_"))


@pytest.mark.parametrize("fault, message", [
    (_swapped_sets, "not negative uniaxial"),
    (lambda text: text.replace("ordinary_c = 0.0100", "ordinary_c = 0.25"),
     "ordinary Sellmeier pole at 0.5 um lies inside the band"),
    (lambda text: text.replace("extraordinary_a = 2.30",
                               "extraordinary_a = 0.5"), "n^2 = "),
    (lambda text: text.replace("band_min_um = 0.35", "band_min_um = 1.5"),
     "invalid band"),
], ids=["positive_uniaxial", "pole_in_band", "n2_below_1", "inverted_band"])
def test_catalogue_faults_are_refused_at_the_record_line(fault, message):
    # each record is checked once, when the catalogue is read; a fault
    # points at its [name] line, before any scenario uses the record
    text = "# a catalogue\n\n" + fault(CUSTOM)
    with pytest.raises(ConfigError) as info:
        sp.parse_materials(text, "mats.txt")
    assert str(info.value).startswith("mats.txt:3: invalid material "
                                      "'quartzlike': ")
    assert message in str(info.value)


def test_missing_coefficient_points_at_section():
    broken = CUSTOM.replace("ordinary_d = 0.0077\n", "")
    with pytest.raises(ConfigError) as info:
        sp.parse_materials(broken, "mats.txt")
    assert "ordinary_d" in str(info.value)
    assert info.value.path == "mats.txt"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as info:
        sp.parse_materials(CUSTOM + "color = blue\n", "mats.txt")
    assert "color" in str(info.value)


def test_duplicate_material_rejected():
    with pytest.raises(ConfigError):
        sp.parse_materials(CUSTOM + "\n" + CUSTOM)


def test_empty_catalogue_rejected():
    with pytest.raises(ConfigError):
        sp.parse_materials("# nothing here\n")
