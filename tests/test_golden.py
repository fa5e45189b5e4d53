"""The committed CLI records of ``tests/golden``: every command's exit code,
stdout and stderr, byte for byte on the numpy build that recorded them,
else as parsed values.  Each test id names the comparison it ran."""

import gzip
import json

import pytest

from golden.regenerate import COMMANDS, HERE, INDEX, fingerprint, run, values_match, write_inputs

RECORDS = json.loads(INDEX.read_text(encoding="utf-8"))
#: bytes where the build matches the recording one; sin, cos, arctan, exp
#: and log may move by an ulp between numpy builds and dispatch targets
COMPARISON = "bytes" if RECORDS["fingerprint"] == fingerprint() else "values"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A working directory holding the commands' input files."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("golden"))
        write_inputs()
        yield


def test_records_cover_the_commands():
    recorded = {name: record["command"] for name, record in RECORDS["records"].items()}
    assert recorded == COMMANDS, "stale records: run tests/golden/regenerate.py"


@pytest.mark.usefixtures("workdir")
@pytest.mark.parametrize("name", list(COMMANDS), ids=[f"{name}-{COMPARISON}" for name in COMMANDS])
def test_command_matches_its_record(name):
    code, out, err = run(COMMANDS[name])
    want_out = gzip.decompress((HERE / f"{name}.out.gz").read_bytes())
    want_err = (HERE / f"{name}.err").read_bytes()
    assert code == RECORDS["records"][name]["exit"]
    assert values_match(out.decode(), want_out.decode()), "stdout"
    assert values_match(err.decode(), want_err.decode()), "stderr"
    if COMPARISON == "bytes":
        assert out == want_out, "stdout"
        assert err == want_err, "stderr"


class TestValuesMatch:
    """The comparison used across numpy builds."""

    TABLE = "theta,weight\n0.78539816339744828,1\n# solver residual = 2.7755575615628914e-17\n"

    @pytest.mark.parametrize(
        "old, new",
        [
            ("0.78539816339744828", "0.78539816339744839"),  # 1.4e-16 relative
            ("2.7755575615628914e-17", "0"),  # a rounding residue
        ],
    )
    def test_rounding_within_the_bound_matches(self, old, new):
        assert values_match(self.TABLE.replace(old, new), self.TABLE)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("0.78539816339744828", "0.78539816349744828"),  # 1.3e-10 relative
            (",1\n", ",2\n"),
            ("theta", "angle"),
            ("2.7755575615628914e-17", "2.7755575615628914e-11"),
            ("\n#", "\n0.5,1\n#"),  # one more row
        ],
    )
    def test_a_change_fails(self, old, new):
        assert not values_match(self.TABLE.replace(old, new), self.TABLE)
