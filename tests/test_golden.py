"""Golden outputs: the bytes ``write_outputs`` emits for each bundled scenario.

Refactors must leave every trace CSV and ``stats.yaml`` byte-identical; a
change that alters output on purpose updates these hashes and says why.
"""

import hashlib

import pytest

from negosim.harness import bundled_scenario, load_scenario, run_batch, write_outputs

GOLDEN_SHA256 = {
    "aircraft.scenario": {
        "session_0000.csv": "edc367a48b7f766f9677edad0af0b87565ac03728c1654966ecdfccad0c14de7",
        "session_0001.csv": "c40ea542878cfe429150e49669f0a33d57d67ad15cc1c5cf5709d0b339b62d92",
        "session_0002.csv": "faaae0e2af6ff2578ed641b9e910fdc66c5313fe037bb92340e0c48a1246b887",
        "stats.yaml": "71cd1c52b8a9af7f633c4d10c85bd0677c9a5f9e461255ee1be49372dab9a487",
    },
    "disjoint.scenario": {
        "session_0000.csv": "9f8aa492a373df6607312720e630457c519511a65536887514fe80344780e822",
        "session_0001.csv": "6f2886ee270df9fb9fe6d5ec59759dca97209d84f457c9d99ce73624ffed77ed",
        "session_0002.csv": "3022bcb395619dcec6fa5d56cd745e30365f7821807d44fc8abf3768c6d467ea",
        "stats.yaml": "3c7bfb4c8e4c92e4e595a6b5d59e9a62c60c02b3aac48977efd5054d5384283e",
    },
    "aircraft_market.scenario": {
        "session_0000_thread_0.csv": "2f25e5023727ad4bceaf5bd0679e066ca9b08821fedc71a791b40665e6b20832",
        "session_0000_thread_1.csv": "a47e57fd608f95af75e24eea12507ee55ab7b0f4f44b4735e8cede51e8b22632",
        "session_0000_thread_2.csv": "9b228d65ade8e9dad2e6a874a438937e289dcc898a8c7ec0de3c8c31b014c268",
        "session_0001_thread_0.csv": "5954ce7cf29027bfbf7beded851e89c8f4c4c450b5da6d53bc95d894098881ba",
        "session_0001_thread_1.csv": "c59185b65aee142d1e17a9ffeb94aa68d029d508313a36a3defef0ccdbe0df1f",
        "session_0001_thread_2.csv": "022a3a9a79d896092bff70af3f8064dd7670be0e26ef0c05ed6a003ab0d95c09",
        "session_0002_thread_0.csv": "4538749996bfccdc6b0a18114912b12b26e5ec246c2ce59a7385f130d239c438",
        "session_0002_thread_1.csv": "0f22307ced294a2e65201151ffb3542f40f5f472303ac5f34b59651698b02e69",
        "session_0002_thread_2.csv": "febe73282db31fb50c84ea23dbb250fba7c037ea9e7daf1faa4abac87ae02ad2",
        "stats.yaml": "6330fb368294d3b4c35c8343e00a069e1c2f170340b27b09f06051b0cae7ba2c",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_bundled_outputs_match_golden_hashes(name, tmp_path):
    scenario = load_scenario(bundled_scenario(name))
    written = write_outputs(scenario, run_batch(scenario, 3), tmp_path)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written}
    assert digests == GOLDEN_SHA256[name]
