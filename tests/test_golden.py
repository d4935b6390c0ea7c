"""Golden outputs: full sha256 pins of CLI stdout and of the bundled
instances' JSON.  Any change to a seed-pinned result, a digit stream, a
partition or the instance format shows up here as a digest mismatch."""

import contextlib
import hashlib
import io

import pytest

from lllkit import bundled_instances, instance_to_json
from lllkit.cli import main

STDOUT_PINS = {
    "solve --generate 3000,3 --seed 2":
        "42edfb4a00776e7f2b3cb124dcbe9aee2c8db68d32fcc2f716f3e75b374c6456",
    "solve --torus 2,16,8,2 --seed 3":
        "ebacd8c9e620cf2cd17f36342d03a9647958d001caa67b907e26e262c8207693",
    "solve --bundled chain --partition 2 --seed 1":
        "2b173a80c6b7b93407d44e666f7efc1cc4690f64483341eca919f1a787ad920e",
    "solve --bundled torus --seed 1":
        "a7051e3f6ab733b340117577072c9974b554e475360cb8616ebbf08641d9c5e9",
    "tail --torus 1,30,8,3 --partition singletons --seeds 20 --seed 4":
        "a77c6449a568bdaac06cb38a617681bd085f0334297c70adbdabc236c227722d",
    "tail --torus 1,40,10,4 --partition singletons --seeds 20 --seed 4":
        "58b72ba527542171ece40388b99f6f38e8502d1b04a454181201b46fde9f4510",
    "tail --bundled torus --seeds 200 --seed 4":
        "18c81ac5d3e669455a0c80c1fcc2e3892276fee091a780bc8fb2307703062d06",
    "verify --seed 1 --tapes 100 --runs 50":
        "50db442bd4f4a85893f25ebb8b90703f036a4881466b7326b21cf52dce60900e",
    "count --landscapes":
        "a2396b7f0785e695fefecfb40ba504526dd7bbd05fc1da48854a4d7416ccac94",
}

JSON_PINS = {
    "disjoint": "0abed706346bd8eb3e938555370998d989e3bae09015ab779845f9a44160c010",
    "chain": "6a37cfba99fda9bdd479f0fa62c983342875966ade7b4ff4d896a2b57419f3b7",
    "torus": "0b1bb7087bd6a504cc3393edbb0e40ac44cbcae92743ba1c574dc764fa9d27a3",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(STDOUT_PINS))
def test_stdout_digest(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(command.split())
    assert code == 0
    assert _sha256(buf.getvalue()) == STDOUT_PINS[command]


def test_bundled_json_digests():
    got = {
        name: _sha256(instance_to_json(graph, rule))
        for name, (graph, rule) in bundled_instances().items()
    }
    assert got == JSON_PINS
