"""The grading-pruned, staged search against the unpruned reference, and
dimension-2 searches that the unpruned enumeration cannot finish."""

import json

import pytest

from anylie import cli
from anylie.algebra import AlgebraSpec, verify_all
from anylie.cli import main

from search_reference import reference_search


def _cases():
    cases = []
    for n in range(1, 9):
        cases.append(["--n", str(n)])
    for n in range(1, 5):
        for degree in range(n):
            cases.append(["--n", str(n), "--degrees", str(degree)])
    cases += [
        ["--n", "3", "--alphabet", "0,1,z,z^2,1/2"],
        ["--n", "6", "--alphabet", "0,2,-1,z^3,z", "--json"],
        ["--n", "3", "--alphabet", "1,-1,z"],  # no zero: nonzero degrees prune away
        ["--n", "1", "--alphabet", "1,-1,z"],
        ["--n", "1", "--alphabet", "0"],
        ["--n", "3", "--alphabet", "0", "--json"],
        ["--n", "1", "--require-nonzero-delta"],
        ["--n", "4", "--require-nonzero-delta", "--json"],
        ["--n", "3", "--degrees", "1", "--require-nonzero-delta"],
        ["--group", "2,2", "--bichar", "1,0;0,1"],
        ["--group", "2,2", "--bichar", "1,0;0,1", "--degrees", "1 0", "--json"],
    ]
    return [["search", "--dim", "1", *argv] for argv in cases]


def _run(capsys, monkeypatch, search, argv):
    """Exit code, stdout and the solution list of one `main` call that
    searches with `search`."""
    seen = []

    def recording(space):
        for spec in search(space):
            seen.append(spec)
            yield spec
    monkeypatch.setattr(cli, "run_search", recording)
    code = main(argv)
    return code, capsys.readouterr().out, seen


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_search_matches_unpruned_reference(argv, capsys, monkeypatch):
    code, out, solutions = _run(capsys, monkeypatch, cli.run_search, argv)
    ref_code, ref_out, ref_solutions = _run(capsys, monkeypatch, reference_search, argv)
    assert (code, out) == (ref_code, ref_out)
    assert solutions == ref_solutions


DIM2 = ["search", "--dim", "2", "--n", "2", "--alphabet", "0,1", "--json"]


def _dim2_solutions(capsys, degrees):
    assert main(DIM2 + ["--degrees", degrees]) == 0
    return json.loads(capsys.readouterr().out)


def test_dim2_search_finishes_and_verifies(capsys):
    data = _dim2_solutions(capsys, "0,1")
    assert data["candidates"] == 262144
    assert data["count"] == len(data["solutions"]) == 4
    for sol in data["solutions"]:
        spec = AlgebraSpec.from_json(json.dumps(sol))
        assert verify_all(spec).passed


def _swap_basis(sol) -> str:
    spec = AlgebraSpec.from_json(sol)

    def swap(key):
        return tuple(1 - i for i in key)
    swapped = AlgebraSpec(spec.bichar, spec.basis, spec.degrees[::-1],
                          {1 - mu: v for mu, v in spec.eps.items()},
                          {swap(k): v for k, v in spec.d.items()},
                          {swap(k): v for k, v in spec.c.items()})
    return json.dumps(swapped.to_json(), sort_keys=True)


def test_dim2_search_commutes_with_basis_swap(capsys):
    forward = _dim2_solutions(capsys, "0,1")["solutions"]
    backward = _dim2_solutions(capsys, "1,0")["solutions"]
    assert forward
    assert ({_swap_basis(sol) for sol in forward}
            == {json.dumps(sol, sort_keys=True) for sol in backward})
