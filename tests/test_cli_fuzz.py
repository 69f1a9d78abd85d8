"""CLI fuzzing: small generated files, well formed or not, never raise.

`zonolat solve`, `zonolat solve --oracle`, `zonolat check` and `zonolat
voronoi` must answer every file with exit code 0 or 1: none of them may
report an internal error, not even on a matrix that is not totally
unimodular.  Files carry a drawn `tu_mode` key, which the format ignores,
as older files wrote it.  `zonolat construct vfk
--gram` must answer with 0, 1 or 2.  Examples are derandomized, so every
run checks the same files.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from zonolat.cli import main

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

numerators = st.integers(-10**6 + 1, 10**6 - 1)
rationals = numerators | st.builds(lambda p, q: f"{p}/{q}", numerators,
                                   st.integers(1, 60))
weights = st.integers(1, 6) | st.builds(lambda p, q: f"{p}/{q}",
                                        st.integers(1, 30), st.integers(1, 6))
junk = (st.none() | st.booleans() | st.floats() | st.text(max_size=6)
        | st.integers(-10**30, 10**30) | st.lists(st.integers(-2, 2), max_size=3)
        | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@st.composite
def problem_files(draw):
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 4))
    data = {
        "m": m,
        "n": n,
        "M": draw(st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=m, max_size=m),
                           min_size=n, max_size=n)),
        "g": draw(st.lists(weights, min_size=m, max_size=m)),
        "t": draw(st.lists(rationals, min_size=m, max_size=m)),
        "tu_mode": draw(st.sampled_from(["verify", "assert"])),
    }
    for key in draw(st.lists(st.sampled_from(["m", "n", "M", "g", "t", "tu_mode", "name"]),
                             max_size=2, unique=True)):
        action = draw(st.sampled_from(["drop", "replace", "entry"]))
        if action == "drop":
            data.pop(key, None)
        elif action == "entry" and isinstance(data.get(key), list) and data[key]:
            i = draw(st.integers(0, len(data[key]) - 1))
            data[key][i] = draw(junk)
        else:
            data[key] = draw(junk)
    return data


@st.composite
def gram_files(draw):
    k = draw(st.integers(0, 5))
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 1))
        rows[i][i] = -sum(rows[i])
    if k and draw(st.booleans()):
        i = draw(st.integers(0, k - 1))
        if draw(st.booleans()):
            rows[i] = draw(junk)
        else:
            rows[i][draw(st.integers(0, k - 1))] = draw(rationals | junk)
    return draw(st.sampled_from([rows, {"gram": rows}, draw(junk)]))


def _run(tmp_path_factory, argv_head, data) -> int:
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return main([*argv_head, str(path)])


#: A verified file on which the origin walk once ran past its iteration cap.
CAP_EXCEEDED = {
    "m": 6, "n": 2, "M": [[0, 0, 1, 1, -1, 0], [0, -1, 0, 0, -1, 1]],
    "g": [5, "5/6", 15, 6, 1, 1],
    "t": ["-24956/29", "5013/7", -146291, "-1684/46", 0, 0],
    "tu_mode": "verify",
}

#: A far target: the origin walk took one iteration per bit of it (16609).
FAR_A2 = {"m": 3, "n": 1, "M": [[1, 1, 1]], "g": [1, 1, 1],
          "t": ["1e5000", "0", "0"], "tu_mode": "verify"}


@FUZZ
@given(data=problem_files())
@example(data=CAP_EXCEEDED)
@example(data=FAR_A2)
def test_solve_never_raises(tmp_path_factory, data):
    assert _run(tmp_path_factory, ["solve"], data) in (0, 1)


@FUZZ
@given(data=problem_files())
def test_check_never_raises(tmp_path_factory, data):
    # rank and span membership hold at any integer M, TU or not
    assert _run(tmp_path_factory, ["check"], data) in (0, 1)


@FUZZ
@given(data=problem_files())
def test_solve_oracle_never_raises(tmp_path_factory, data):
    # the oracle's caps, then a TU decision, come before the solve and the
    # brute-force reference
    assert _run(tmp_path_factory, ["solve", "--oracle"], data) in (0, 1)


@FUZZ
@given(data=problem_files())
def test_voronoi_never_raises(tmp_path_factory, data):
    # the enumeration's cap, then a TU decision
    assert _run(tmp_path_factory, ["voronoi"], data) in (0, 1)


@FUZZ
@given(data=gram_files())
def test_construct_vfk_never_raises(tmp_path_factory, data):
    assert _run(tmp_path_factory, ["construct", "vfk", "--gram"], data) in (0, 1, 2)
