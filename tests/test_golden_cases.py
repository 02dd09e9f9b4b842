"""Every golden case still solves to its committed line (``golden_cases``).

Under the numpy version that wrote the file every field must match, bit for
bit.  Under another one, numpy's kernels may round differently, so eps and
p_out must lie within TOLERANCE of the committed values (a ``-`` must stay
``-``), a case that raises must raise the same exception class, and neither
the digests, the messages nor the Monte Carlo outage ``mc`` are compared:
numpy does not keep its Gamma and normal streams fixed across versions.
"""
import json

import numpy as np

import golden_cases

TOLERANCE = 0.01     # the bisection's stop width, surrogate.DEFAULT_TAU


def _far(want: str, got: str) -> bool:
    """Two ``float.hex`` fields more than TOLERANCE apart, or a ``-`` and a
    number."""
    if "-" in (want, got):
        return want != got
    return abs(float.fromhex(want) - float.fromhex(got)) > TOLERANCE


def _raised(line: dict) -> str:
    """The exception class a case's line records, empty if it solved."""
    return line.get("raises", "").partition(":")[0]


def _differs(want: dict, got: dict, exact: bool) -> bool:
    if exact or want.get("case") != got.get("case"):
        return want != got
    if _raised(want) or _raised(got):
        return _raised(want) != _raised(got)
    return any(_far(want[key], got[key]) for key in ("eps", "p_out"))


def test_every_case_solves_to_its_line():
    committed = [json.loads(line) for line in
                 golden_cases.PATH.read_text().splitlines()]
    want_header, want = committed[0], committed[1:]
    exact = want_header["numpy"] == np.__version__
    got = golden_cases.compute()[1:]
    diffs = [f"want {json.dumps(w)}\n got {json.dumps(g)}"
             for w, g in zip(want, got) if _differs(w, g, exact)]
    if len(want) != len(got):
        diffs.append(f"{len(want)} committed cases, {len(got)} solved")
    compared = "bits" if exact else f"eps and p_out within {TOLERANCE}"
    assert not diffs, (
        f"{len(diffs)} golden lines differ ({compared}); rewrite the file "
        "with `python tests/golden_cases.py` if the change is meant:\n"
        + "\n".join(diffs))
