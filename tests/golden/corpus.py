"""The golden answer corpus: every registered spec on every instance kind
it accepts, pinned by the SHA-256 of its answer bytes and by its cache key.

Each row is one ``(spec, instance)`` pair.  ``answer_sha256`` hashes
``encode_report(run(instance, spec))`` -- the bytes ``POST /solve``
answers with -- after removing ``report.wall_time``, the one field
measured per solve.  ``result_key`` is the content-addressed cache key of
the same solve.  APTAS answers depend on the vertex HiGHS returns for the
configuration LP, so the ``aptas`` rows also record the HiGHS version
they were generated with.

The instances come from :mod:`repro.workloads`: two plain, two precedence
and two release families at n = 16 and 200 with two seeds each, plus the
paper's two adversarial families (Fig. 1 and Fig. 2) at small sizes.

Regenerate ``answers.json`` (and say why in CHANGES.md) with::

    PYTHONPATH=src python tests/golden/corpus.py
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.core.errors import ReproError
from repro.core.instance import StripPackingInstance
from repro.core.serialize import result_key
from repro.engine import all_specs, run
from repro.service.server import encode_report
from repro.workloads import (
    bursty_release_instance,
    layered_precedence_instance,
    omega_log_n_instance,
    poisson_release_instance,
    powerlaw_rects,
    ratio3_instance,
    uniform_height_precedence_instance,
    uniform_rects,
)

ANSWERS = Path(__file__).with_name("answers.json")

#: family name -> the instance it makes from ``(n, seed)``.
_SEEDED = {
    "powerlaw_rects": lambda n, rng: StripPackingInstance(powerlaw_rects(n, rng)),
    "uniform_rects": lambda n, rng: StripPackingInstance(uniform_rects(n, rng)),
    "layered_precedence": lambda n, rng: layered_precedence_instance(n, 4, 0.2, rng),
    "uniform_height_precedence": lambda n, rng: uniform_height_precedence_instance(n, 0.05, rng),
    "bursty_release": lambda n, rng: bursty_release_instance(n, 8, rng),
    "poisson_release": lambda n, rng: poisson_release_instance(n, 8, rng),
}
#: family name -> the instance it makes from its size knob ``k``.
_ADVERSARIAL = {
    "omega_log_n": lambda k: omega_log_n_instance(k).instance,
    "ratio3": lambda k: ratio3_instance(k).instance,
}

#: Every corpus instance by label, in corpus order.
INSTANCES: tuple[str, ...] = (
    *(
        f"{family}/n{n}/s{seed}"
        for family in _SEEDED
        for n in (16, 200)
        for seed in (1, 2)
    ),
    "omega_log_n/k3",
    "omega_log_n/k4",
    "ratio3/k5",
    "ratio3/k10",
)

# The one field of an answer that is measured, not computed: the sorted
# keys put it last in the report object.
_WALL_TIME = re.compile(rb',"wall_time":[^,}]+')


@lru_cache(maxsize=None)
def instance(label: str) -> StripPackingInstance:
    """The instance a corpus label names (built once per process)."""
    family, *knobs = label.split("/")
    if family in _ADVERSARIAL:
        return _ADVERSARIAL[family](int(knobs[0][1:]))
    n, seed = int(knobs[0][1:]), int(knobs[1][1:])
    return _SEEDED[family](n, np.random.default_rng(seed))


def answer_sha256(report) -> str:
    """SHA-256 of the report's answer bytes without ``wall_time``."""
    body, count = _WALL_TIME.subn(b"", encode_report(report))
    if count != 1:
        raise ValueError(f"expected one wall_time field in the answer, found {count}")
    return hashlib.sha256(body).hexdigest()


def highs_version() -> str:
    """The version of the HiGHS library the APTAS LP runs on."""
    from repro.release.lp import highs

    return highs._Highs().version()


def solve_row(inst: StripPackingInstance, name: str) -> dict:
    """One row's pinned values: the answer's hash, or the error the solver
    refuses the instance with, and the solve's cache key."""
    try:
        pinned = {"answer_sha256": answer_sha256(run(inst, name))}
    except ReproError as exc:
        pinned = {"error": f"{type(exc).__name__}: {exc}"}
    return {**pinned, "result_key": result_key(inst, name)}


def build_rows() -> list[dict]:
    """Solve every (spec, instance) pair the corpus holds, in order."""
    rows = []
    for spec in all_specs():
        for label in INSTANCES:
            inst = instance(label)
            if not spec.accepts(inst):
                continue
            row = {"id": f"{spec.name}:{label}", **solve_row(inst, spec.name)}
            if spec.name == "aptas":
                row["highs"] = highs_version()
            rows.append(row)
    return rows


def main() -> None:
    rows = build_rows()
    ANSWERS.write_text(json.dumps({"rows": rows}, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {ANSWERS}")


if __name__ == "__main__":
    main()
