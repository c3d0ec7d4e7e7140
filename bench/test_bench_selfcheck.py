"""Fast self-check of the benchmark harness on a few cheap verdicts.

A corrupted known answer or golden record must count as exactly one failed
verdict, and a traced pass must give the same verdict document as an
untraced one.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import SpeedProbe, failed_ids, load_golden, run_verdicts  # noqa: E402

CHEAP = {
    "cocycle-tables": ["printed (2,1) (4,-2)", "partial (2,1) (-2,-2)", "h_I outer-degree block 6"],
    "iso-search": ["superizations Kap2(2) v=1,2", "isomorphism Kap4,1(2) ~ o'_Pi(3)"],
}


def _cheap_verdicts():
    L = W.import_layers()
    out = []
    for name, ids in CHEAP.items():
        wl = W.WORKLOADS[name]
        golden = load_golden(name)
        plan = {v.id: v for v in wl.plan(L, wl.setup(L), 0)}
        out += [(plan[i], golden) for i in ids]
    return out


def _failed(pairs, tracer=None):
    verdicts = [v for v, _ in pairs]
    golden = {}
    for _, g in pairs:
        golden.update(g)
    with SpeedProbe() as probe:
        doc, missed, _ = run_verdicts(verdicts, probe, tracer)
    return doc, failed_ids(doc, missed, golden)


def test_clean_pass_matches_golden_and_traced_pass():
    pairs = _cheap_verdicts()
    doc, failed = _failed(pairs)
    assert failed == []
    tracer = Tracer()
    tracer.install()
    try:
        traced_doc, traced_failed = _failed(pairs, tracer)
    finally:
        tracer.uninstall()
    assert traced_doc == doc and traced_failed == []
    layers = tracer.metrics()
    assert not tracer.absent
    for name in ("cohomology.d2", "cohomology.block_consistent_representative",
                 "superize.equivalence_of_superizations", "isom.search_isomorphism", "gf2.rank"):
        assert layers[name + ".calls"]["value"] > 0, name
    assert {s["verdict"] for s in tracer.span_records()} >= set(doc)


def test_corrupted_known_answer_counts_one_failure():
    pairs = _cheap_verdicts()
    v, _ = pairs[-1]
    v.check = lambda rec: rec["kind"] == "distinguished"
    assert _failed(pairs)[1] == [v.id]


def test_corrupted_golden_record_counts_one_failure():
    pairs = _cheap_verdicts()
    v, golden = pairs[0]
    golden[v.id] = dict(golden[v.id], coboundary=True)
    assert _failed(pairs)[1] == [v.id]
