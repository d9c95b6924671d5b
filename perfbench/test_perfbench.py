"""Tests of the benchmark itself.  Run with: python3 -m pytest perfbench -q"""

import importlib.util
import itertools
import json
import time

import pytest

import refclock
import run
import tracer as tracing
import worker
import workloads


@pytest.fixture(scope="module")
def pr():
    return workloads.import_posetres()


@pytest.fixture(scope="module")
def corpus(pr):
    return workloads.HcwCorpus(pr, workloads.import_oracle(),
                               workloads.load_goldens())


def test_self_time_of_nested_calls():
    ticks = itertools.count()
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        tr.clock()  # one tick of work inside the leaf

    def outer():
        tr.clock()
        leaf_w()
        leaf_w()
        tr.clock()

    leaf_w = tr.wrap("m.leaf", leaf)
    outer_w = tr.wrap("m.outer", outer)
    tr.item = "x"
    outer_w()
    # Every clock read is one tick: outer spans 0..9, each leaf two ticks.
    (o, a, b) = tr.spans
    assert o[:4] == ("m.outer", 0.0, 9.0, -1)
    assert a[:4] == ("m.leaf", 2.0, 4.0, 0)
    assert b[:4] == ("m.leaf", 5.0, 7.0, 0)
    assert tracing.self_times(tr.spans) == [5.0, 2.0, 2.0]
    s = tr.summary()
    assert s["self_s"] == {"m.outer": 5.0, "m.leaf": 4.0}
    assert s["calls"] == {"m.outer": 1, "m.leaf": 2}
    assert s["top_level_s"] == 9.0


def test_install_rebinds_imported_names_and_restores(pr):
    orig = pr.exactla.rank
    tr = tracing.Tracer()
    missing = tr.install()
    try:
        assert missing == []
        for mod in (pr, pr.exactla, pr.posets, pr.conic, pr.gradedcomplex):
            assert mod.rank is not orig
        assert pr.posets.Poset.order_complex.__wrapped__ is not None
        P = pr.Poset(["a", "b"], [("a", "b")])
        pr.posets.reduced_homology(P.order_complex(), pr.FieldSpec(2))
    finally:
        tr.uninstall()
    assert pr.posets.rank is orig and pr.conic.rank is orig
    assert not hasattr(pr.posets.Poset.order_complex, "__wrapped__")
    names = [s[0] for s in tr.spans]
    assert names[:2] == ["posets.order_complex", "posets.reduced_homology"]
    assert set(names[2:]) == {"exactla.rank"}
    assert all(s[3] == 1 and s[5] == "gf2" for s in tr.spans[2:])
    assert tr.summary()["counts"]["posets.order_complex.faces"] == 4


def test_flipped_scalar_counts_as_failure(corpus):
    for item in corpus.items(0):
        if item.p == 0:
            Q, H = out = item.run()
            if any(H.diffs.values()):
                break
    assert worker.check_pass([[item, 0.0, 0.0, out, None]])[1] == []
    n, entries = next((n, m) for n, m in H.diffs.items() if m)
    key = next(iter(entries))
    entries[key] = -entries[key]
    records, failures = worker.check_pass([[item, 0.0, 0.0, (Q, H), None]])
    assert records[0][4] is False
    assert failures == [f"{item.id}: output digest differs from the golden"]


def test_raising_item_counts_as_failure():
    def boom():
        raise ValueError("boom")

    item = workloads.Item("x", 0, boom, lambda out: None)
    records, failures = worker.check_pass(worker.run_pass([item]))
    assert records[0][4] is False and "ValueError: boom" in failures[0]


def test_seeds_give_different_corpora_and_orders(pr):
    default = workloads.random_corpus_generators()
    assert workloads.random_corpus_generators(seed=1) != default
    # The default corpus seed reproduces the corpus of the repo's tests.
    path = workloads.ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("repo_conftest", path)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    assert [pr.minimalize(g) for g in default] == conftest.random_corpus()

    wl = workloads.HcwCorpus(pr, None, None)
    assert wl.corpus == [pr.minimalize(g) for g in default]

    def order(seed, k=0):
        return [it.id for it in workloads.HcwCorpus(pr, None, None,
                                                    seed).items(k)]

    assert order(0) == [it.id for it in wl.items(0)]
    assert order(1) != order(2) and sorted(order(1)) == sorted(order(2))
    assert order(1) == order(1) and order(1, 0) != order(1, 1)


def test_reference_seconds_rescale_by_adjacent_probes():
    # Probes of 1 s, 0.5 s and 0.25 s: speeds 1, 2 and 4 times nominal.
    tl = refclock.Timeline([(1.0, 2.0), (3.0, 3.5), (10.0, 10.25)], window=0)
    tl.speed = [s / refclock.NOMINAL_S for s in tl.speed]
    assert tl.seconds(0.0, 1.0) == 1.0  # before the first probe
    assert tl.seconds(2.0, 3.0) == 1.5  # between speeds 1 and 2
    assert tl.seconds(1.5, 4.0) == 1.5 + 0.5 * 3  # probes not counted
    assert tl.seconds(10.25, 11.0) == 0.75 * 4  # after the last probe
    assert tl.seconds(4.0, 12.0) == 6 * 3 + 1.75 * 4


def test_one_slow_probe_does_not_bend_the_time():
    log = [(k, k + 0.5) for k in range(5)]
    log[2] = (2.0, 2.9)
    speed = refclock.Timeline(log, window=1).speed
    assert speed == [refclock.NOMINAL_S / 0.5] * 5


def test_probe_logs_while_running():
    probe = refclock.Probe(interval=0.01)
    probe.start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    log = probe.log
    assert len(log) >= 5
    assert all(s < e for s, e in log)
    assert all(a[1] <= b[0] for a, b in zip(log, log[1:]))


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_declared_metric(monkeypatch, capsys, trace):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]

    def fake_worker(args, seconds, deadline):
        result = {"attempted": 2, "failed": 0}
        if args.trace:
            result["metrics"] = {m["name"]: 1.5 for m in declared}
            result["notes"] = []
        else:
            result["setup"] = {"wall_s": 0.5, "ref_s": 0.25}
            result["passes"] = [[("a", 2, 0.5, 0.75, True),
                                 ("b", 0, 1.5, 1.75, True)]]
            result["peak_rss_mb"] = 40.0
            result["probes"] = 3
        return 1.0, result

    monkeypatch.setattr(run, "run_worker", fake_worker)
    assert run.main(["--workload", "hcw-corpus", "--trace", str(trace)]) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in declared}
    if not trace:
        assert line["metrics"]["setup_s"]["value"] == 0.75
        assert line["metrics"]["items_per_s"]["value"] == 1.0
