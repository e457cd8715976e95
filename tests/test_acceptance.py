"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Each test prints ``[criterion NN] PASS/FAIL <measurements>`` so a log scan
shows the whole contract at a glance. Budgeted runtimes are asserted where
the guarantee includes one. Everything is seeded; reruns are deterministic
apart from wall-clock readings.
"""

import math
import random
import time

import numpy as np
import pytest

from reference import (
    barrier_gradient,
    barrier_objective,
    ClusterStats,
    CountMinSketch,
    component,
    digest_buckets,
    generate_graphs,
    key_digests,
    members_intra_sq,
    process_all,
    routed_spread,
    separating_rows,
    view_of,
)
from sketchclust import (
    ACTION_INITIALIZED,
    Engine,
    EngineConfig,
    GraphObject,
    SideType,
    SketchConfig,
    StreamSchema,
    SynthConfig,
    assignment_agreement,
    overall_rate,
    preprocess,
    purity_from_events,
    synth_schema,
    throughput,
)
from sketchclust.exact import ExactBank
from sketchclust.model import graph_views
from sketchclust.stats import ClusterBank
from sketchclust.weight_opt import ClusterGeometry


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _labels_of(graphs) -> dict[str, str]:
    return {g.id: g.label for g in graphs}


# -- 1: sketch backend is exact when nothing collides ----------------------


def test_c01_backends_identical_in_collision_free_regime():
    t0 = time.perf_counter()
    synth = SynthConfig(
        n_clusters=3,
        n_graphs=200,
        nodes_per_community=5,
        edges_per_graph=4,
        informative_types=(("topics", 0.9),),
        noise_types=(("tags", 12),),
        cross_edge_rate=0.2,
        attrs_per_graph=3,
        class_vocab=3,
        seed=21,
    )
    schema = synth_schema(synth)
    graphs = [preprocess(g, schema) for g in generate_graphs(synth)]

    comp_keys: list[set] = [set() for _ in range(schema.d + 1)]
    for g in graphs:
        view = graph_views(g, schema)
        for comp, keys in enumerate(comp_keys):
            keys.update(component(view, comp)[0])
    total_keys = sum(len(s) for s in comp_keys)
    assert total_keys <= 300

    # first seed whose hash family gives every component a collision-free
    # row over its whole key universe; row-minimum estimates are then exact
    sketch_cfg = None
    for seed in range(64):
        cand = SketchConfig(rows=10, cols=4096, seed=seed)
        if all(separating_rows(cand, sorted(keys)) for keys in comp_keys):
            sketch_cfg = cand
            break
    assert sketch_cfg is not None, "no separating seed in range"

    cfg = EngineConfig(k=3, gamma=50, p=3.0, sketch=sketch_cfg)
    eng_sketch = Engine(cfg, schema, backend="sketch", record_distances=True)
    eng_exact = Engine(cfg, schema, backend="exact", record_distances=True)
    ev_sketch = [eng_sketch.process(g) for g in graphs]
    ev_exact = [eng_exact.process(g) for g in graphs]

    identical = all(a.to_json() == b.to_json() for a, b in zip(ev_sketch, ev_exact))
    max_rel = 0.0
    for a, b in zip(ev_sketch, ev_exact):
        if a.distances is None or b.distances is None:
            continue
        for row_a, row_b in zip(a.distances, b.distances):
            for va, vb in zip(row_a, row_b):
                max_rel = max(max_rel, abs(va - vb) / max(abs(vb), 1e-12))
    elapsed = time.perf_counter() - t0

    ok = identical and max_rel <= 1e-9 and elapsed < 5.0
    _verdict(
        1,
        ok,
        f"keys={total_keys} sketch_seed={sketch_cfg.seed} "
        f"identical_events={identical} max_rel_err={max_rel:.2e} "
        f"elapsed={elapsed:.2f}s (budget 5s)",
    )


# -- 2: default sketch geometry barely moves results -----------------------


def test_c02_sketch_agreement_at_default_dimensions():
    t0 = time.perf_counter()
    synth = SynthConfig(seed=2)  # 2,000 graphs, module defaults
    schema = synth_schema(synth)
    graphs = [preprocess(g, schema) for g in generate_graphs(synth)]
    labels = _labels_of(graphs)

    runs = {}
    for backend in ("sketch", "exact"):
        eng = Engine(
            EngineConfig(
                k=4, gamma=250, p=3.0, sketch=SketchConfig(rows=10, cols=500, seed=2)
            ),
            schema,
            backend=backend,
        )
        runs[backend] = [eng.process(g) for g in graphs]

    agreement = assignment_agreement(runs["sketch"], runs["exact"])
    p_sketch = purity_from_events(runs["sketch"], labels)[0].average_purity
    p_exact = purity_from_events(runs["exact"], labels)[0].average_purity
    diff = abs(p_sketch - p_exact)
    elapsed = time.perf_counter() - t0

    ok = agreement >= 0.95 and diff <= 0.02 and elapsed < 30.0
    _verdict(
        2,
        ok,
        f"agreement={agreement:.4f} (>=0.95) purity_diff={diff:.4f} (<=0.02) "
        f"elapsed={elapsed:.2f}s (budget 30s)",
    )


# -- 3: learned weights beat fixed weights when one type is informative ----


def test_c03_weight_learning_beats_uniform_weights():
    base = dict(
        n_clusters=4,
        n_communities=2,
        n_graphs=2000,
        nodes_per_community=6,
        edges_per_graph=12,
        informative_types=(("topics", 0.9),),
        noise_types=(("tags", 50),),
        cross_edge_rate=0.2,
        attrs_per_graph=6,
        noise_attrs_per_graph=10,
        class_vocab=3,
    )
    gains: list[float] = []
    margins: list[float] = []
    for seed in range(5):
        synth = SynthConfig(seed=seed, **base)
        schema = synth_schema(synth)
        graphs = [preprocess(g, schema) for g in generate_graphs(synth)]
        labels = _labels_of(graphs)
        purities = {}
        final_weights = None
        for optimize in (True, False):
            eng = Engine(
                EngineConfig(
                    k=4,
                    gamma=250 if optimize else 0,
                    p=3.0,
                    sketch=SketchConfig(rows=10, cols=500, seed=seed),
                ),
                schema,
            )
            events = [eng.process(g) for g in graphs]
            purities[optimize] = purity_from_events(events, labels)[0].average_purity
            if optimize:
                final_weights = eng.weights
        gains.append(purities[True] - purities[False])
        # weight layout: [edges, topics, tags]
        margins.append(float(final_weights[1] - final_weights[2]))

    gain = float(np.median(gains))
    margin = float(np.median(margins))
    ok = gain >= 0.05 and margin > 0.0
    _verdict(
        3,
        ok,
        f"median_purity_gain={gain:.4f} (>=0.05) "
        f"median_weight_margin={margin:.4f} (>0) "
        f"gains={[round(g, 3) for g in gains]}",
    )


# -- shared randomized optimizer snapshots ----------------------------------


def _random_geometry(rng):
    """A random geometry, its intra scaled by a barrier weight t in [0.5,
    4): t only scales the objective's linear term."""
    d = int(rng.integers(1, 5))
    n_pairs = int(rng.integers(1, 6))
    intra = rng.uniform(0.05, 4.0, size=d + 1)
    inter_sq = rng.uniform(0.05, 4.0, size=(n_pairs, d + 1))
    t = float(rng.uniform(0.5, 4.0))
    return ClusterGeometry(intra=t * intra, inter_sq=inter_sq, dropped=0)


def _feasible_point(geom, rng, margin):
    u = rng.uniform(0.2, 2.0, size=geom.inter_sq.shape[1])
    tightest = float(np.min(geom.inter_sq @ u))
    return u * ((1.0 + margin) ** 2 / tightest)


# -- 4: analytic gradient matches finite differences ------------------------
# The objective and gradient live inside ``kernel.refine``; criteria 4 and 5
# read them from ``reference.py``'s transcription, which test_weight_opt.py
# checks against the kernel bit for bit.


def test_c04_gradient_matches_central_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    snapshots = 100
    worst = 0.0
    for _ in range(snapshots):
        geom = _random_geometry(rng)
        w = _feasible_point(geom, rng, margin=float(rng.uniform(0.3, 1.0)))
        analytic = barrier_gradient(w, geom)
        numeric = np.zeros_like(w)
        for i in range(len(w)):
            h = 1e-6 * max(1.0, abs(w[i]))
            w_hi, w_lo = w.copy(), w.copy()
            w_hi[i] += h
            w_lo[i] -= h
            numeric[i] = (
                barrier_objective(w_hi, geom) - barrier_objective(w_lo, geom)
            ) / (2.0 * h)
        rel = float(
            np.linalg.norm(numeric - analytic)
            / max(1e-12, np.linalg.norm(analytic))
        )
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-5 and elapsed < 2.0
    _verdict(
        4,
        ok,
        f"snapshots={snapshots} worst_rel_err={worst:.2e} (<=1e-5) "
        f"elapsed={elapsed:.2f}s (budget 2s)",
    )


# -- 5: objective is midpoint convex on the feasible region -----------------


def test_c05_objective_midpoint_convexity():
    rng = np.random.default_rng(5)
    worst_gap = -math.inf
    pairs_per_snapshot = 1000
    snapshots = 5
    for _ in range(snapshots):
        geom = _random_geometry(rng)
        for _ in range(pairs_per_snapshot):
            a = _feasible_point(geom, rng, margin=float(rng.uniform(0.05, 1.0)))
            b = _feasible_point(geom, rng, margin=float(rng.uniform(0.05, 1.0)))
            f_a = barrier_objective(a, geom)
            f_b = barrier_objective(b, geom)
            f_mid = barrier_objective((a + b) / 2.0, geom)
            worst_gap = max(worst_gap, f_mid - (f_a + f_b) / 2.0)

    ok = worst_gap <= 1e-9
    _verdict(
        5,
        ok,
        f"snapshots={snapshots} pairs_each={pairs_per_snapshot} "
        f"worst_midpoint_gap={worst_gap:.2e} (<=1e-9)",
    )


# -- 6: merging summaries equals absorbing one combined stream --------------


def _absorb(bank, view, now: int) -> None:
    """The engine's path into slot 0: found it on the first graph, then
    absorb into it."""
    update = bank.absorb if len(bank) else bank.reset
    update(0, view, now)


def _summed_slot(a: ClusterBank, b: ClusterBank) -> bytes:
    """Two one-slot banks summed, as checkpoint bytes: cells, second
    moments and member counts add, the later update time wins."""
    total = ClusterBank(a.config, a.d, 1)
    total.cells[...] = a.cells + b.cells
    total.second_moments[...] = a.second_moments + b.second_moments
    total.n[...] = a.n + b.n
    total.t_last[...] = np.maximum(a.t_last, b.t_last)
    total.size = 1
    return b"".join(total.to_parts())


def test_c06_merge_equals_single_stream_absorption():
    trials = 100
    exact_matches = 0
    bank_matches = 0
    for trial in range(trials):
        rnd = random.Random(trial)
        synth = SynthConfig(
            n_clusters=2,
            n_graphs=rnd.randint(4, 16),
            nodes_per_community=4,
            edges_per_graph=3,
            attrs_per_graph=2,
            class_vocab=3,
            noise_types=(("tags", 6),),
            seed=1000 + trial,
        )
        schema = synth_schema(synth)
        graphs = [preprocess(g, schema) for g in generate_graphs(synth)]
        split = rnd.randint(1, len(graphs) - 1)
        cfg = SketchConfig(rows=4, cols=64, seed=trial)

        whole = ClusterStats.empty(cfg, schema.d)
        part_a = ClusterStats.empty(cfg, schema.d)
        part_b = ClusterStats.empty(cfg, schema.d)
        bank_whole, bank_a, bank_b = (ClusterBank(cfg, schema.d, 1) for _ in range(3))
        for now, g in enumerate(graphs, start=1):
            view = graph_views(g, schema)
            whole.absorb_views(view, now)
            (part_a if now <= split else part_b).absorb_views(view, now)
            _absorb(bank_whole, view, now)
            _absorb(bank_a if now <= split else bank_b, view, now)

        # every field equal: scalars, second moments, config and cells
        if ClusterStats.merge(part_a, part_b) == whole:
            exact_matches += 1
        if _summed_slot(bank_a, bank_b) == b"".join(bank_whole.to_parts()):
            bank_matches += 1

    ok = exact_matches == trials and bank_matches == trials
    _verdict(
        6,
        ok,
        f"field_exact_matches={exact_matches}/{trials} "
        f"bank_slot_matches={bank_matches}/{trials} "
        "(reference summaries field-exact, bank checkpoints byte-identical)",
    )


# -- shared long run for the memory and throughput guarantees ---------------


@pytest.fixture(scope="module")
def long_run():
    synth = SynthConfig(
        n_graphs=50_000,
        edges_per_graph=24,
        attrs_per_graph=4,
        noise_attrs_per_graph=2,
        nodes_per_community=40,
        seed=11,
    )
    schema = synth_schema(synth)
    graphs = [preprocess(g, schema) for g in generate_graphs(synth)]

    def make_engine():
        return Engine(
            EngineConfig(
                k=5, gamma=250, p=3.0, sketch=SketchConfig(rows=10, cols=500, seed=11)
            ),
            schema,
        )

    # Two passes of the stream through one engine: criterion 10 measures the
    # rate's spread over at least five 0.5 s windows, and past about 480,000
    # edges/s one pass of 1.2 million edges spans fewer.
    engine = make_engine()
    marks = [(0.0, 0)]
    edges = 0
    start = time.perf_counter()
    for _ in range(2):
        for g in graphs:
            edges += len(g.edges)
            engine.process(g)
            marks.append((time.perf_counter() - start, edges))
    size_full = len(engine.to_bytes())

    warm = make_engine()
    for g in graphs[:1000]:
        warm.process(g)
    size_1k = len(warm.to_bytes())

    return {"marks": marks, "size_1k": size_1k, "size_full": size_full}


# -- 7: engine state does not grow with the stream --------------------------


def test_c07_checkpoint_size_is_stream_length_invariant(long_run):
    size_1k = long_run["size_1k"]
    size_full = long_run["size_full"]
    ok = size_1k == size_full
    _verdict(
        7,
        ok,
        f"checkpoint_bytes@1k={size_1k} @100k={size_full} "
        f"{'identical' if ok else 'DIFFER'}",
    )


# -- 8: point estimates overrun the advertised error bound rarely -----------


def _c08_trial(cfg: SketchConfig, keys, masses: np.ndarray, probe: int, per_graph: int):
    """(violation, undercut) of the probe key's estimate on the reference
    sketch, then (violation, undercuts) of every key's estimate gathered
    from a bank slot that absorbed the keys as graphs of ``per_graph``. A
    violation is an estimate above the true mass by more than ``eps * T``."""
    slack = math.e / cfg.cols * float(masses.sum())
    digests = key_digests(keys)
    sk = CountMinSketch(cfg)
    sk.update_many(digests, masses)
    est = sk.estimate(digests[probe])
    bank = ClusterBank(cfg, 1, 1)  # the keys are side ids: an edge key holds 0x1f
    for start in range(0, len(keys), per_graph):
        part = slice(start, start + per_graph)
        ids = {key.decode(): mass for key, mass in zip(keys[part], masses[part].tolist())}
        _absorb(bank, view_of({}, ids), start + 1)
    estimates = bank.cells[1, 0][np.arange(cfg.rows)[:, None], digest_buckets(cfg, digests)].min(0)
    return np.array(
        [
            est - masses[probe] > slack,
            est < masses[probe],
            estimates[probe] - masses[probe] > slack,
            np.count_nonzero(estimates < masses),
        ]
    )


def test_c08_overestimate_probability_bound():
    rows, cols = 3, 32
    n_seeds = 400
    delta = math.exp(-rows)
    keys = [f"k{j}".encode() for j in range(150)]
    dense = np.zeros(4, dtype=np.int64)
    sparse = np.zeros(4, dtype=np.int64)
    for seed in range(n_seeds):
        rnd = random.Random(seed)
        cfg = SketchConfig(rows=rows, cols=cols, seed=seed)
        # 150 keys; a few heavy ones keep the excess distribution from
        # collapsing. The bank absorbs them as ten graphs of 15 keys.
        masses = np.array(
            [float(rnd.choice((1, 2, 3, 4, 5, 40))) for _ in keys]
        )
        dense += _c08_trial(cfg, keys, masses, rnd.randrange(len(keys)), 15)
        # 11 unit keys: eps * T = 0.93, so a probe that collides in every
        # row is a violation
        sparse += _c08_trial(cfg, keys[:11], np.ones(11), rnd.randrange(11), 11)

    rate, _, bank_rate, _ = dense / n_seeds
    sparse_rate, _, bank_sparse_rate, _ = sparse / n_seeds
    undercuts = dense[1] + sparse[1]
    bank_undercuts = dense[3] + sparse[3]
    bound = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / n_seeds)
    ok = (
        max(rate, bank_rate, sparse_rate, bank_sparse_rate) <= bound
        and undercuts == 0
        and bank_undercuts == 0
    )
    _verdict(
        8,
        ok,
        f"seeds={n_seeds} violation_rate={rate:.4f} bank_violation_rate={bank_rate:.4f} "
        f"sparse_violation_rate={sparse_rate:.4f} "
        f"bank_sparse_violation_rate={bank_sparse_rate:.4f} "
        f"bound={bound:.4f} (delta={delta:.4f}) undercuts={undercuts} "
        f"bank_undercuts={bank_undercuts}",
    )


# -- 9: closed-form dispersion equals the definitional recomputation --------


def _separating_config(members, d: int) -> SketchConfig:
    """The first seed of a 4 x 1024 sketch in which some row separates each
    component's keys, so no estimate sees a collision."""
    universes = [
        sorted({k for view in members for k in component(view, comp)[0]})
        for comp in range(d + 1)
    ]
    for seed in range(64):
        cfg = SketchConfig(rows=4, cols=1024, seed=seed)
        if all(separating_rows(cfg, keys) for keys in universes):
            return cfg
    raise AssertionError("no separating seed in range")


def test_c09_closed_form_intra_matches_member_sum():
    rnd = random.Random(9)
    clusters_checked = 0
    worst = 0.0
    bank_worst = 0.0
    while clusters_checked < 100:
        n_types = rnd.randint(0, 2)
        schema = StreamSchema(
            side_types=tuple(SideType(f"s{j}") for j in range(n_types))
        )
        members = []
        for member in range(rnd.randint(1, 12)):
            edges = [
                (
                    f"n{rnd.randrange(6)}",
                    f"n{rnd.randrange(6)}",
                    rnd.uniform(0.5, 4.0),
                )
                for _ in range(rnd.randint(0, 5))
            ]
            side = {
                f"s{j}": {
                    f"tok{rnd.randrange(4)}": rnd.uniform(0.25, 3.0)
                    for _ in range(rnd.randint(0, 3))
                }
                for j in range(n_types)
            }
            side = {k: v for k, v in side.items() if v}
            g = GraphObject(id=f"m{member}", edges=edges, side=side)
            members.append(graph_views(preprocess(g, schema), schema))
        exact = ExactBank(schema.d, 1)
        bank = ClusterBank(_separating_config(members, schema.d), schema.d, 1)
        for now, view in enumerate(members, start=1):
            _absorb(exact, view, now)
            _absorb(bank, view, now)
        for comp in range(schema.d + 1):
            definitional = members_intra_sq(members, comp)
            scale = max(1.0, abs(definitional))
            err = abs(routed_spread(exact, members[0], comp) - definitional)
            worst = max(worst, err / scale)
            bank_err = abs(routed_spread(bank, members[0], comp) - definitional)
            bank_worst = max(bank_worst, bank_err / scale)
        clusters_checked += 1

    ok = worst <= 1e-9 and bank_worst <= 1e-9
    _verdict(
        9,
        ok,
        f"clusters={clusters_checked} worst_intra_discrepancy={worst:.2e} "
        f"bank_worst={bank_worst:.2e} (<=1e-9)",
    )


def test_c09_closed_form_intra_survives_a_long_stream():
    # 20,000 members with non-integer masses in one cluster per bank. The
    # closed form subtracts self_product / n (about n * mean^2) from the
    # second moment (about n * E[x^2]); on the edges, whose masses vary by
    # under 1%, the difference is about 1e-5 of either term, so rounding
    # in either sum shows. Tolerance: 1e-9 of the component's second moment.
    rnd = random.Random(99)
    schema = StreamSchema(side_types=(SideType("s0"), SideType("s1")))
    members = []
    for member in range(20_000):
        edges = [(f"n{j}", f"n{j + 1}", rnd.uniform(1.0, 1.01)) for j in range(4)]
        side = {
            f"s{t}": {f"tok{j}": rnd.uniform(0.5, 2.5) for j in range(4) if rnd.random() < 0.7}
            for t in range(2)
        }
        g = GraphObject(id=f"m{member}", edges=edges, side=side)
        members.append(graph_views(preprocess(g, schema), schema))
    exact = ExactBank(schema.d, 1)
    bank = ClusterBank(_separating_config(members, schema.d), schema.d, 1)
    for now, view in enumerate(members, start=1):
        _absorb(exact, view, now)
        _absorb(bank, view, now)

    worst = {"exact": 0.0, "sketch": 0.0}
    worst_of_intra = 0.0
    for comp in range(schema.d + 1):
        definitional = members_intra_sq(members, comp)
        second = float(exact.second_moments[0, comp])
        for name, b in (("exact", exact), ("sketch", bank)):
            err = abs(routed_spread(b, members[0], comp) - definitional)
            worst[name] = max(worst[name], err / second)
            worst_of_intra = max(worst_of_intra, err / definitional)
    ok = max(worst.values()) <= 1e-9
    _verdict(
        9,
        ok,
        f"members={len(members)} worst_exact={worst['exact']:.2e} "
        f"worst_bank={worst['sketch']:.2e} (<=1e-9 of the second moment; "
        f"{worst_of_intra:.2e} of the intra value)",
    )


# -- 10: sustained edge rate with stable windows -----------------------------


def test_c10_throughput_rate_and_stability(long_run):
    marks = long_run["marks"]
    rate = overall_rate(marks)
    windows = throughput(marks)
    rates = np.array([r for _, r in windows], dtype=np.float64)
    assert rate is not None and len(rates) >= 5
    cv = float(rates.std() / rates.mean())

    ok = rate >= 50_000.0 and cv < 0.20
    _verdict(
        10,
        ok,
        f"overall={rate:,.0f} edges/s (>=50,000) windows={len(rates)} "
        f"rate_cv={cv:.3f} (<0.20) min_window={rates.min():,.0f}",
    )


# -- 11: degenerate inputs neither crash nor corrupt state ------------------


def _engine(schema, k=2, gamma=4, **kw):
    return Engine(
        EngineConfig(
            k=k, gamma=gamma, p=3.0, sketch=SketchConfig(rows=4, cols=128, seed=0), **kw
        ),
        schema,
    )


def _state_ok(engine, k):
    return (
        len(engine.bank) <= k
        and all(engine.bank.n[slot] >= 1 for slot in range(len(engine.bank)))
        and np.all(np.isfinite(engine.weights))
        and len(engine.weights) == engine.schema.d + 1
    )


def test_c11_degenerate_inputs_complete_cleanly():
    checks: list[tuple[str, bool]] = []
    edgeless_schema = StreamSchema(side_types=())

    # entirely empty graphs
    eng = _engine(edgeless_schema)
    events = process_all(
        eng,
        [GraphObject(id=f"e{i}", edges=[], side={}) for i in range(8)]
    )
    checks.append(("empty_graphs", len(events) == 8 and _state_ok(eng, 2)))

    # single-node graphs (self loop is the only expressible edge)
    eng = _engine(edgeless_schema)
    events = process_all(
        eng,
        [
            GraphObject(id=f"s{i}", edges=[("a", "a", 1.0)], side={})
            for i in range(6)
        ]
    )
    checks.append(("single_node_graphs", len(events) == 6 and _state_ok(eng, 2)))

    # schema with zero side types runs on edges alone
    eng = _engine(edgeless_schema)
    process_all(
        eng,
        [
            GraphObject(id=f"d{i}", edges=[(f"n{i % 3}", "hub", 2.0)], side={})
            for i in range(10)
        ]
    )
    checks.append(
        ("no_side_types", len(eng.weights) == 1 and _state_ok(eng, 2))
    )

    # identical graphs filling every slot: churn is allowed, faults are not
    schema = StreamSchema(side_types=(SideType("topics"),))
    eng = _engine(schema, k=3)
    dup = [
        GraphObject(
            id=f"dup{i}",
            edges=[("x", "y", 2.0)],
            side={"topics": {"t": 1.0}},
        )
        for i in range(12)
    ]
    events = process_all(eng, dup)
    round_trip = Engine.from_bytes(eng.to_bytes())
    checks.append(
        (
            "duplicates_fill_all_k",
            len(events) == 12
            and eng.graph_count == 12
            and _state_ok(eng, 3)
            and round_trip.to_bytes() == eng.to_bytes(),
        )
    )

    # an all-zero weight vector degrades distances to zero, nothing faults
    eng = _engine(schema, gamma=0)
    eng.weights = np.zeros(schema.d + 1)
    mixed = [
        GraphObject(
            id=f"z{i}",
            edges=[(f"a{i % 2}", "b", float(i + 1))],
            side={"topics": {f"w{i % 3}": 1.0}},
        )
        for i in range(9)
    ]
    events = process_all(eng, mixed)
    distances_collapse = all(
        ev.es_distance_sq == 0.0 and ev.spread == 0.0
        for ev in events
        if ev.action != ACTION_INITIALIZED
    )
    checks.append(
        (
            "all_zero_weights",
            len(events) == 9 and _state_ok(eng, 2) and distances_collapse,
        )
    )

    failed = [name for name, passed in checks if not passed]
    ok = not failed
    _verdict(
        11,
        ok,
        f"cases={'all clean' if ok else 'failed: ' + ', '.join(failed)} "
        f"({len(checks)} degenerate scenarios)",
    )
