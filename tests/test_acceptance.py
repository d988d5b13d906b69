"""Acceptance suite: one test per criterion, reported as a summary table.

Run with ``pytest tests/test_acceptance.py``; a PASS/FAIL line per criterion
prints at the end of the session.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

import hieval
from conftest import criterion, random_prob_rows, random_taxonomy, read_scores, star, synth_instance
from hieval.ensemble import hie_combine, hie_self, marginalize_to_parents
from hieval.fileio import load_hierarchy, save_hierarchy, save_scores
from hieval.metrics import eval_report
from hieval.risk import crm_rerank
from hieval.scores import LOGITS, PROBABILITIES, ScoreMatrix, softmax_rows, top_k
from hieval.synth import SynthConfig
from hieval.taxonomy import (
    ancestor_index_map,
    build_taxonomy,
    cost_matrix,
    parent_index_map,
)


def taxonomy_pool(rng, count, max_leaves=64, min_nodes=4, max_nodes=130):
    pool = []
    while len(pool) < count:
        t = random_taxonomy(rng, int(rng.integers(min_nodes, max_nodes)))
        if 2 <= t.n_leaves <= max_leaves:
            pool.append(t)
    return pool


def report(ranking, gt, t, ks=(1,)):
    """``eval_report`` of a ranking; a prediction vector ``pred`` is ``pred[:, None]``."""
    return eval_report(ranking, gt, t, ks, "m")


def prob_matrix(rows, names=None):
    rows = np.atleast_2d(rows)
    names = names or tuple(f"c{i}" for i in range(rows.shape[1]))
    return ScoreMatrix(rows, PROBABILITIES, tuple(names))


# criterion 1: conditioned on a correct coarse argmax, combining never shrinks
# the true class's probability: s_g / q_g >= 1 - 1e-12 on 10,000 instances.
def test_c01_guaranteed_gain_suite():
    with criterion(1, "combining gain >= 1 under correct coarse argmax (10,000 cases)") as d:
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        pool = taxonomy_pool(rng, 50)
        per_batch = 200
        total = 0
        min_margin = np.inf
        for t in pool:
            pmap = parent_index_map(t)
            q = random_prob_rows(rng, per_batch, t.n_leaves)
            r = random_prob_rows(rng, per_batch, t.n_coarse)
            jstar = np.argmax(r, axis=1)
            goals = np.array(
                [rng.choice(np.flatnonzero(pmap == j)) for j in jstar], dtype=np.int64
            )
            s = hie_combine(prob_matrix(q), [(prob_matrix(r), pmap)]).values
            rows = np.arange(per_batch)
            margins = s[rows, goals] / q[rows, goals]
            min_margin = min(min_margin, margins.min())
            assert (margins >= 1 - 1e-12).all()
            # the same gain from one-row calls on a sample
            for i in range(2):
                g = int(goals[i])
                s_i = hie_combine(prob_matrix(q[i]), [(prob_matrix(r[i]), pmap)]).values
                assert s_i[0, g] / q[i, g] >= 1 - 1e-12
            total += per_batch
        elapsed = time.perf_counter() - start
        assert total == 10_000
        assert elapsed < 10.0
        d["text"] = f"min margin {min_margin:.15f}, {elapsed:.1f}s"


# criterion 2: same conditioning plus a correct, unique fine argmax never
# changes the argmax after combining.
def test_c02_argmax_preservation_suite():
    with criterion(2, "argmax preserved under correct coarse + fine argmax (10,000 cases)") as d:
        rng = np.random.default_rng(2025)
        pool = taxonomy_pool(rng, 50)
        per_batch = 200
        total = 0
        for t in pool:
            pmap = parent_index_map(t)
            q = random_prob_rows(rng, per_batch, t.n_leaves)
            goals = np.argmax(q, axis=1)
            r = random_prob_rows(rng, per_batch, t.n_coarse)
            rows = np.arange(per_batch)
            jmax = np.argmax(r, axis=1)
            target = pmap[goals]
            swap = r[rows, jmax].copy()
            r[rows, jmax] = r[rows, target]
            r[rows, target] = swap
            assert (np.argmax(r, axis=1) == target).all()
            s = hie_combine(prob_matrix(q), [(prob_matrix(r), pmap)])
            assert (top_k(s, 1)[:, 0] == goals).all()
            total += per_batch
        assert total == 10_000
        d["text"] = "10000/10000 preserved"


# criterion 3: identity relations between combining flavors.
def test_c03_identity_suite():
    with criterion(3, "uniform-coarse identity, cascade and self-ensemble equivalences") as d:
        rng = np.random.default_rng(2026)
        worst = 0.0
        for t in taxonomy_pool(rng, 10):
            pmap = parent_index_map(t)
            q = prob_matrix(random_prob_rows(rng, 100, t.n_leaves))
            uniform = prob_matrix(np.full((100, t.n_coarse), 1.0 / t.n_coarse))
            diff = np.abs(hie_combine(q, [(uniform, pmap)]).values - q.values).max()
            worst = max(worst, diff)
            assert diff <= 1e-12

            # A cascade's extra uniform level carries no information either.
            r = prob_matrix(random_prob_rows(rng, 100, t.n_coarse))
            plain = hie_combine(q, [(r, pmap)]).values
            cascaded = hie_combine(q, [(r, pmap), (uniform, pmap)]).values
            diff = np.abs(cascaded - plain).max()
            worst = max(worst, diff)
            assert diff <= 1e-12
            assert np.array_equal(
                hie_self(q, pmap, t.n_coarse).values,
                hie_combine(q, [(marginalize_to_parents(q, pmap, t.n_coarse), pmap)]).values,
            )
        d["text"] = f"max uniform-level deviation {worst:.2e}"


# criterion 4: expected-cost reranking agrees with a brute-force oracle, and
# 0/1 costs (a star's LCA heights) reduce it to plain descending-probability order.
def test_c04_crm_oracle_suite():
    with criterion(4, "reranking matches brute-force argmin on 1,000 small cases") as d:
        rng = np.random.default_rng(2027)
        start = time.perf_counter()
        done = 0
        while done < 1000:
            t = random_taxonomy(rng, int(rng.integers(3, 16)))
            if t.n_leaves > 10:
                continue
            costs = cost_matrix(t)
            p = random_prob_rows(rng, 1, t.n_leaves)
            ranking = crm_rerank(prob_matrix(p, t.leaf_names()), t)
            best, best_risk = 0, float("inf")
            for i in range(t.n_leaves):
                risk = 0.0
                for j in range(t.n_leaves):
                    risk += costs[i, j] * p[0, j]
                if risk < best_risk:
                    best, best_risk = i, risk
            assert int(top_k(ranking, 1)[0, 0]) == best

            flat_tree = star(t.n_leaves)
            flat = crm_rerank(prob_matrix(p, flat_tree.leaf_names()), flat_tree)
            full = top_k(flat, t.n_leaves)
            assert full.tolist() == np.argsort(-p, axis=1, kind="stable").tolist()
            done += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        d["text"] = f"1000/1000 matched, {elapsed:.1f}s"


# criterion 5: hier-dist@1 decomposes exactly into error rate times severity,
# and every metric equals a direct-loop oracle on small instances.
def test_c05_metric_identity_suite():
    with criterion(5, "distance@1 decomposition and direct-loop metric oracle") as d:
        rng = np.random.default_rng(2028)
        worst = 0.0
        done = 0
        while done < 1000:
            t = random_taxonomy(rng, int(rng.integers(3, 40)))
            n = int(rng.integers(1, 80))
            pred = rng.integers(0, t.n_leaves, size=n)
            gt = rng.integers(0, t.n_leaves, size=n)
            if (pred == gt).all():
                continue
            rep = report(pred[:, None], gt, t)
            acc, sev, hd1 = rep.top1_accuracy, rep.avg_mistake_severity, rep.hier_dist_at_k[1]
            gap = abs(hd1 - (1 - acc) * sev)
            worst = max(worst, gap)
            assert gap <= 1e-9
            done += 1

        oracle_checked = 0
        while oracle_checked < 50:
            t = random_taxonomy(rng, int(rng.integers(4, 24)))
            if t.n_leaves > 16:
                continue
            costs = cost_matrix(t)
            n = int(rng.integers(1, 100))
            k = int(rng.integers(1, t.n_leaves + 1))
            ranking = np.stack([rng.permutation(t.n_leaves) for _ in range(n)])
            gt = rng.integers(0, t.n_leaves, size=n)
            correct = sum(1 for i in range(n) if ranking[i, 0] == gt[i])
            sev_total = mistakes = hd_total = 0
            for i in range(n):
                if ranking[i, 0] != gt[i]:
                    mistakes += 1
                    sev_total += int(costs[ranking[i, 0], gt[i]])
                for j in range(k):
                    hd_total += int(costs[ranking[i, j], gt[i]])
            rep = report(ranking, gt, t, [k])
            assert rep.top1_accuracy == correct / n
            expected_sev = None if mistakes == 0 else sev_total / mistakes
            assert rep.avg_mistake_severity == expected_sev
            assert rep.hier_dist_at_k[k] == hd_total / (n * k)
            oracle_checked += 1
        d["text"] = f"max decomposition gap {worst:.2e}"


# criterion 6: the four-leaf worked example reproduces the prediction flip.
def test_c06_worked_example_reproduction():
    with criterion(6, "rose/tulip/bus/car example: scores and rose-to-bus flip") as d:
        t = build_taxonomy(
            [("rose", "flower"), ("tulip", "flower"), ("bus", "vehicle"),
             ("car", "vehicle"), ("flower", "entity"), ("vehicle", "entity")],
            leaf_order=["rose", "tulip", "bus", "car"],
        )
        q = prob_matrix([[0.40, 0.10, 0.35, 0.15]], t.leaf_names())
        r = prob_matrix([[0.2, 0.8]], t.coarse_names())
        s = hie_combine(q, [(r, parent_index_map(t))])
        np.testing.assert_allclose(
            s.values[0], [0.16, 0.04, 0.56, 0.24], rtol=0, atol=1e-12
        )
        before = t.leaf_names()[int(top_k(q, 1)[0, 0])]
        after = t.leaf_names()[int(top_k(s, 1)[0, 0])]
        assert (before, after) == ("rose", "bus")
        d["text"] = f"prediction {before} -> {after}"


# criterion 7: directional synthetic study; combining a separate accurate
# coarse model beats the plain fine argmax on nearly every seed, and the
# self-ensemble never costs top-1 accuracy where its coarse marginals are
# correct.
def test_c07_directional_synthetic_study():
    with criterion(7, "synthetic 8x8 study: combining wins on 19/20+ seeds") as d:
        start = time.perf_counter()
        wins_acc = wins_hd = self_ok = 0
        for seed in range(20):
            cfg = SynthConfig(branching=(8, 8), n_samples=2000, noise=(0.5, 2.0), seed=seed)
            t, labels, fine_logits, uppers = synth_instance(cfg)
            pmap = parent_index_map(t)
            fine = softmax_rows(fine_logits)
            coarse = softmax_rows(uppers[0])

            plain = top_k(fine, 1)[:, 0]
            combined = top_k(hie_combine(fine, [(coarse, pmap)]), 1)[:, 0]
            rep_plain = report(plain[:, None], labels, t)
            rep_comb = report(combined[:, None], labels, t)
            wins_acc += rep_comb.top1_accuracy > rep_plain.top1_accuracy
            wins_hd += rep_comb.hier_dist_at_k[1] < rep_plain.hier_dist_at_k[1]

            marginals = marginalize_to_parents(fine, pmap, t.n_coarse)
            correct_marginal = top_k(marginals, 1)[:, 0] == pmap[labels]
            self_pred = top_k(hie_self(fine, pmap, t.n_coarse), 1)[:, 0]
            ok = labels[correct_marginal]
            acc_plain = report(plain[correct_marginal][:, None], ok, t).top1_accuracy
            acc_self = report(self_pred[correct_marginal][:, None], ok, t).top1_accuracy
            self_ok += acc_self >= acc_plain - 1e-9
        elapsed = time.perf_counter() - start
        assert wins_acc >= 19
        assert wins_hd >= 19
        assert self_ok == 20
        assert elapsed < 60.0
        d["text"] = f"top-1 wins {wins_acc}/20, dist@1 wins {wins_hd}/20, {elapsed:.1f}s"


# criterion 8: with an uninformative top level, adding it to the cascade
# moves distance@1 by less than the gain the informative middle level brought.
def test_c08_cascade_tapering_probe():
    with criterion(8, "cascade tapering: noisy top level shifts less than middle gains") as d:
        gains_mid, changes_top = [], []
        for seed in range(20):
            cfg = SynthConfig(
                branching=(3, 3, 4), n_samples=1500, noise=(10.0, 0.5, 2.0), seed=seed
            )
            t, labels, fine_logits, uppers = synth_instance(cfg)
            fine = softmax_rows(fine_logits)
            top, mid = (softmax_rows(m) for m in uppers)
            amap_top = ancestor_index_map(t, 1)
            amap_mid = ancestor_index_map(t, 2)

            plain = top_k(fine, 1)[:, 0]
            with_mid = top_k(hie_combine(fine, [(mid, amap_mid)]), 1)[:, 0]
            with_both = top_k(hie_combine(fine, [(top, amap_top), (mid, amap_mid)]), 1)[:, 0]
            d0, dm, db = (report(p[:, None], labels, t).hier_dist_at_k[1]
                          for p in (plain, with_mid, with_both))
            gains_mid.append(d0 - dm)
            changes_top.append(abs(db - dm))
        mean_gain = float(np.mean(gains_mid))
        mean_change = float(np.mean(changes_top))
        assert mean_change < mean_gain
        d["text"] = f"middle gain {mean_gain:.3f} vs top change {mean_change:.3f}"


# criterion 9: bulk binary round-trip speed, hierarchy round-trip, and
# byte-identical CLI output across invocations, thread counts and worker counts.
def test_c09_io_round_trip_and_determinism(tmp_path):
    with criterion(9, "bit-exact I/O round-trips and byte-deterministic CLI") as d:
        rng = np.random.default_rng(99)
        big = ScoreMatrix(
            rng.random((10_000, 1010)), LOGITS,
            tuple(f"s{i:04d}" for i in range(1010)),
        )
        path = str(tmp_path / "big.hies")
        start = time.perf_counter()
        save_scores(big, path)
        back = read_scores(path)
        elapsed = time.perf_counter() - start
        assert np.array_equal(back.values, big.values)
        assert elapsed < 2.0

        t = random_taxonomy(rng, 300)
        hpath = str(tmp_path / "h.json")
        save_hierarchy(t, hpath)
        t2 = load_hierarchy(hpath)
        as_map = lambda tax: {
            tax.names[i]: None if tax.parent[i] is None else tax.names[tax.parent[i]]
            for i in range(tax.n_nodes)
        }
        assert as_map(t2) == as_map(t)

        # On all usable CPUs `eval` and `compare` fork a worker per CPU; narrowed
        # to one CPU they run in one process.
        outputs = [_run_cli_pipeline(tmp_path / f"run{i}", threads, one_cpu)
                   for i, (threads, one_cpu) in enumerate([("1", False), ("1", False),
                                                           ("4", False), ("1", True)])]
        names = sorted(outputs[0])
        for other in outputs[1:]:
            assert sorted(other) == names
            for name in names:
                assert other[name] == outputs[0][name], name
        assert elapsed < 2.0
        d["text"] = f"80.8 MB round-trip {elapsed:.2f}s, {len(names)} artifacts identical"


def _run_cli_pipeline(workdir, threads: str, one_cpu: bool) -> dict[str, bytes]:
    """synth -> infer -> eval -> compare -> costs under a given thread setting,
    on every CPU this process may use or on one of them."""
    workdir = str(workdir)
    os.makedirs(workdir)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    # The child runs in workdir, so a relative PYTHONPATH inherited from the
    # parent would not find the package; point it at the one under test.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(hieval.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    narrow = (lambda: os.sched_setaffinity(0, cpus[:1])) if one_cpu and cpus else None

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "hieval", *args],
            capture_output=True, env=env, cwd=workdir, preexec_fn=narrow,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    stdouts = []
    # 64 leaves give 1024-row blocks: block 0 and 9 more, enough for 2 processes.
    cli("synth", "--branching", "8,8", "--noise", "0.5,2.0",
        "--n-samples", "10240", "--seed", "11", "--out-dir", "inst")
    cli("infer", "--hierarchy", "inst/hierarchy.json", "--fine", "inst/fine.hies",
        "--coarse", "inst/level_d1.hies", "--kind", "logits", "--method", "hie",
        "--out", "combined.hies")
    stdouts.append(cli("eval", "--hierarchy", "inst/hierarchy.json",
                       "--fine", "inst/fine.hies", "--coarse", "inst/level_d1.hies",
                       "--kind", "logits", "--labels", "inst/labels.txt",
                       "--method", "hie", "--k", "1,5,20", "--out", "report.json"))
    stdouts.append(cli("compare", "--hierarchy", "inst/hierarchy.json",
                       "--fine", "inst/fine.hies", "--coarse", "inst/level_d1.hies",
                       "--kind", "logits", "--labels", "inst/labels.txt",
                       "--methods", "argmax,hie,hie-self,crm,hie-crm",
                       "--k", "1,5,20", "--out", "table.json"))
    cli("costs", "--hierarchy", "inst/hierarchy.json", "--out", "costs.hies")

    artifacts = {"stdout": b"".join(stdouts)}
    for root, _, files in os.walk(workdir):
        for name in files:
            full = os.path.join(root, name)
            rel = os.path.relpath(full, workdir)
            with open(full, "rb") as f:
                artifacts[rel] = f.read()
    return artifacts


# criterion 10: published taxonomy shapes validate with the expected counts.
def test_c10_reference_shape_fixtures(tmp_path, capsys):
    with criterion(10, "1010/72 and 608/201 shaped taxonomies validate correctly") as d:
        from hieval.cli import run

        shapes = [(1010, 72), (608, 201)]
        seen = []
        for n_leaves, n_coarse in shapes:
            edges = [(f"leaf{i:04d}", f"parent{i % n_coarse:03d}") for i in range(n_leaves)]
            edges += [(f"parent{j:03d}", "root") for j in range(n_coarse)]
            t = build_taxonomy(edges)
            path = str(tmp_path / f"shape_{n_leaves}.json")
            save_hierarchy(t, path)
            assert run(["validate", "--hierarchy", path]) == 0
            line = capsys.readouterr().out.strip()
            assert f"leaves={n_leaves} coarse={n_coarse}" in line
            assert line.endswith("leveled=yes")
            seen.append(f"{n_leaves}/{n_coarse}")
            pmap = parent_index_map(t)
            assert pmap.min() >= 0 and pmap.max() < n_coarse
        d["text"] = ", ".join(seen)
