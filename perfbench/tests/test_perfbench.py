"""Tests of the benchmark itself: corpus determinism, checkers that count
tampered outputs as failures, repeatable traced counts, and the refusal to
run without the package source."""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

import solvstrat.strata  # noqa: E402


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_is_byte_identical_per_seed(workload):
    first = corpus.corpus_bytes(corpus.generate(workload, 7))
    assert corpus.corpus_bytes(corpus.generate(workload, 7)) == first
    assert corpus.corpus_bytes(corpus.generate(workload, 8)) != first
    # more rounds extend a corpus and leave its first rounds as they were
    short = corpus.generate(workload, 7, 2)
    assert corpus.generate(workload, 7, 3)[:len(short)] == short


def test_oracle_agrees_with_pinned_constants():
    F = Fraction
    assert checks.ricci_verdict(1, 4, {(2, 3, 4): F(1), (1, 2, 2): F(1, 2),
                                       (1, 3, 3): F(1, 2), (1, 4, 4): F(1)}) == (F(-3, 2), True)
    assert checks.ricci_verdict(2, 3, {(1, 2, 3): F(1)}) == (F(-1, 6), False)
    for n in range(2, 9):
        rh = {(1, 1 + j, 1 + j): F(1) for j in range(1, n + 1)}
        assert checks.ricci_verdict(1, n + 1, rh) == (F(-n), True)


def _ops(workload, seed, tmp_path, count):
    return run.prepare(workload, seed, tmp_path / workload)[1][:count]


def test_label_checker_counts_a_tampered_label(tmp_path):
    specs = corpus.generate("exact-label", 3)
    op = run._label_op(next(s for s in specs if s["id"] == "free3"))
    beta, chamber, sigma, moved_beta, cert = op.run()
    assert op.check((beta, chamber, sigma, moved_beta, cert)) == (checks.OK, "")
    spec = next(s for s in specs if s["id"] == "free3")
    bad = list(beta.entries)
    bad[0], bad[-1] = bad[-1], bad[0]   # still trace -1, wrong label
    verdict, _ = checks.check_label(spec["coeffs"], bad, chamber.entries, sigma,
                                    moved_beta.entries, cert.checks, True, spec["label"])
    assert verdict == checks.WRONG
    failing = dict(cert.checks, adbeta_nonneg=False)
    verdict, _ = checks.check_label(spec["coeffs"], beta.entries, chamber.entries, sigma,
                                    moved_beta.entries, failing, True, spec["label"])
    assert verdict == checks.FAILED


def test_flow_checker_counts_wrong_label_and_exit_code(tmp_path):
    spec = corpus.generate("flow-stratum", 3)[0]   # a GL-moved h3: certifies
    op = _ops("flow-stratum", 3, tmp_path, 1)[0]
    code, out = op.run()
    assert op.check((code, out)) == (checks.OK, "")
    report = json.loads(out)
    report["certificate"]["beta"] = ["-1/3"] * 3
    assert checks.check_cli(spec["argv"], spec["file"], spec["expect"], 0,
                            json.dumps(report))[0] == checks.WRONG
    assert checks.check_cli(spec["argv"], spec["file"], spec["expect"], 2, out)[0] \
        == checks.FAILED


def test_min_norm_checker_counts_a_perturbed_weight(tmp_path):
    specs = corpus.generate("minnorm-points", 3)
    idx = next(i for i, s in enumerate(specs) if "shifted" in s["id"])
    op = _ops("minnorm-points", 3, tmp_path, idx + 1)[idx]
    code, out = op.run()
    assert op.check((code, out)) == (checks.OK, "")
    result = json.loads(out)["result"]
    support = result["support"]
    tampered = copy.deepcopy(result)
    w = [Fraction(x) for x in tampered["weights"]]
    w[support[0]] += Fraction(1, 7)
    w[(support[0] + 1) % len(w)] -= Fraction(1, 7)   # keeps the sum at 1
    tampered["weights"] = [str(x) for x in w]
    assert checks.check_min_norm(specs[idx]["file"]["points"], tampered)[0] == checks.WRONG


def test_einstein_checker_counts_wrong_constant_and_exit_code(tmp_path):
    ops = _ops("einstein-audit", 3, tmp_path, 3)
    specs = corpus.generate("einstein-audit", 3)[:3]
    for op, spec in zip(ops, specs):
        code, out = op.run()
        assert op.check((code, out)) == (checks.OK, ""), spec["id"]
        if spec["argv"][0] == "einstein":
            report = json.loads(out)
            report["curvature"]["einstein"]["c"] = "-1"
            assert checks.check_cli(spec["argv"], spec["file"], spec["expect"], code,
                                    json.dumps(report))[0] == checks.WRONG
        assert checks.check_cli(spec["argv"], spec["file"], spec["expect"], 3, out)[0] \
            == checks.FAILED


def _traced_counts(tmp_path, tag):
    small = [op for op in _ops("minnorm-points", 5, tmp_path / tag, 20)
             if "shifted" in op.id][:2]
    small += [op for op in _ops("exact-label", 5, tmp_path / tag, 40)
              if op.id.endswith("-4")][:2]
    ops = _ops("flow-stratum", 5, tmp_path / tag, 2) + small
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            op.run()
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans)
    return {k: m[k][0] for k in tracing.DETERMINISTIC}, m


def test_traced_counts_repeat_exactly(tmp_path):
    first, metrics = _traced_counts(tmp_path, "a")
    second, _ = _traced_counts(tmp_path, "b")
    assert first == second
    assert all(v > 0 for v in first.values())
    assert metrics["cli.self_s"][0] > 0 and metrics["flow.step_attempts"][0] > 0
    # uninstall restored the originals
    assert solvstrat.strata.beta_of.__module__ == "solvstrat.strata"
    assert not hasattr(solvstrat.strata.beta_of, "__wrapped__")


def _result(capsys, workload, seed):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", "0"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_a_seed_fixes_the_attempted_and_failed_counts(capsys):
    first = _result(capsys, "flow-stratum", 4)
    second = _result(capsys, "flow-stratum", 4)
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first["failed"] > 0   # the flow defect shows
    assert set(first["metrics"]) == {"ops_per_s", "latency_p50_ms", "latency_tail_ms",
                                     "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flow-stratum",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
