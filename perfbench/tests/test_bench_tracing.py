"""The traced run leaves relbell's outputs and functions as they were."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

# The benchmark's modules import each other by bare name, and relbell
# comes from the source tree, as when perfbench/run.py starts them.
_BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_BENCH), str(_BENCH.parent / "src")]

import tracing
import worker
import workloads


def _bindings():
    """Every traced name as currently bound in every relbell module."""
    found = {}
    for home, attr, _ in tracing.TRACED:
        if "." in attr:
            cls_name, method = attr.split(".")
            found[attr] = getattr(importlib.import_module(home), cls_name).__dict__[method]
            continue
        for module_name in tracing._MODULES:
            module = importlib.import_module(module_name)
            if attr in module.__dict__:
                found[(module_name, attr)] = module.__dict__[attr]
    return found


def test_install_patches_every_importing_module_and_restore_undoes_it():
    # The relbell package re-exports the function audit, which hides the
    # submodule of that name as a package attribute.
    audit_module = importlib.import_module("relbell.audit")
    bell_module = importlib.import_module("relbell.bell")
    before = _bindings()
    with tracing.Tracer():
        assert audit_module.chsh_value is bell_module.chsh_value
        assert audit_module.chsh_value is not before[("relbell.bell", "chsh_value")]
    assert _bindings() == before


def test_restore_after_an_error_inside_the_traced_region():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_traced_op_writes_the_same_bytes_as_an_untraced_op(tmp_path):
    cycle = next(workloads.figures(np.random.default_rng(8), tmp_path))
    ops = [op for op in cycle if op.argv[0] in ("fig3", "fig2", "chsh")][:6]
    runner = worker.Runner(tmp_path)
    plain = [runner.call(op)[1:] for op in ops]
    tracer = tracing.Tracer()
    with tracer:
        traced = [runner.call(op, tracer)[1:] for op in ops]
    assert traced == plain
    assert tracer.counts["cli.out_bytes"] == sum(len(text) for _, text in plain)


def test_self_times_add_up_to_the_op_spans(tmp_path):
    cycle = next(workloads.crosscheck(np.random.default_rng(2), tmp_path))
    tracer = tracing.Tracer()
    runner = worker.Runner(tmp_path)
    with tracer:
        for op in cycle[:10]:
            runner.run(op, tracer)
    name_of, parent, start, end = tracer.arrays()
    duration = end - start
    own = duration - np.bincount(parent[parent >= 0], weights=duration[parent >= 0],
                                 minlength=len(duration))
    assert np.all(own >= 0)
    assert own.sum() == pytest.approx(duration[name_of == 0].sum(), rel=1e-12)


def _counts(metrics):
    count_like = (".calls", ".points", ".gaps", ".samples", "_bytes", ".check_failed",
                  ".per_chsh", "_per_op", ".accept_ratio")
    return {k: v for k, v in metrics.items() if k.endswith(count_like)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_traced_runs_of_one_seed_give_identical_counts(name, tmp_path):
    runs = []
    for k in range(2):
        scratch = tmp_path / f"run{k}"
        scratch.mkdir()
        result = worker.trace(name, 17, scratch)
        assert result["failed"] == 0
        runs.append(_counts(result["metrics"]))
    assert runs[0] == runs[1]
    assert runs[0]["bell.chsh_value.calls"] > 0
