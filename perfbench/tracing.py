"""Spans around calls into relbell's public functions, from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
relbell module that holds a reference to it (``relbell.audit.chsh_value``
and ``relbell.bell.chsh_value`` alike), and on the classes for methods;
``Tracer.restore`` puts every original back. A span records a name id,
parent span id, start and end in nanoseconds. Spans stay in memory in
typed arrays until the run ends, when ``save`` writes them out and
``layer_metrics`` reduces them.

Self time is a span's duration minus the durations of its direct
children; spans are strictly nested because the workload runs in one
thread.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

_MODULES = ("relbell", "relbell.linalg", "relbell.kinematics", "relbell.observables",
            "relbell.bell", "relbell.dirac", "relbell.audit", "relbell.cli")

DIRAC_CHECKS = ("spin_spectrum_check", "eigenstate_check", "precession_check",
                "hamiltonian_identity_check", "spin_form_agreement_check", "casimir_check",
                "evenness_check", "massless_even_velocity_check")

#: (defining module, attribute, span name). Attributes with a dot are
#: methods, patched on their class.
TRACED = (
    ("relbell.kinematics", "BeamVelocity.of", "kinematics.BeamVelocity_of"),
    ("relbell.kinematics", "alpha_norm", "kinematics.alpha_norm"),
    ("relbell.kinematics", "check_unit", "kinematics.check_unit"),
    ("relbell.observables", "eprb_closed_form", "observables.eprb_closed_form"),
    ("relbell.observables", "eprb_oracle", "observables.eprb_oracle"),
    ("relbell.observables", "spin_observable", "observables.spin_observable"),
    ("relbell.observables", "singlet_state", "observables.singlet_state"),
    ("relbell.linalg", "kron", "linalg.kron"),
    ("relbell.linalg", "herm_eig", "linalg.herm_eig"),
    ("relbell.linalg", "pauli_dot", "linalg.pauli_dot"),
    ("relbell.bell", "chsh_value", "bell.chsh_value"),
    ("relbell.bell", "scan_beta_phi", "bell.scan_beta_phi"),
    ("relbell.bell", "scan_theta_phi", "bell.scan_theta_phi"),
    ("relbell.bell", "ScanTable.to_csv", "bell.to_csv"),
    ("relbell.bell", "maximize_chsh", "bell.maximize_chsh"),
    ("relbell.dirac", "build_context", "dirac.build_context"),
    *(("relbell.dirac", name, f"dirac.{name}") for name in DIRAC_CHECKS),
    ("relbell.audit", "load_distribution", "audit.load_distribution"),
    ("relbell.audit", "per_sample_chsh", "audit.per_sample_chsh"),
    ("relbell.audit", "audit", "audit.audit"),
    ("relbell.audit", "AuditReport.to_json", "audit.to_json"),
    ("relbell.cli", "main", "cli.main"),
    ("relbell.cli", "build_parser", "cli.build_parser"),
)


def _observe(counts, name, args, kwargs, result):
    """Work counts read off the arguments and results of a traced call."""
    if name in ("bell.scan_beta_phi", "bell.scan_theta_phi"):
        counts["bell.scan.points"] += result.values.shape[0] * result.values.shape[1]
        counts["bell.scan.gaps"] += len(result.gaps)
    elif name == "bell.to_csv":
        counts["bell.to_csv.bytes"] += len(result)
    elif name == "bell.maximize_chsh":
        counts["bell.maximize_chsh.accepted"] += len(kwargs.get("trace") or ())
    elif name == "audit.load_distribution":
        counts["audit.load.rows"] += len(result)
    elif name == "audit.audit":
        counts["audit.samples"] += len(result.samples)
    elif name == "audit.to_json":
        counts["audit.to_json.bytes"] += len(result)


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        self.names = ["op"]
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = {}
        self.counts = {key: 0 for key in (
            "bell.scan.points", "bell.scan.gaps", "bell.to_csv.bytes",
            "bell.maximize_chsh.accepted", "audit.load.rows", "audit.samples",
            "audit.to_json.bytes", "cli.out_bytes")}
        self._stack = [-1]
        self._patched = []

    def _enter(self, name_id) -> int:
        sid = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def _exit(self, sid):
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def op(self, fn, *args, **kwargs):
        """Run one op under a root span named 'op'."""
        sid = self._enter(0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(sid)

    def wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        enter, leave, counts = self._enter, self._exit, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] = self.raised.get(name, 0) + 1
                raise
            finally:
                leave(sid)
            _observe(counts, name, args, kwargs, result)
            return result
        return traced

    def install(self):
        modules = [importlib.import_module(m) for m in _MODULES]
        try:
            for home, attr, name in TRACED:
                owner = importlib.import_module(home)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    if isinstance(original, classmethod):
                        replacement = classmethod(self.wrap(name, original.__func__))
                    else:
                        replacement = self.wrap(name, original)
                    self._patched.append((cls, method, original))
                    setattr(cls, method, replacement)
                    continue
                original = getattr(owner, attr)
                replacement = self.wrap(name, original)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, replacement)
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def arrays(self):
        return (np.frombuffer(self.name_of, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def save(self, path):
        """Write every span (name id, parent id, start, end) and the names."""
        name_of, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_of=name_of, parent=parent,
                 start=start, end=end)


def _inside(name_of, parent, target_ids):
    """Mask of spans that have an ancestor whose name id is in target_ids."""
    inside = np.zeros(name_of.shape, dtype=bool)
    hop = parent.copy()
    while True:
        live = hop >= 0
        if not live.any():
            return inside
        inside[live] |= np.isin(name_of[hop[live]], target_ids)
        hop[live] = parent[hop[live]]


def is_per_call_time(name) -> bool:
    """Whether a metric is a time per call (or a rate) of one layer, as
    opposed to a count, a share of the workload, or the tracing cost."""
    return name.endswith(("_us", "_ms", ".ms", "_per_s"))


def op_seconds(tracer) -> float:
    """Summed duration of the root 'op' spans."""
    name_of, _, start, end = tracer.arrays()
    return float(np.sum((end - start)[name_of == 0])) / 1e9


def layer_metrics(tracer, ops):
    """Per-layer metrics of one traced pass over ops."""
    name_of, parent, start, end = tracer.arrays()
    ids = {name: k for k, name in enumerate(tracer.names)}
    n_names = len(tracer.names)
    duration = (end - start).astype(float)
    child = np.bincount(parent[parent >= 0], weights=duration[parent >= 0],
                        minlength=len(duration))
    own = duration - child
    calls = np.bincount(name_of, minlength=n_names)
    self_ns = np.bincount(name_of, weights=own, minlength=n_names)
    incl_ns = np.bincount(name_of, weights=duration, minlength=n_names)
    traced_ns = incl_ns[ids["op"]]

    def n(name):
        return int(calls[ids[name]])

    def mean_self(names, scale):
        total = sum(calls[ids[x]] for x in names)
        return float(sum(self_ns[ids[x]] for x in names) / total / scale) if total else 0.0

    def mean_incl(name):
        return float(incl_ns[ids[name]] / calls[ids[name]] / 1e3) if calls[ids[name]] else 0.0

    def rate(count, name):
        return float(count / (incl_ns[ids[name]] / 1e9)) if incl_ns[ids[name]] else 0.0

    counts = tracer.counts
    m = {}
    m["cli.build_parser_ms"] = mean_self(["cli.build_parser"], 1e6)
    m["cli.main.self_ms"] = mean_self(["cli.main"], 1e6)
    m["cli.out_bytes"] = counts["cli.out_bytes"]
    for short in ("BeamVelocity_of", "alpha_norm", "check_unit"):
        m[f"kinematics.{short}.calls"] = n(f"kinematics.{short}")
        m[f"kinematics.{short}.self_us"] = mean_self([f"kinematics.{short}"], 1e3)
    in_chsh = _inside(name_of, parent, [ids["bell.chsh_value"]])
    unit_in_chsh = int(np.count_nonzero(in_chsh & (name_of == ids["kinematics.check_unit"])))
    m["kinematics.check_unit.per_chsh"] = (
        unit_in_chsh / n("bell.chsh_value") if n("bell.chsh_value") else 0.0)
    for short in ("eprb_closed_form", "eprb_oracle"):
        m[f"observables.{short}.calls"] = n(f"observables.{short}")
        m[f"observables.{short}.self_us"] = mean_self([f"observables.{short}"], 1e3)
    m["observables.spin_observable.self_us"] = mean_self(["observables.spin_observable"], 1e3)
    m["observables.singlet_state.self_us"] = mean_self(["observables.singlet_state"], 1e3)
    for short in ("kron", "herm_eig"):
        m[f"linalg.{short}.calls"] = n(f"linalg.{short}")
        m[f"linalg.{short}.self_us"] = mean_self([f"linalg.{short}"], 1e3)
    m["linalg.pauli_dot.calls"] = n("linalg.pauli_dot")
    m["bell.chsh_value.calls"] = n("bell.chsh_value")
    m["bell.chsh_value.self_us"] = mean_self(["bell.chsh_value"], 1e3)
    m["bell.scan.self_ms"] = mean_self(["bell.scan_beta_phi", "bell.scan_theta_phi"], 1e6)
    m["bell.scan.points"] = counts["bell.scan.points"]
    m["bell.scan.gaps"] = counts["bell.scan.gaps"]
    m["bell.to_csv.ms"] = mean_self(["bell.to_csv"], 1e6)
    m["bell.to_csv.bytes_per_s"] = rate(counts["bell.to_csv.bytes"], "bell.to_csv")
    m["bell.maximize_chsh.self_ms"] = mean_self(["bell.maximize_chsh"], 1e6)
    searches = n("bell.maximize_chsh")
    evals = int(np.count_nonzero((name_of == ids["bell.chsh_value"]) & (parent >= 0)
                                 & (name_of[np.maximum(parent, 0)] == ids["bell.maximize_chsh"])))
    m["bell.maximize_chsh.evals_per_op"] = evals / searches if searches else 0.0
    m["bell.maximize_chsh.accept_ratio"] = (
        counts["bell.maximize_chsh.accepted"] / evals if evals else 0.0)
    m["dirac.build_context.calls"] = n("dirac.build_context")
    m["dirac.build_context.self_us"] = mean_self(["dirac.build_context"], 1e3)
    dirac_ops = sum(1 for op in ops if op.argv[:1] == ("dirac-check",))
    checks_ns = sum(self_ns[ids[f"dirac.{c}"]] for c in DIRAC_CHECKS)
    m["dirac.checks.self_ms"] = float(checks_ns / dirac_ops / 1e6) if dirac_ops else 0.0
    for check in DIRAC_CHECKS:
        m[f"dirac.{check}.self_us"] = mean_self([f"dirac.{check}"], 1e3)
    m["dirac.check_failed"] = sum(tracer.raised.get(f"dirac.{c}", 0) for c in DIRAC_CHECKS)
    m["audit.load_distribution.ms"] = mean_self(["audit.load_distribution"], 1e6)
    m["audit.load_rows_per_s"] = rate(counts["audit.load.rows"], "audit.load_distribution")
    m["audit.per_sample_chsh.self_ms"] = mean_self(["audit.per_sample_chsh"], 1e6)
    m["audit.audit.self_ms"] = mean_self(["audit.audit"], 1e6)
    m["audit.samples"] = counts["audit.samples"]
    m["audit.to_json.ms"] = mean_self(["audit.to_json"], 1e6)
    m["audit.json_bytes_per_s"] = rate(counts["audit.to_json.bytes"], "audit.to_json")
    # Inclusive per-call times, comparable with single-function timings.
    for name in ("observables.eprb_closed_form", "observables.eprb_oracle", "bell.chsh_value",
                 "kinematics.BeamVelocity_of", "dirac.build_context"):
        m[f"{name}.incl_us"] = mean_incl(name)
    m["bell.chsh_value.incl_frac"] = float(incl_ns[ids["bell.chsh_value"]] / traced_ns)
    m["bell.maximize_chsh.incl_frac"] = float(incl_ns[ids["bell.maximize_chsh"]] / traced_ns)
    return m
