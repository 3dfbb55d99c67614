"""Calibration: fit :class:`CostParameters` from traced runtime actuals.

The optimizer's white-box cost model and the runtime simulator share one
set of hardware constants (:mod:`repro.cost.constants`), hand-tuned to
2014 commodity nodes.  On a cluster whose real bandwidths and latencies
differ, every estimate the optimizer ranks plans by is systematically
off.  This module closes the loop the tracer opened:

* the **runtime** emits one *(component, work, seconds)* sample per
  charged IO/compute/latency event through the
  :class:`CalibrationCollector` its interpreter was built with
  (``Interpreter(collector=...)``; :data:`NULL_COLLECTOR` otherwise, so
  emission costs an empty method call when calibration is off);
* :func:`fit_profile` turns the collected samples into a
  :class:`CalibrationProfile` by robust least-squares per component —
  an origin-constrained slope fit with a few Huber-weighted IRLS
  rounds, so a handful of outlier samples (fault retries, thrashing
  tasks) cannot hijack a constant;
* the profile persists as JSON and later sessions (or the serving
  layer's shared collector) feed ``profile.parameters()`` into
  :class:`~repro.cost.model.CostModel` as the optimizer's *belief*,
  while the simulated hardware truth stays wherever it was.

Each sample's *work* is expressed in units that make the modelled time
``t = work / param`` (rates: bandwidths, FLOP rates) or ``t = work *
param`` (latencies), so the slope of ``seconds`` against ``work``
through the origin recovers the constant directly.  Components below
``min_samples`` observed samples fall back to the base parameters —
calibration never extrapolates from noise.

Everything here is stdlib-only and deterministic: fitting the same
samples always yields the same profile, and with calibration off no
code path in the runtime or cost model behaves differently (the
fidelity ablation in ``benchmarks/bench_calibration.py`` asserts
byte-identical figures).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import threading
from dataclasses import asdict, dataclass, field, fields

from repro.cost.constants import DEFAULT_PARAMETERS, CostParameters
from repro.obs.tracer import get_tracer

#: components with fewer observed samples than this keep their defaults
DEFAULT_MIN_SAMPLES = 8

#: per-component cap on retained (work, seconds) pairs; first-N keeps
#: collection deterministic and bounded regardless of run length
MAX_SAMPLES_PER_COMPONENT = 2048

#: IRLS rounds for the Huber-weighted slope re-fit
_IRLS_ROUNDS = 3

#: Huber tuning constant (residuals beyond k scaled-MADs are downweighted)
_HUBER_K = 1.345


@dataclass(frozen=True)
class Component:
    """One calibratable constant: its sample stream and fit semantics."""

    name: str
    #: the :class:`CostParameters` field the fit updates
    param: str
    #: ``rate`` — ``t = work / param`` (work in bytes or FLOPs);
    #: ``latency`` — ``t = work * param`` (work in latency units)
    kind: str


#: the calibratable subset of :class:`CostParameters`.  Structural
#: factors (sparse/text IO multipliers, thrash penalty) are folded into
#: each sample's *work* by the emitter, so they stay fixed.
COMPONENTS = (
    Component("hdfs_read", "hdfs_read_bw", "rate"),
    Component("hdfs_write", "hdfs_write_bw", "rate"),
    Component("local_disk", "local_disk_bw", "rate"),
    Component("cp_compute", "cp_flops", "rate"),
    Component("mr_compute", "mr_task_flops", "rate"),
    Component("shuffle", "shuffle_bw_per_node", "rate"),
    Component("mr_job_latency", "mr_job_latency", "latency"),
    Component("mr_task_latency", "mr_task_latency", "latency"),
)

COMPONENT_BY_NAME = {component.name: component for component in COMPONENTS}


class ComponentSamples:
    """Bounded (work, seconds) sample set for one cost component."""

    __slots__ = ("n", "sum_work", "sum_seconds", "pairs", "max_samples")

    def __init__(self, max_samples=MAX_SAMPLES_PER_COMPONENT):
        self.n = 0
        self.sum_work = 0.0
        self.sum_seconds = 0.0
        self.pairs = []
        self.max_samples = max_samples

    def add(self, work, seconds):
        self.n += 1
        self.sum_work += work
        self.sum_seconds += seconds
        if len(self.pairs) < self.max_samples:
            self.pairs.append((work, seconds))

    def merge(self, other):
        self.n += other.n
        self.sum_work += other.sum_work
        self.sum_seconds += other.sum_seconds
        room = self.max_samples - len(self.pairs)
        if room > 0:
            self.pairs.extend(other.pairs[:room])

    def to_dict(self):
        return {
            "n": self.n,
            "sum_work": self.sum_work,
            "sum_seconds": self.sum_seconds,
            "pairs": [list(pair) for pair in self.pairs],
        }


class CalibrationCollector:
    """Thread-safe accumulator of per-component calibration samples.

    Runtime emission sites call :meth:`add`; a session (or the serving
    layer, which shares one collector across tenants under its own
    lock) later hands the collector to :func:`fit_profile`.
    """

    #: emission sites may consult this to skip computing work units
    enabled = True

    def __init__(self, max_samples=MAX_SAMPLES_PER_COMPONENT):
        self._lock = threading.Lock()
        self._components = {}
        self._max_samples = max_samples

    def add(self, component, work, seconds):
        """Record one observed (work, seconds) pair for ``component``.

        Non-positive work or negative/non-finite values are dropped: a
        zero-work sample carries no slope information and a charge of
        exactly zero seconds (empty IO) would only dilute the fit.
        """
        if not (work > 0.0 and seconds >= 0.0):
            return
        if not (math.isfinite(work) and math.isfinite(seconds)):
            return
        with self._lock:
            samples = self._components.get(component)
            if samples is None:
                samples = ComponentSamples(self._max_samples)
                self._components[component] = samples
            samples.add(work, seconds)
        get_tracer().incr("calib.samples")

    def merge(self, other):
        """Fold another collector's samples into this one."""
        with other._lock:
            snapshot = {
                name: (s.n, s.sum_work, s.sum_seconds, list(s.pairs))
                for name, s in other._components.items()
            }
        with self._lock:
            for name, (n, sum_work, sum_seconds, pairs) in snapshot.items():
                samples = self._components.get(name)
                if samples is None:
                    samples = ComponentSamples(self._max_samples)
                    self._components[name] = samples
                samples.n += n
                samples.sum_work += sum_work
                samples.sum_seconds += sum_seconds
                room = samples.max_samples - len(samples.pairs)
                if room > 0:
                    samples.pairs.extend(pairs[:room])
        return self

    def snapshot(self):
        """Consistent copy of the per-component pair lists (for fitting)."""
        with self._lock:
            return {
                name: (samples.n, list(samples.pairs))
                for name, samples in self._components.items()
            }

    def counts(self):
        """Observed sample count per component name."""
        with self._lock:
            return {
                name: samples.n for name, samples in self._components.items()
            }

    def totals(self):
        """Per-component ``(n, sum_work, sum_seconds)`` aggregates — the
        actual side of estimate-vs-actual divergence reports."""
        with self._lock:
            return {
                name: (samples.n, samples.sum_work, samples.sum_seconds)
                for name, samples in self._components.items()
            }

    @property
    def total_samples(self):
        with self._lock:
            return sum(s.n for s in self._components.values())

    def clear(self):
        with self._lock:
            self._components.clear()


class _NullCollector:
    """Disabled collector: :meth:`add` is a no-op (the interpreter default)."""

    enabled = False

    def add(self, component, work, seconds):
        pass

    def merge(self, other):
        return self

    def snapshot(self):
        return {}

    def counts(self):
        return {}

    def totals(self):
        return {}

    @property
    def total_samples(self):
        return 0

    def clear(self):
        pass


NULL_COLLECTOR = _NullCollector()

# -- fitting ----------------------------------------------------------------


def _median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def fit_slope(pairs):
    """Robust slope of seconds against work through the origin.

    Weighted least squares ``m = Σ(w·x·t) / Σ(w·x²)`` seeded with unit
    weights (plain OLS), then a few IRLS rounds with Huber weights on
    the residuals scaled by their MAD.  Deterministic; returns ``None``
    when no positive, finite slope is identifiable.
    """
    xs = [x for x, _ in pairs]
    ts = [t for _, t in pairs]
    if not xs or all(x == 0.0 for x in xs):
        return None
    weights = [1.0] * len(xs)
    slope = None
    for _ in range(1 + _IRLS_ROUNDS):
        num = sum(w * x * t for w, x, t in zip(weights, xs, ts))
        den = sum(w * x * x for w, x in zip(weights, xs))
        if den <= 0.0:
            return None
        slope = num / den
        residuals = [t - slope * x for x, t in zip(xs, ts)]
        mad = _median([abs(r) for r in residuals])
        scale = 1.4826 * mad
        if scale <= 0.0:
            break  # perfect (or degenerate) fit — no reweighting needed
        cutoff = _HUBER_K * scale
        weights = [
            1.0 if abs(r) <= cutoff else cutoff / abs(r) for r in residuals
        ]
    if slope is None or not math.isfinite(slope) or slope <= 0.0:
        return None
    return slope


def cluster_signature(cluster):
    """Stable digest of the cluster profile a calibration belongs to."""
    return hashlib.sha256(repr(cluster).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CalibrationProfile:
    """Fitted cost constants for one cluster profile, JSON-persistable.

    ``base`` snapshots the full :class:`CostParameters` the fit started
    from; ``fitted`` holds only the fields the fit had enough samples to
    update.  ``parameters()`` overlays the two, so loading a profile
    reproduces the exact fit-time constants bit-for-bit (JSON round-trips
    Python floats exactly via ``repr`` shortest-form).
    """

    cluster_signature: str
    base: dict
    fitted: dict = field(default_factory=dict)
    sample_counts: dict = field(default_factory=dict)
    min_samples: int = DEFAULT_MIN_SAMPLES

    def parameters(self):
        """The calibrated :class:`CostParameters` (base overlaid with
        fits).  ``base`` keys that are no longer parameters (a profile
        saved by an older version) are ignored."""
        values = dict(self.base)
        values.update(self.fitted)
        names = {f.name for f in fields(CostParameters)}
        return CostParameters(
            **{name: v for name, v in values.items() if name in names}
        )

    def matches(self, cluster):
        """Whether this profile was fitted for ``cluster``."""
        return self.cluster_signature == cluster_signature(cluster)

    def to_dict(self):
        return {
            "cluster_signature": self.cluster_signature,
            "base": dict(self.base),
            "fitted": dict(self.fitted),
            "sample_counts": dict(self.sample_counts),
            "min_samples": self.min_samples,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            cluster_signature=data["cluster_signature"],
            base=dict(data["base"]),
            fitted=dict(data.get("fitted", {})),
            sample_counts=dict(data.get("sample_counts", {})),
            min_samples=data.get("min_samples", DEFAULT_MIN_SAMPLES),
        )

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def fit_profile(collector, cluster, base_params=None,
                min_samples=DEFAULT_MIN_SAMPLES):
    """Fit a :class:`CalibrationProfile` from collected samples.

    Components with fewer than ``min_samples`` samples — or whose fit is
    degenerate — keep the base parameter.  Each successfully fitted
    constant increments the ``calib.fitted`` counter on the active
    tracer.
    """
    base = base_params if base_params is not None else DEFAULT_PARAMETERS
    snapshot = collector.snapshot()
    tracer = get_tracer()
    fitted = {}
    sample_counts = {}
    for component in COMPONENTS:
        n, pairs = snapshot.get(component.name, (0, []))
        sample_counts[component.name] = n
        if n < min_samples:
            continue
        slope = fit_slope(pairs)
        if slope is None:
            continue
        if component.kind == "rate":
            fitted[component.param] = 1.0 / slope
        else:
            fitted[component.param] = slope
        tracer.incr("calib.fitted")
    tracer.incr("calib.fit_runs")
    return CalibrationProfile(
        cluster_signature=cluster_signature(cluster),
        base=asdict(base),
        fitted=fitted,
        sample_counts=sample_counts,
        min_samples=min_samples,
    )


def drifted_parameters(seed, base=None, spread=0.6):
    """Deterministically perturb the calibratable constants.

    Used as the simulated hardware *truth* in benchmarks and the CLI
    demo: each calibratable field of ``base`` is scaled by a log-uniform
    factor in ``[e^-spread, e^spread]`` drawn from ``random.Random(seed)``,
    modelling a cluster whose hardware differs from the 2014 defaults.
    """
    base = base if base is not None else DEFAULT_PARAMETERS
    rng = random.Random(seed)
    values = asdict(base)
    for component in COMPONENTS:
        factor = math.exp(rng.uniform(-spread, spread))
        values[component.param] = values[component.param] * factor
    return CostParameters(**values)


def resolve_profile(profile, cluster=None):
    """Normalise a profile argument: a :class:`CalibrationProfile`, a
    path to a saved one, or ``None``.  When ``cluster`` is given, a
    profile fitted for a different cluster raises ``ValueError`` — using
    constants learned on other hardware silently would defeat the point
    of per-cluster calibration.
    """
    if profile is None:
        return None
    if isinstance(profile, (str, bytes)):
        profile = CalibrationProfile.load(profile)
    if not isinstance(profile, CalibrationProfile):
        raise TypeError(
            "calibration_profile must be a CalibrationProfile or a path, "
            f"got {type(profile).__name__}"
        )
    if cluster is not None and not profile.matches(cluster):
        raise ValueError(
            "calibration profile was fitted for a different cluster "
            f"(profile {profile.cluster_signature}, "
            f"cluster {cluster_signature(cluster)})"
        )
    return profile
