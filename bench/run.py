"""gt2cal benchmark: the fit, calibrate and serve workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload fit --seed 1 --seconds 20 --trace 0

One caller in one process makes every call, each after the previous one
returned (a closed loop; gt2cal is a library).  BLAS is pinned to one
thread.  All inputs come from ``--seed`` through the Powerplant-shaped
generator in ``data.py``; the package sees only the generated arrays.

With ``--trace 0`` the run times whole public calls and prints the
end-to-end metrics.  With ``--trace 1`` it alternates an untraced and a
traced copy of one fixed unit of work and prints the per-layer profile of
one unit, plus the tracing overhead.  Every run checks the outputs; a
failed check makes the run exit with code 1.  The last line of standard
output is one JSON object; the lines before it name every metric with its
unit, and the full record (environment included) is written under
``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import data  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("fit", "calibrate", "serve")

#: Epochs of one timed ``train()`` call on the fit workload.
FIT_EPOCHS = 2
#: Epochs of the model that calibrate and serve train during set-up.
SETUP_EPOCHS = 3
#: Coverage targets the calibrate workload picks slices for.
TARGETS = (0.80, 0.85, 0.90, 0.95)
#: Target whose search pick the serve workload predicts at.
SERVE_TARGET = 0.90
#: Grid step of the lookup table.
LOOKUP_DELTA = 0.01
#: Single-row ``predict()`` calls per serve unit.
ROWS_PER_UNIT = 100
#: Rows of the serve batch checked against the plain reference.
REFERENCE_ROWS = 32
#: Agreement required between two computations of one prediction.
TOL = 1e-12
#: Set-up is timed in this many rounds spread evenly over the run, so that
#: a slow phase of a shared machine weighs on it as on the other timings.
SETUP_ROUNDS = 10
#: A round repeats the set-up until this much time has passed.
SETUP_ROUND_S = 0.2


def _import_package():
    """Import gt2cal from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "gt2cal" / "__init__.py").is_file():
        raise SystemExit(f"bench: no gt2cal sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import gt2cal
    if Path(gt2cal.__file__).resolve().parent != SRC / "gt2cal":
        raise SystemExit(f"bench: gt2cal imported from {gt2cal.__file__}, "
                         f"not from {SRC}")
    from gt2cal import calibration, core, harness, training
    return core, training, calibration, harness


core, training, calibration, harness = _import_package()


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------

class Ledger:
    """Timed calls, their failures, and the samples of each timing."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self._call_ok = True

    def timed(self, metric, fn, *args):
        """Call ``fn``; record its wall time, or a failure if it raises."""
        self.attempted += 1
        self._call_ok = True
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self._call_ok = False
            return None
        self.samples.setdefault(metric, []).append(time.perf_counter() - t0)
        return out

    def check(self, ok, message):
        """Output check on the last timed call; a failure fails that call."""
        if not ok:
            print(f"check failed: {message}", file=sys.stderr)
            if self._call_ok:
                self.failed += 1
                self._call_ok = False
        return ok

    def check_after(self, ok, message):
        """Output check made after the loop; a failure counts as one call."""
        self._call_ok = True
        self.check(ok, message)


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10)[8]


def _params_bytes(params):
    return b"".join(np.ascontiguousarray(getattr(params, f)).tobytes()
                    for f in ("c", "sigma", "sigma_l", "sigma_r", "a", "a0"))


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    Xtr: np.ndarray
    ytr: np.ndarray
    Xcal: np.ndarray
    ycal: np.ndarray
    Xte: np.ndarray
    yte: np.ndarray
    model: object = None        # TrainResult of the set-up fit
    ref_probes: dict = None     # calibrate: yardstick probe count per target
    alpha: float = None         # serve slice
    Xserve: np.ndarray = None   # fresh serve batch

    def fingerprint(self):
        """Bytes of everything the set-up made, to compare two set-ups."""
        arrays = [self.Xtr, self.ytr, self.Xcal, self.ycal, self.Xte, self.yte]
        if self.Xserve is not None:
            arrays.append(self.Xserve)
        blob = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
        if self.model is not None:
            blob += _params_bytes(self.model.params)
        return blob + repr((self.ref_probes, self.alpha)).encode()


def fit_config(seed, epochs):
    return training.TrainConfig.for_coverage(
        0.99, epochs=epochs, minibatch=64, n_rules=10,
        point_output="alpha0", seed=seed)


def make_setup(workload, seed, tracer=None):
    """Generate, split and z-score the data, then for calibrate and serve fit
    a model.  Calibrate also counts the yardstick search probes of each
    target; serve picks its slice and makes a fresh batch."""
    X, y = data.powerplant_like(data.N_ROWS, seed)
    with _span(tracer, "harness.split"):
        parts = harness.split(len(y), "70/15/15", seed=seed)
    with _span(tracer, "harness.normalize"):
        stats = harness.NormalizationStats.fit(X[parts.train], y[parts.train])
        Xtr, ytr = stats.apply(X[parts.train], y[parts.train])
        Xcal, ycal = stats.apply(X[parts.calib], y[parts.calib])
        Xte, yte = stats.apply(X[parts.test], y[parts.test])
    s = Setup(Xtr, ytr, Xcal, ycal, Xte, yte)
    if workload in ("calibrate", "serve"):
        s.model = training.train(Xtr, ytr, fit_config(seed, SETUP_EPOCHS))
    if workload == "calibrate":
        params = s.model.params
        s.ref_probes = {phi: reference.search_probes(
            lambda a: calibration.coverage_at_alpha(params, Xcal, ycal, a),
            phi, len(ycal)) for phi in TARGETS}
    if workload == "serve":
        s.alpha = calibration.calibrate_search(
            s.model.params, Xcal, ycal,
            calibration.SearchConfig(phi_d=SERVE_TARGET)).alpha_star
        Xs, _ = data.powerplant_like(data.N_ROWS, (seed, 1))
        s.Xserve = stats.apply(Xs)
    return s


# ---------------------------------------------------------------------------
# Workloads: one unit of work each, plus checks made after the loop
# ---------------------------------------------------------------------------

class FitWorkload:
    """``train()`` on the 6698-row split, ``FIT_EPOCHS`` epochs per call."""

    def __init__(self, setup, seed):
        self.s = setup
        self.cfg = fit_config(seed, FIT_EPOCHS)
        self.first = None

    def unit(self, ledger):
        res = ledger.timed("train_s", training.train, self.s.Xtr, self.s.ytr,
                           self.cfg)
        if res is None:
            return
        ledger.check(math.isfinite(res.best_loss), "fit loss is not finite")
        blob = _params_bytes(res.params)
        if self.first is None:
            self.first = (blob, res.best_loss)
        ledger.check(blob == self.first[0],
                     "a repeat fit with the same seed changed the parameters")

    def finish(self, ledger):
        pass

    def quality(self):
        return {"training.fit_loss": self.first[1] if self.first else 0.0,
                "calibration.coverage_err": 0.0}

    def report(self, ledger, quality):
        t = ledger.samples.get("train_s", [])
        rows = FIT_EPOCHS * len(self.s.ytr)
        mean = _mean(t)
        human = [("train_rows_per_s", rows / mean if mean else 0.0, "rows/s",
                  len(t)),
                 ("train_mean_ms", mean * 1e3, "ms", len(t)),
                 ("train_p90_ms", _p90(t) * 1e3, "ms", len(t)),
                 ("fit_loss", quality["training.fit_loss"], "z-units", None)]
        generic = {"rows_per_s": human[0][1], "call_ms": human[1][1],
                   "call_p90_ms": human[2][1]}
        return human, generic


class CalibrateWorkload:
    """Search picks, a lookup table, and lookups at the same targets."""

    def __init__(self, setup, seed):
        self.s = setup
        self.params = setup.model.params
        self.first = None
        self.picks = None

    def unit(self, ledger):
        s, params = self.s, self.params
        picks, looked = [], []
        for phi in TARGETS:
            r = ledger.timed("search_s", calibration.calibrate_search, params,
                             s.Xcal, s.ycal, calibration.SearchConfig(phi_d=phi))
            if r is None:
                continue
            # How many probes a search needs depends on the model, so on the
            # seed (the interquartile range is about 30% of the median over
            # 20 seeds); per yardstick probe, the time does not.
            ledger.samples.setdefault("search_ref_probes", []).append(
                s.ref_probes[phi])
            ledger.samples.setdefault("search_per_ref_probe_s", []).append(
                ledger.samples["search_s"][-1] / s.ref_probes[phi])
            picks.append(r)
            ledger.check(core.ALPHA_MIN <= r.alpha_star <= 1.0,
                         f"search pick {r.alpha_star} outside [0.01, 1]")
        table = ledger.timed("build_s", calibration.build_lookup_table, params,
                             s.Xcal, s.ycal, LOOKUP_DELTA)
        if table is not None:
            ledger.check(bool(np.all(np.diff(table.phis) <= 0.0)),
                         "lookup table coverage increases with alpha")
            for phi in TARGETS:
                lk = ledger.timed("lookup_s", calibration.lookup_alpha, table,
                                  phi)
                if lk is None:
                    continue
                looked.append(lk.alpha_star)
                ledger.check(core.ALPHA_MIN <= lk.alpha_star <= 1.0,
                             f"lookup pick {lk.alpha_star} outside [0.01, 1]")
        outcome = ([r.as_dict() for r in picks], looked,
                   None if table is None else table.phis.tobytes())
        if self.first is None:
            self.first = outcome
            self.picks = picks
        ledger.check(outcome == self.first,
                     "a repeat calibration gave different picks")

    def finish(self, ledger):
        s = self.s
        for r in self.picks or []:
            lo, hi = core.trs_batch(s.Xcal, r.alpha_star, self.params)
            cov = float(np.mean((lo <= s.ycal) & (s.ycal <= hi)))
            ledger.check_after(cov == r.phi_achieved,
                               f"coverage recomputed at {r.alpha_star} is "
                               f"{cov}, search reported {r.phi_achieved}")

    def coverage_err(self):
        errs = []
        for r in self.picks or []:
            lo, hi = core.trs_batch(self.s.Xte, r.alpha_star, self.params)
            errs.append(abs(calibration.picp(self.s.yte, lo, hi) - r.phi_d))
        return float(np.mean(errs)) if errs else 0.0

    def quality(self):
        return {"training.fit_loss": self.s.model.best_loss,
                "calibration.coverage_err": self.coverage_err()}

    def report(self, ledger, quality):
        sm = ledger.samples
        search = sm.get("search_s", [])
        per = sm.get("search_per_ref_probe_s", [])
        ref = sm.get("search_ref_probes", [])
        build, lookup = sm.get("build_s", []), sm.get("lookup_s", [])
        n_grid = calibration.alpha_grid(LOOKUP_DELTA).size
        build_mean = _mean(build)
        probes = ([1 + 2 * r.iterations for r in self.picks]
                  if self.picks else [0])
        human = [("search_ms", _median(search) * 1e3, "ms", len(search)),
                 ("search_p90_ms", _p90(search) * 1e3, "ms", len(search)),
                 ("search_ms_per_ref_probe",
                  sum(search) / sum(ref) * 1e3 if ref else 0.0, "ms",
                  len(per)),
                 ("search_p90_ms_per_ref_probe", _p90(per) * 1e3, "ms",
                  len(per)),
                 ("search_probes_per_pick", statistics.mean(probes), "count",
                  None),
                 ("ref_probes_per_pick",
                  statistics.mean(self.s.ref_probes.values()), "count", None),
                 ("lookup_build_s", build_mean, "s", len(build)),
                 ("lookup_alpha_ms", _median(lookup) * 1e3, "ms", len(lookup)),
                 ("coverage_err", quality["calibration.coverage_err"],
                  "fraction", None)]
        generic = {
            "rows_per_s": (n_grid * len(self.s.ycal) / build_mean
                           if build_mean else 0.0),
            "call_ms": human[2][1], "call_p90_ms": human[3][1]}
        return human, generic


class ServeWorkload:
    """Bulk ``predict_batch`` on a fresh batch, then single-row ``predict``."""

    def __init__(self, setup, seed):
        self.s = setup
        self.params = setup.model.params
        self.first = None
        self.next_row = 0

    def unit(self, ledger):
        s = self.s
        out = ledger.timed("bulk_s", core.predict_batch, s.Xserve, s.alpha,
                           self.params)
        if out is not None:
            blob = b"".join(a.tobytes() for a in out)
            if self.first is None:
                self.first = out, blob
            ledger.check(blob == self.first[1],
                         "a repeat bulk prediction gave different outputs")
        if self.first is None:
            return
        bulk = self.first[0]
        n = len(s.Xserve)
        for _ in range(ROWS_PER_UNIT):
            i = self.next_row
            self.next_row = (i + 1) % n
            r = ledger.timed("row_s", core.predict, s.Xserve[i], s.alpha,
                             self.params)
            if r is None:
                continue
            ledger.check(all(abs(r[j] - bulk[j][i]) <= TOL for j in range(3)),
                         f"predict(row {i}) disagrees with the bulk output")

    def finish(self, ledger):
        if self.first is None:
            return
        s, (lo, hi, point) = self.s, self.first[0]
        planes = core.DEFAULT_PLANES
        rows = np.linspace(0, len(s.Xserve) - 1, REFERENCE_ROWS).astype(int)
        worst = 0.0
        for i in rows:
            want = reference.predict_row(s.Xserve[i].tolist(), s.alpha,
                                         self.params, planes)
            worst = max(worst, *(abs(w - g[i])
                                 for w, g in zip(want, (lo, hi, point))))
        ledger.check_after(worst <= TOL, f"bulk output differs from the "
                           f"reference by {worst:.3e}")
        ledger.check_after(bool(np.all(lo <= hi)), "some lo exceeds hi")
        wlo, whi = core.trs_batch(s.Xserve, core.ALPHA_MIN, self.params)
        ledger.check_after(bool(np.all(wlo <= lo + TOL) and
                                np.all(whi >= hi - TOL)),
                           f"slice {s.alpha} is not nested in slice "
                           f"{core.ALPHA_MIN}")

    def quality(self):
        lo, hi = core.trs_batch(self.s.Xte, self.s.alpha, self.params)
        err = abs(calibration.picp(self.s.yte, lo, hi) - SERVE_TARGET)
        return {"training.fit_loss": self.s.model.best_loss,
                "calibration.coverage_err": err}

    def report(self, ledger, quality):
        bulk, row = ledger.samples.get("bulk_s", []), ledger.samples.get("row_s", [])
        mean = _mean(bulk)
        human = [("predict_rows_per_s", len(self.s.Xserve) / mean if mean else 0.0,
                  "rows/s", len(bulk)),
                 ("predict_row_mean_ms", _mean(row) * 1e3, "ms", len(row)),
                 ("predict_row_p90_ms", _p90(row) * 1e3, "ms", len(row)),
                 ("predict_row_p50_ms", _median(row) * 1e3, "ms", len(row)),
                 ("serve_alpha", self.s.alpha, "alpha", None),
                 ("coverage_err", quality["calibration.coverage_err"],
                  "fraction", None)]
        generic = {"rows_per_s": human[0][1], "call_ms": human[1][1],
                   "call_p90_ms": human[2][1]}
        return human, generic


WORKLOAD_CLASSES = {"fit": FitWorkload, "calibrate": CalibrateWorkload,
                    "serve": ServeWorkload}


# ---------------------------------------------------------------------------
# Per-layer profile
# ---------------------------------------------------------------------------

#: Fields of the span summary that per-layer metrics named ``<span>.<field>``
#: read; the counts among them must repeat exactly from unit to unit.
FIELDS, COUNTS = ("calls", "rows", "self_ms", "ms"), ("calls", "rows")


def layer_profile(tracer, ledger, unit_walls, plain_walls, work, names):
    """Per-layer values of one traced unit: counts, and medians of times.

    ``names`` are the per-layer metrics of ``BENCHMARK.json``.
    """
    units = tracer.groups("unit")
    per_unit = [tracer.summarize([u]) for u in units]
    setup = tracer.summarize(tracer.groups("setup"))
    empty = {"calls": 0, "rows": 0, "ms": 0.0, "self_ms": 0.0}
    metrics = {}
    for metric in names:
        name, _, field = metric.rpartition(".")
        if field not in FIELDS:
            continue
        if name.startswith("harness."):
            metrics[metric] = setup.get(name, empty)[field]
            continue
        vals = [u.get(name, empty)[field] for u in per_unit]
        if field in COUNTS:
            ledger.check_after(len(set(vals)) == 1,
                               f"{metric} differs between identical units: "
                               f"{sorted(set(vals))}")
            metrics[metric] = vals[0]
        else:
            metrics[metric] = statistics.median(vals)

    searches = per_unit[0].get("calibration.calibrate_search", empty)["calls"]
    probes = tracer.count_children("calibration.calibrate_search",
                                   "calibration.coverage_at_alpha", units[:1])
    picks = work.picks if isinstance(work, CalibrateWorkload) else None
    metrics["calibration.search.probes_per_pick"] = (
        probes / searches if searches else 0.0)
    metrics["calibration.search.converged_frac"] = (
        sum(r.converged for r in picks) / len(picks) if picks else 0.0)

    plain, traced = statistics.median(plain_walls), statistics.median(unit_walls)
    metrics["trace.overhead_ms"] = (traced - plain) * 1e3
    metrics["trace.overhead_frac"] = (traced - plain) / plain
    metrics["trace.spans_per_unit"] = sum(v["calls"]
                                          for v in per_unit[0].values())
    return metrics


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count numpy's bundled OpenBLAS reports, else the pinned value."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def setup_round(workload, seed, times):
    """Repeat the set-up for ``SETUP_ROUND_S``, at least once; return the last.

    Appends the wall time of each set-up to ``times``.
    """
    end = time.perf_counter() + SETUP_ROUND_S
    while True:
        t0 = time.perf_counter()
        setup = make_setup(workload, seed)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 >= end:
            return setup


def run(workload, seed, seconds, trace):
    ledger = Ledger()
    tracer = spans.Tracer(spans.targets(core, training, calibration))

    setup_times = []
    if trace:
        with tracer.installed(), tracer.group("setup"):
            setup = make_setup(workload, seed, tracer)
    else:
        setup = setup_round(workload, seed, setup_times)
    made = setup.fingerprint()

    work = WORKLOAD_CLASSES[workload](setup, seed)
    plain_walls, unit_walls = [], []
    start = time.perf_counter()
    rounds = 1
    while time.perf_counter() < start + seconds or len(plain_walls) < 2:
        if (not trace and rounds < SETUP_ROUNDS and time.perf_counter()
                >= start + rounds * seconds / SETUP_ROUNDS):
            again = setup_round(workload, seed, setup_times).fingerprint()
            ledger.check_after(again == made, "a repeat set-up with the same "
                               "seed made different inputs")
            rounds += 1
        t0 = time.perf_counter()
        work.unit(ledger)
        plain_walls.append(time.perf_counter() - t0)
        if trace:
            with tracer.installed():
                t0 = time.perf_counter()
                with tracer.group("unit"):
                    work.unit(ledger)
                unit_walls.append(time.perf_counter() - t0)
    work.finish(ledger)

    quality = work.quality()
    human, generic = work.report(ledger, quality)
    human = [("setup_s", _median(setup_times), "s", len(setup_times))] + human
    human.append(("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF)
                  .ru_maxrss / 1024.0, "MB", None))
    spec = json.loads(SPEC.read_text())
    if trace:
        # timings of a traced run mix traced and untraced units
        human = []
        listed = spec["per_layer"]
        values = layer_profile(tracer, ledger, unit_walls, plain_walls, work,
                               [m["name"] for m in listed])
        values.update(quality)
    else:
        values = dict(generic, setup_s=human[0][1], peak_rss_mb=human[-1][1])
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    failed_frac = ledger.failed / max(ledger.attempted, 1)
    human.append(("failed_frac", failed_frac, "fraction", ledger.attempted))

    env = environment()
    print(f"# {workload} seed={seed} seconds={seconds} trace={trace} "
          f"units={len(plain_walls)}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, value, unit, n in human:
        count = "" if n is None else f"  (n={n})"
        print(f"{workload:9s} {name:28s} {value:14.6g} {unit}{count}")
    if trace:
        for name, m in metrics.items():
            print(f"{workload:9s} {name:40s} {m['value']:14.6g} {m['unit']}")

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=bool(trace), environment=env,
                  printed={n: {"value": v, "unit": u, "samples": c}
                           for n, v, u, c in human})
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
