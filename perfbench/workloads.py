"""The workload process: input set-up and the timed rounds.

    python3 perfbench/workloads.py setup WORKLOAD SEED DIR
    python3 perfbench/workloads.py run DIR SECONDS TRACE

``setup`` is what a user pays before the first call: a fresh interpreter
imports kbound (and numpy and scipy with it) and writes the workload's
input files into DIR.  ``run`` repeats whole rounds of the workload until
SECONDS have passed, timing each round, and writes ``report.json`` into DIR.
Each round hands its outputs to the caller as operations (a name plus files
and arrays); outputs are hashed after the round's clock stops, and the first
copy of every distinct output is kept for ``run.py`` to check.  With TRACE
set, the process runs one bare round and one traced round instead (see
``tracing.py``).

The BLAS thread count comes from the environment ``run.py`` sets before
this interpreter starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import kbound
from kbound import algebras, cli, dynamics, ensembles, lanczos, operators

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer, layer_metrics  # noqa: E402

# The paper's experiment: seed 7 of the GOE ledger, as documented in
# kbound.ensembles.  Realization 0 at d = 48 carries the chain-tail fault.
GOE_SEED = 7
GOE_COUNT = 6
GOE_WORKERS = 2
GRID = {"tmax": 3.0, "steps": 301}
# The stored-basis stage that follows the ensemble in goe-d32.
THERMAL = {"dim": 16, "beta": 0.5, **GRID}
# Family parameters at scale 1.  The seed scales nu by s in [1, 1.1) and the
# end time by 1/s: the amplitudes depend on nu t only, so the chain grows to
# the same length on every seed while every value changes.
FAMILIES = [
    {"case": "sl2r", "kind": "sl2r", "eta": 101.0, "nu": 1.0, "tmax": 2.0, "points": 201},
    {"case": "hw", "kind": "hw", "nu": 10.0, "tmax": 4.0, "points": 201},
    {"case": "su2", "kind": "su2", "j": 999.5, "nu": 1.0, "tmax": 3.0, "points": 601},
]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ------------------------------------------------------------------ set-up

def setup(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    params = {"workload": workload, "seed": seed}
    if workload == "goe-d32":
        rng = np.random.Generator(np.random.PCG64(seed))
        d = THERMAL["dim"]
        for name in ("H", "O"):
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            operators.save_matrix(out / f"thermal-{name}.json",
                                  0.5 * (x + x.conj().T) / np.sqrt(d))
        params.update(dim=32, ledger_seed=GOE_SEED, count=GOE_COUNT,
                      workers=GOE_WORKERS, thermal=THERMAL, **GRID)
    elif workload == "chain-d48":
        ss = np.random.SeedSequence(entropy=GOE_SEED, spawn_key=(0,))
        operators.save_matrix(out / "H.json", ensembles.goe_sample(48, 1.0, ss))
        params.update(dim=48, ledger_seed=GOE_SEED, realization=0, **GRID)
    elif workload == "families":
        scale = 1.0 + 0.1 * float(np.random.Generator(np.random.PCG64(seed)).random())
        cases = [dict(c, nu=c["nu"] * scale, tmax=c["tmax"] / scale) for c in FAMILIES]
        params.update(scale=scale, cases=cases)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    (out / "params.json").write_text(json.dumps(params) + "\n")


# ------------------------------------------------------------------ rounds

class Op:
    """One checked output of a round: files on disk and in-memory arrays."""

    def __init__(self, name, files=(), arrays=None, rc=0):
        self.name = name
        self.files = [Path(f) for f in files]
        self.arrays = arrays or {}
        self.rc = rc


def _grid(params) -> list[str]:
    return ["--tmax", repr(params["tmax"]), "--steps", str(params["steps"])]


def _cli(tracer, name: str, argv: list[str]) -> int:
    with tracer.span(f"cli.{name}"):
        return cli.main(argv)


def round_goe(params, work: Path, tracer, replay: bool) -> list[Op]:
    out = work / "goe.json"
    rc = _cli(tracer, "goe", ["goe", "--dim", str(params["dim"]),
                              "--seed", str(params["ledger_seed"]),
                              "--count", str(params["count"]),
                              "--workers", str(params["workers"]),
                              *_grid(params), "--out", str(out)])
    ops = [Op("goe", [out], rc=rc)]
    if "ensembles.run_ensemble" in tracer.captured:
        saved = work / "goe-api.json"
        # Not part of the bare round: trace.overhead_s leaves this span out.
        with tracer.span("bench.extra") as rec:
            ensembles.save_ensemble_json(tracer.captured.pop("ensembles.run_ensemble"),
                                         str(saved))
        rec.update(artifact_mb=saved.stat().st_size / 1e6, artifact_layer="ensembles")
    if replay:
        # Serial replay through the public functions, same seed ledger.
        times = np.linspace(0.0, params["tmax"], params["steps"])
        arrays = {}
        for i in range(params["count"]):
            with tracer.span("bench.replay_realization", index=i):
                ss = np.random.SeedSequence(entropy=params["ledger_seed"], spawn_key=(i,))
                H = ensembles.goe_sample(params["dim"], 1.0, ss)
                obs = ensembles.uniform_observable(H)
                res = lanczos.run_lanczos(H, obs, policy=lanczos.default_policy(params["dim"]),
                                          store_basis=False)
                dynamics.complexity_profile(dynamics.evolve_amplitudes(res.b, times))
            arrays[f"H{i}"] = H
            arrays[f"b{i}"] = res.b
        ops.append(Op("replay", [out], arrays))
    return ops + round_thermal(params["thermal"], work, tracer)


def round_chain(params, work: Path, tracer, replay: bool) -> list[Op]:
    chain, profile = work / "chain.json", work / "profile.csv"
    rc = _cli(tracer, "lanczos", ["lanczos", str(work / "H.json"), "--out", str(chain)])
    ops = [Op("lanczos", [work / "H.json", chain], rc=rc)]
    rc = _cli(tracer, "bound", ["bound", str(chain), *_grid(params), "--out", str(profile)])
    ops.append(Op("bound", [chain, profile], rc=rc))
    return ops


class FamilyCoefficients:
    """b_n of a saturating family, recording each request evolve_amplitudes makes."""

    def __init__(self, case: dict):
        self.case = case
        self.requests: list[int] = []

    def __call__(self, n):
        n = np.asarray(n, dtype=np.float64)
        self.requests.append(int(n.size))
        c = self.case
        if c["kind"] == "hw":
            return c["nu"] * np.sqrt(n)
        if c["kind"] == "sl2r":
            return c["nu"] * np.sqrt(n * (n - 1.0 + c["eta"]))
        return c["nu"] * np.sqrt(n * (2.0 * c["j"] + 1.0 - n))


def _model(case: dict) -> algebras.AlgebraModel:
    if case["kind"] == "su2":
        return algebras.AlgebraModel.su2(case["j"], case["nu"])
    if case["kind"] == "hw":
        return algebras.AlgebraModel.hw(case["nu"])
    return algebras.AlgebraModel.sl2r(case["eta"], case["nu"])


def round_families(params, work: Path, tracer, replay: bool) -> list[Op]:
    ops = []
    for case in params["cases"]:
        name = case["case"]
        times = np.linspace(0.0, case["tmax"], case["points"])
        model = _model(case)
        with tracer.span(f"bench.family_{name}") as rec:
            coeff = FamilyCoefficients(case)
            # su2 is a finite chain and goes in as its complete array.
            chain = coeff(np.arange(1, model.D)) if model.D else coeff
            coeff.requests.clear()
            traj = dynamics.evolve_amplitudes(chain, times)
            prof = dynamics.complexity_profile(traj)
            report = algebras.closure_test(traj.b, D=model.D)
            closed_form = algebras.model_amplitudes(model, times)
        if coeff.requests:
            rec.update(family_attempts=len(coeff.requests),
                       family_sites_requested=sum(coeff.requests),
                       family_sites_final=int(traj.b.size))
        ops += [
            Op(f"evolve:{name}", arrays={"phi": traj.phi}),
            Op(f"profile:{name}", arrays={"K": prof.complexity, "rate": prof.rate,
                                          "dispersion": prof.dispersion, "bound": prof.bound}),
            Op(f"closure:{name}", arrays={"closed": np.array(report.closed),
                                          "alpha": np.array(report.alpha),
                                          "gamma": np.array(report.gamma)}),
            Op(f"model:{name}", arrays={"phi": closed_form.phi}),
        ]
    return ops


def round_thermal(params, work: Path, tracer) -> list[Op]:
    """Complex thermal chain with a stored basis, its report and artifact."""
    chain, profile = work / "thermal-chain.json", work / "thermal-profile.csv"
    H = operators.load_matrix(str(work / "thermal-H.json"))
    O = operators.load_matrix(str(work / "thermal-O.json"))
    with tracer.span("operators.InnerProductSpec"):
        spec = operators.InnerProductSpec(params["beta"], None, H)
    res = lanczos.run_lanczos(H, operators.OperatorVector.from_matrix(O, spec), spec=spec,
                              store_basis=True)
    report = lanczos.orthogonality_report(res)
    with tracer.span("bench.save") as rec:
        lanczos.save_result_json(res, str(chain), include_basis=True)
    rec.update(artifact_mb=chain.stat().st_size / 1e6, artifact_layer="lanczos")
    back = lanczos.load_result_json(str(chain))
    rc = _cli(tracer, "bound", ["bound", str(chain), *_grid(params), "--out", str(profile)])
    return [
        Op("thermal-chain", arrays={"b": res.b, "basis": res.basis}),
        Op("thermal-report", arrays={"gram": report.gram, "basis": res.basis}),
        Op("thermal-roundtrip", [chain], arrays={"b": res.b, "basis": res.basis,
                                                 "b_loaded": back.b,
                                                 "basis_loaded": back.basis}),
        Op("thermal-bound", [chain, profile], rc=rc),
    ]


ROUNDS = {"goe-d32": round_goe, "chain-d48": round_chain, "families": round_families}


class _Untraced:
    """Stand-in for Tracer outside the traced round: spans record nothing."""

    captured: dict = {}

    @staticmethod
    def span(name, **attrs):
        return contextlib.nullcontext({})


# --------------------------------------------------------------- the run

def _peak_rss_mb() -> float:
    """Highest resident memory of this process or any reaped child, in MB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _digest(op: Op) -> str:
    h = hashlib.sha256()
    for path in op.files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    for key in sorted(op.arrays):
        arr = np.ascontiguousarray(op.arrays[key])
        h.update(f"{key}:{arr.dtype}:{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(f"rc={op.rc}".encode())
    return h.hexdigest()


class Ledger:
    """Every operation of every round, and one kept copy per distinct output."""

    def __init__(self, work: Path):
        self.work = work
        self.ops: list[dict] = []
        self.artifacts: dict[str, dict] = {}

    def record(self, round_index: int, ops: list[Op]) -> None:
        for op in ops:
            digest = _digest(op)
            self.ops.append({"round": round_index, "name": op.name, "digest": digest})
            key = f"{op.name}@{digest}"
            if key in self.artifacts:
                continue
            stem = f"kept-{len(self.artifacts)}"
            files = []
            for path in op.files:
                kept = self.work / f"{stem}-{path.name}"
                kept.write_bytes(path.read_bytes())
                files.append(kept.name)
            arrays = None
            if op.arrays:
                arrays = f"{stem}.npz"
                np.savez(self.work / arrays, **op.arrays)
            self.artifacts[key] = {"name": op.name, "files": files, "arrays": arrays,
                                   "rc": op.rc}


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "kbound": kbound.__version__,
    }


def run(work: Path, seconds: float, trace: bool) -> None:
    params = json.loads((work / "params.json").read_text())
    round_fn = ROUNDS[params["workload"]]
    ledger = Ledger(work)
    reps = []
    report = {"provenance": provenance(), "params": params}
    if not trace:
        deadline = time.perf_counter() + seconds
        while True:
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            ops = round_fn(params, work, _Untraced, replay=False)
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
            reps.append({"wall_s": wall, "cpu_s": cpu})
            if len(reps) == 1:
                # The high-water mark cannot be reset, and each later round
                # adds heap fragmentation that depends on how many rounds fit.
                report["peak_rss_mb"] = _peak_rss_mb()
            ledger.record(len(reps) - 1, ops)
            if time.perf_counter() >= deadline:
                break
    else:
        t0 = time.perf_counter()
        ledger.record(0, round_fn(params, work, _Untraced, replay=True))
        bare = time.perf_counter() - t0
        tracer = Tracer(f"{params['workload']}-seed{params['seed']}")
        with tracer.instrument(kbound, capture=("ensembles.run_ensemble",)):
            t0 = time.perf_counter()
            with tracer.span("bench.round"):
                ops = round_fn(params, work, tracer, replay=True)
            traced = time.perf_counter() - t0
        ledger.record(1, ops)
        tracer.write(work / "spans.json")
        extra = sum(r["end"] - r["start"] for r in tracer.spans if r["name"] == "bench.extra")
        layers = layer_metrics(tracer.spans, params.get("workers", 1))
        layers["trace.overhead_s"] = traced - extra - bare
        report["layers"] = layers
        reps = [{"wall_s": bare, "cpu_s": None}]
    report.update(reps=reps, ops=ledger.ops, artifacts=ledger.artifacts)
    (work / "report.json").write_text(json.dumps(report) + "\n")


def main(argv: list[str]) -> None:
    if len(argv) == 4 and argv[0] == "setup":
        setup(argv[1], int(argv[2]), Path(argv[3]))
    elif len(argv) == 4 and argv[0] == "run":
        run(Path(argv[1]), float(argv[2]), argv[3] == "1")
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
