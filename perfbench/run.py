"""kbound benchmark: the chain -> amplitudes -> bound pipeline, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kbound checkout; the package is imported from
``src/``.  Each run:

1. times SETUP_REPEATS fresh interpreters that import kbound and write the
   workload's inputs (``setup_s`` is their median);
2. starts one fresh workload process (``workloads.py``) with the BLAS thread
   count pinned to ``BLAS_THREADS`` (processes x threads <= nproc), which
   repeats whole rounds of the workload for S seconds (``--trace 1``: one
   bare and one traced round);
3. checks every distinct output of every round against computations made
   here with numpy and scipy only (``checks.py``), and shows that each check
   rejects a corrupted copy of a real output (the self-test);
4. prints provenance, the verdicts, and as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  ``--trace 0`` reports
   the end-to-end metrics, ``--trace 1`` the per-layer ones.

Run records (provenance, per-round samples, spans) stay in
``.perfbench/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("goe-d32", "chain-d48", "families")
# BLAS threads of every workload process.  goe-d32's parallelism is its pool
# of two workers.  Two threads halve the d = 48 chain on a quiet 2-vCPU host,
# but they wait on each other at every call, so any load on the host slows
# them down together: in interleaved runs of a d = 40 chain, two threads went
# from 1.8 s to 3-5 s while one thread went from 3.4 s to 4-5 s, and the
# spread over 36 runs was 0.25 of the median with two threads, 0.12 with one.
BLAS_THREADS = 1
SETUP_REPEATS = 3
SETUP_TIMEOUT = 60.0
RUN_DEADLINE = 170.0  # the whole run, set-up and checks included, ends before 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))

# The checks run here after the workload process has ended, so they may use
# every core; the workload's own count is set in its environment.
os.environ.update({var: str(NPROC) for var in THREAD_VARS})
import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE))
import checks  # noqa: E402


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _run(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own session; on timeout kill the session and wait."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {timeout:.0f} s"
        return subprocess.CompletedProcess(cmd, -9, out, err)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


# ------------------------------------------------------------------ checks

def _json(path: Path):
    return json.loads(path.read_text())


def _profile_csv(path: Path) -> dict:
    rows = [r for r in csv.reader(path.read_text().splitlines()) if r and not r[0].startswith("#")]
    cols = {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}
    return {"t": cols["t"], "K": cols["K"], "rate": cols["rate"],
            "dispersion": cols["dispersion"], "bound": cols["bound"]}


def _rc_verdict(op: str, art: dict) -> list:
    if art["rc"] == 0:
        return []
    return [checks.Verdict(f"{op} exit code", False, math.inf, 0.0, f"kbound exited {art['rc']}")]


def _exact(name: str, pairs) -> checks.Verdict:
    """Bit-identity of (output, reference) pairs; error is the max difference."""
    err = 0.0
    for out, ref in pairs:
        out, ref = np.asarray(out), np.asarray(ref)
        if out.shape != ref.shape:
            return checks.Verdict(name, False, math.inf, 0.0, f"shape {out.shape} vs {ref.shape}")
        if not np.array_equal(out, ref):
            diff = float(np.max(np.abs(out - ref)))
            err = max(err, diff if diff > 0.0 else math.inf)  # NaN differs too
    return checks.Verdict(name, err == 0.0, err, 0.0)


class Judge:
    """Parses one kept output, judges it, and lists corrupted copies of it.

    ``parse_<kind>`` does the expensive independent computations once;
    ``judge_<kind>`` compares outputs against them; ``corrupt_<kind>`` lists
    (label, verdict name prefix that must fail, corrupted data).
    """

    def __init__(self, params: dict, work: Path):
        self.params = params
        self.work = work
        self._thermal_inputs = None  # read on first use

    def load(self, art: dict) -> dict:
        files = {Path(f).name.split("-", 2)[-1]: self.work / f for f in art["files"]}
        arrays = dict(np.load(self.work / art["arrays"])) if art["arrays"] else {}
        return {"files": files, "arrays": arrays}

    # goe-d32 -----------------------------------------------------------
    def parse_goe(self, art):
        p = self.params
        payload = _json(self.load(art)["files"]["goe.json"])
        times = np.array(payload["profile"]["t"])
        reals = payload["realizations"]
        chains = [np.array(r["b"]) for r in reals]
        refs = [checks.chain_profile(b, times) for b in chains]
        reference = {k: np.mean([r[k] for r in refs], axis=0) for k in refs[0]}
        return {"indices": [r["index"] for r in reals], "chains": chains,
                "measures": [checks.liouvillian_measure(
                    checks.goe_redraw(p["ledger_seed"], r["index"], p["dim"])) for r in reals],
                "profile": {k: np.array(payload["profile"][k])
                            for k in ("K", "rate", "dispersion", "bound")},
                "reference": reference, "b1": float(np.mean([b[0] for b in chains])),
                "missing": p["count"] - len(reals)}

    def judge_goe(self, d):
        out = [checks.spectral_check(b, m, f"goe r{i} spectral")
               for i, b, m in zip(d["indices"], d["chains"], d["measures"])]
        out.append(checks.profile_check(d["profile"], d["reference"], d["b1"], "goe profile"))
        if d["missing"]:
            out.append(checks.Verdict("goe realizations", False, d["missing"], 0.0,
                                      "realizations missing or failed"))
        return out

    def corrupt_goe(self, d):
        i0 = d["indices"][0]
        tail = [c.copy() for c in d["chains"]]
        tail[0][-1] *= 1.0 + 1e-3
        p = self.params
        shifted = [checks.liouvillian_measure(
            checks.goe_redraw(p["ledger_seed"], i0 + 1, p["dim"]))] + d["measures"][1:]
        return [("tail coefficient x (1 + 1e-3)", f"goe r{i0} spectral", dict(d, chains=tail)),
                ("redraw of the next realization", f"goe r{i0} spectral",
                 dict(d, measures=shifted)),
                ("bent K(t)", "goe profile", dict(d, profile=_bent(d["profile"])))]

    def parse_replay(self, art):
        loaded = self.load(art)
        payload = _json(loaded["files"]["goe.json"])
        p = self.params
        return {"pooled": {r["index"]: np.array(r["b"]) for r in payload["realizations"]},
                "arrays": loaded["arrays"],
                "redraws": {i: checks.goe_redraw(p["ledger_seed"], i, p["dim"])
                            for i in range(p["count"])}}

    def judge_replay(self, d):
        out = []
        for i, H in d["redraws"].items():
            pooled = d["pooled"].get(i, np.empty(0))
            out.append(_exact(f"replay r{i} pooled == serial",
                              [(d["arrays"][f"b{i}"], pooled), (d["arrays"][f"H{i}"], H)]))
        return out

    def corrupt_replay(self, d):
        arrays = dict(d["arrays"])
        arrays["b0"] = arrays["b0"].copy()
        arrays["b0"][-1] = np.nextafter(arrays["b0"][-1], np.inf)
        return [("last bit of one serial coefficient", "replay r0", dict(d, arrays=arrays))]

    # chain-d48 and the thermal bound ------------------------------------
    def parse_lanczos(self, art):
        files = self.load(art)["files"]
        H = checks.read_matrix_json(_json(files["H.json"])).real
        p = self.params
        return {"b": np.array(_json(files["chain.json"])["b"]), "H": H,
                "redraw": checks.goe_redraw(p["ledger_seed"], p["realization"], p["dim"]),
                "measure": checks.liouvillian_measure(H), "art": art}

    def judge_lanczos(self, d):
        return [checks.spectral_check(d["b"], d["measure"], "chain spectral"),
                _exact("chain input redraw", [(d["H"], d["redraw"])]),
                *_rc_verdict("lanczos", d["art"])]

    def corrupt_lanczos(self, d):
        b = d["b"].copy()
        b[-1] *= 1.0 + 1e-3
        H = d["H"].copy()
        H[0, 1] = H[1, 0] = np.nextafter(H[0, 1], np.inf)
        return [("tail coefficient x (1 + 1e-3)", "chain spectral", dict(d, b=b)),
                ("last bit of one input entry", "chain input redraw", dict(d, H=H))]

    def parse_bound(self, art):
        files = self.load(art)["files"]
        chain, csv_path = sorted(files.values(), key=lambda p: p.suffix != ".json")
        b = np.array(_json(chain)["b"])
        profile = _profile_csv(csv_path)
        return {"profile": profile, "reference": checks.chain_profile(b, profile["t"]),
                "b1": float(b[0]), "art": art}

    def judge_bound(self, d):
        return [checks.profile_check(d["profile"], d["reference"], d["b1"], "bound profile"),
                *_rc_verdict("bound", d["art"])]

    def corrupt_bound(self, d):
        return [("bent K(t)", "bound profile", dict(d, profile=_bent(d["profile"])))]

    # families -----------------------------------------------------------
    def _case(self, name):
        return next(c for c in self.params["cases"] if c["case"] == name)

    def parse_family(self, art):
        kind, name = art["name"].split(":")
        case = self._case(name)
        times = np.linspace(0.0, case["tmax"], case["points"])
        arrays = self.load(art)["arrays"]
        d = {"kind": kind, "case": case, "arrays": arrays}
        if kind in ("evolve", "model"):
            sites = arrays["phi"].shape[1] + 64
            if case["kind"] == "su2":
                sites = int(round(2 * case["j"])) + 1
            d["reference"] = checks.family_amplitudes(case["kind"], case, times, sites)
        elif kind == "profile":
            d["reference"] = checks.family_curves(case["kind"], case, times)
        else:
            d["reference"] = checks.family_rates(case["kind"], case)
        return d

    def judge_family(self, d):
        label = f"{d['kind']} {d['case']['case']}"
        a = d["arrays"]
        if d["kind"] in ("evolve", "model"):
            return [checks.amplitude_check(a["phi"], d["reference"], label)]
        if d["kind"] == "profile":
            return [checks.profile_check(a, d["reference"], d["reference"]["b1"], label)]
        return [checks.rates_check(bool(a["closed"]), float(a["alpha"]), float(a["gamma"]),
                                   d["reference"], label)]

    def corrupt_family(self, d):
        label = f"{d['kind']} {d['case']['case']}"
        a = dict(d["arrays"])
        if d["kind"] in ("evolve", "model"):
            a["phi"] = a["phi"].copy()
            a["phi"][a["phi"].shape[0] // 2, 1] += 1e-6
            what = "one amplitude + 1e-6"
        elif d["kind"] == "profile":
            a = _bent(a)
            what = "bent K(t)"
        else:
            scale = max(1.0, *(abs(x) for x in d["reference"]))
            a["alpha"] = a["alpha"] + 1e-6 * scale
            what = "alpha shifted by 1e-6 of the rate scale"
        return [(what, label, dict(d, arrays=a))]

    # the thermal stage of goe-d32 ---------------------------------------
    def _thermal(self) -> dict:
        """Frame, seed operator and spectral measure of the thermal stage."""
        if self._thermal_inputs is None:
            H = checks.read_matrix_json(_json(self.work / "thermal-H.json"))
            O = checks.read_matrix_json(_json(self.work / "thermal-O.json"))
            beta = self.params["thermal"]["beta"]
            self._thermal_inputs = {"frame": checks.ThermalFrame(H, beta), "O": O,
                                    "measure": checks.liouvillian_measure(H, O, beta)}
        return self._thermal_inputs

    def parse_thermal_chain(self, art):
        return dict(self._thermal(), arrays=self.load(art)["arrays"])

    def judge_thermal_chain(self, d):
        b, basis, frame = d["arrays"]["b"], d["arrays"]["basis"], d["frame"]
        return [checks.spectral_check(b, d["measure"], "thermal spectral"),
                checks.gram_check(checks.gram_matrix(basis, frame), "thermal gram"),
                checks.three_term_check(basis, b, frame, d["O"], "thermal three-term")]

    def corrupt_thermal_chain(self, d):
        a = dict(d["arrays"])
        b = a["b"].copy()
        b[-1] *= 1.0 + 1e-3
        basis = a["basis"].copy()
        basis[basis.shape[0] // 2, 3] += 1e-6
        return [("tail coefficient x (1 + 1e-3)", "thermal spectral", dict(d, arrays=dict(a, b=b))),
                ("basis row perturbed by 1e-6", "thermal gram",
                 dict(d, arrays=dict(a, basis=basis))),
                ("basis row perturbed by 1e-6", "thermal three-term",
                 dict(d, arrays=dict(a, basis=basis)))]

    def parse_thermal_report(self, art):
        a = self.load(art)["arrays"]
        return {"gram": a["gram"],
                "reference": checks.gram_matrix(a["basis"], self._thermal()["frame"])}

    def judge_thermal_report(self, d):
        return [checks.report_check(d["gram"], d["reference"], "orthogonality report")]

    def corrupt_thermal_report(self, d):
        gram = d["gram"].copy()
        gram[1, 2] += 1e-8
        return [("one Gram entry + 1e-8", "orthogonality report", dict(d, gram=gram))]

    def parse_thermal_roundtrip(self, art):
        loaded = self.load(art)
        payload = _json(loaded["files"]["thermal-chain.json"])
        basis = np.array(payload["basis"]["re"]) + 1j * np.array(payload["basis"]["im"])
        return {"arrays": loaded["arrays"], "json_b": np.array(payload["b"]), "json_basis": basis}

    def judge_thermal_roundtrip(self, d):
        a = d["arrays"]
        return [_exact("artifact write", [(d["json_b"], a["b"]), (d["json_basis"], a["basis"])]),
                _exact("artifact read", [(a["b_loaded"], a["b"]),
                                         (a["basis_loaded"], a["basis"])])]

    def corrupt_thermal_roundtrip(self, d):
        a = dict(d["arrays"])
        a["basis_loaded"] = a["basis_loaded"].copy()
        a["basis_loaded"][0, 0] += 1e-12
        return [("one reloaded basis entry + 1e-12", "artifact read", dict(d, arrays=a))]

    @staticmethod
    def kind(op_name: str) -> str:
        """Method suffix of the parse/judge/corrupt triple for an operation."""
        base = op_name.split(":")[0]
        if base in ("evolve", "profile", "closure", "model"):
            return "family"
        return {"thermal-bound": "bound"}.get(base, base.replace("-", "_"))


def _bent(profile: dict) -> dict:
    bent = dict(profile)
    K = np.asarray(profile["K"], dtype=np.float64)
    bent["K"] = K * (1.0 + 1e-3 * np.sin(np.linspace(0.0, np.pi, K.size)))
    return bent


def verify(report: dict, work: Path) -> tuple[dict, list[str], bool]:
    """Verdicts per kept output, self-test lines, and whether the self-test held."""
    judge = Judge(report["params"], work)
    verdicts, lines, selftest_ok, tested = {}, [], True, set()
    for key, art in report["artifacts"].items():
        kind = judge.kind(art["name"])
        parse, check, corrupt = (getattr(judge, f"{stage}_{kind}")
                                 for stage in ("parse", "judge", "corrupt"))
        data = parse(art)
        verdicts[key] = check(data)
        for v in verdicts[key]:
            lines.append(f"check {art['name']}: {v}")
        if art["name"] in tested:
            continue
        tested.add(art["name"])
        for label, target, bad in corrupt(data):
            hit = [v for v in check(bad) if v.name.startswith(target)]
            rejected = bool(hit) and not all(v.ok for v in hit)
            selftest_ok &= rejected
            lines.append(f"selftest {target} on {label}: "
                         f"{'rejected' if rejected else 'NOT REJECTED'}")
    return verdicts, lines, selftest_ok


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    src = ROOT / "src"
    if not (src / "kbound" / "__init__.py").is_file():
        return _fail(f"no kbound package under {src.relative_to(ROOT)}/; "
                     "run from the root of a kbound checkout")
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    script = str(HERE / "workloads.py")

    setup_s = []
    for k in range(SETUP_REPEATS):
        target = work if k == SETUP_REPEATS - 1 else work / f"setup-{k}"
        t0 = time.perf_counter()
        proc = _run([sys.executable, script, "setup", args.workload, str(args.seed),
                     str(target)], env, SETUP_TIMEOUT)
        setup_s.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            return _fail(f"set-up failed:\n{proc.stderr}")
        if target != work:
            shutil.rmtree(target)

    remaining = RUN_DEADLINE - (time.perf_counter() - started)
    proc = _run([sys.executable, script, "run", str(work), repr(args.seconds),
                 str(args.trace)], env, remaining - 25.0)
    if proc.returncode != 0:
        return _fail(f"workload process failed:\n{proc.stderr}")
    report = _json(work / "report.json")

    verdicts, lines, selftest_ok = verify(report, work)
    attempted = failed = 0
    for op in report["ops"]:
        vs = verdicts[f"{op['name']}@{op['digest']}"]
        attempted += len(vs)
        failed += sum(not v.ok for v in vs)

    prov = dict(report["provenance"], commit=_commit(), workload=args.workload,
                seed=args.seed, params=report["params"], setup_samples_s=setup_s,
                rounds=len(report["reps"]))
    print("provenance " + json.dumps(prov))
    for line in lines:
        print(line)

    if args.trace:
        metrics = dict(report["layers"])
        spectral = [v.error for vs in verdicts.values() for v in vs if "spectral" in v.name]
        metrics["lanczos.spectral_residual"] = max(spectral, default=0.0)
        with open(ROOT / "BENCHMARK.json") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        out = {name: {"value": float(metrics[name]), "unit": unit}
               for name, unit in units.items()}
    else:
        reps = report["reps"]
        out = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in reps), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in reps), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    summary = {"provenance": prov, "reps": report["reps"], "metrics": out,
               "verdicts": lines, "attempted": attempted, "failed": failed}
    (work / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    for path in work.iterdir():  # keep the run record, drop the bulky outputs
        if path.name not in ("summary.json", "spans.json", "params.json"):
            path.unlink() if path.is_file() else shutil.rmtree(path)

    print(json.dumps({"correct": bool(selftest_ok), "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
