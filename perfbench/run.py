"""ctrend benchmark: times the real ``ctrend`` CLI on seeded, generated inputs.

    python3 perfbench/run.py --workload leader --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the program under test is ``src/ctrend``
there. The workload's inputs are generated from ``--seed``, then its
commands run as child processes, one at a time and with one BLAS thread,
in passes that fit in ``--seconds`` (at least one); input generation is
timed again after every command (``setup_s``). Every pass is checked
against the planted ranking, the recorded reference for the seed
(``reference.json``) and the analyze-written CSVs. With ``--trace 1`` the commands run in-process under
``traced.py`` instead and the per-layer metrics are printed. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

# Fold correlations and ranking scores may move by this much against the
# reference, which was recorded with PINNED_THREADS. Other BLAS thread
# counts move leader correlations by ~4e-15, but text ones by up to 5e-5,
# and there they change chosen grid points too.
TOL = 1e-9
MIN_COVERAGE = 0.97
# The planted trend setter, "leader" in both generators. It must rank
# first, or trail the first feed by at most LEADER_TIE: on the leader corpus
# a follower that runs an hour ahead of the other followers can tie it. The
# largest gap seen is 0.0094 (seeds 0-31, where it trails on 4; acceptance
# criterion 07 asks for 9 seeds in 10); the margin is about twice that,
# while the other followers score ~0.
LEADER = "leader"
LEADER_TIE = 0.02
REFERENCE = HERE / "reference.json"
THREAD_VARS = ("OPENBLAS_", "OMP_", "MKL_", "GOTO_", "BLIS_", "VECLIB_")
# Every command runs with one BLAS thread. On a VM with few cores a second
# OpenBLAS thread spin-waits whenever the host takes its partner vCPU away:
# default threads put leader analyze at 8.7-13.9 s wall (14-19 s CPU),
# one thread at 7.5-10.6 s wall and 7.3-7.4 s CPU, interleaved on one host.
# It also makes the outputs independent of the core count, which the
# text workload's outputs are not under default threads (see TOL).
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

# Declared end-to-end metrics. reemit_s and featurize_s are printed with
# their quartiles but not declared: these short or pure-Python processes
# move with the host's state far more than analyze does (one set
# of ten text runs spread reemit_s by IQR/median 0.30), past any bound
# BENCHMARK.json may set. pipeline_s contains both.
E2E_UNITS = {"analyze_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
             "pipeline_s": "s", "setup_s": "s"}


@dataclass
class Step:
    start: float  # perf_counter, which is system-wide on Linux
    end: float
    cpu: float
    rss_mb: float
    rc: int

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    steps: dict[str, list[Step]] = field(default_factory=dict)
    complete: bool = False  # every command ran and exited 0
    summary: dict | None = None
    problems: list[str] = field(default_factory=list)
    traces: dict[str, dict] = field(default_factory=dict)
    bytes_written: int = 0


class Runner:
    """Runs ``ctrend`` commands in child processes from the checkout root."""

    def __init__(self, root: Path, log: Path):
        self.root = root
        self.log = log
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def run(self, args: list[str], trace_to: Path | None = None) -> Step:
        if trace_to is None:
            cmd = [sys.executable, "-m", "ctrend", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced.py"), str(trace_to), *args]
        with open(self.log, "ab") as log:
            log.write(("$ " + " ".join(cmd) + "\n").encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=log, stderr=log)
            # wait4 reports the child's CPU and peak RSS including the
            # worker processes it has reaped
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Step(start, end, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024, proc.returncode)

    def log_tail(self, lines: int = 15) -> str:
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])


# ---------------------------------------------------------------------------
# output check

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def corpus_hash(corpus: Path) -> str:
    h = hashlib.sha256()
    for name in ("meta.json", "matrix.csv"):
        h.update((corpus / name).read_bytes())
    return h.hexdigest()


def check_report(seed: int, report_dir: Path, corpus: Path
                 ) -> tuple[dict, list[str]]:
    """Invariants every seed must meet; returns the comparable summary."""
    report = json.loads((report_dir / "report.json").read_text())
    models = json.loads((report_dir / "models.json").read_text())
    problems = []
    cfg = report["config"]
    if cfg["seed"] != seed:
        problems.append(f"report seed {cfg['seed']} != {seed}")
    if not cfg["corpus_hash"] == models["corpus_hash"] == corpus_hash(corpus):
        problems.append("report/models corpus hash does not match the corpus")
    ranking = [(e["feed_id"], e["score"]) for e in report["ranking"]]
    scores = dict(ranking)
    if not ranking or scores.get(LEADER, -math.inf) < \
            ranking[0][1] - LEADER_TIE:
        problems.append(f"planted leader {LEADER!r} not ranked first: {ranking}")
    summary = {"ranking": ranking, "chosen": {}, "correlations": {},
               "report_sha256": _sha256(report_dir / "report.json"),
               "models_sha256": _sha256(report_dir / "models.json")}
    lags, kappas = cfg["grid"]["lags"], cfg["grid"]["kappas"]
    for feed in report["feeds"]:
        fid, corrs = feed["feed_id"], feed["fold_correlations"]
        chosen = [(c["n_lags"], c["kappa"]) for c in feed["chosen"]]
        if len(corrs) != cfg["folds"] or not all(
                math.isfinite(c) and -1.0 <= c <= 1.0 for c in corrs):
            problems.append(f"{fid}: bad fold correlations {corrs}")
        if any(lag not in lags or k not in kappas for lag, k in chosen):
            problems.append(f"{fid}: chosen point outside the grid {chosen}")
        if fid not in scores or abs(scores[fid] - sum(corrs) / len(corrs)) > 1e-12:
            problems.append(f"{fid}: ranking score is not the fold mean")
        summary["chosen"][fid] = chosen
        summary["correlations"][fid] = corrs
    return summary, problems


def compare(summary: dict, ref: dict, what: str) -> list[str]:
    """Ranking order, chosen grid points and fold correlations within TOL."""
    problems = []
    if [f for f, _ in summary["ranking"]] != [f for f, _ in ref["ranking"]]:
        problems.append(f"ranking order differs from {what}")
    for (_, a), (_, b) in zip(summary["ranking"], ref["ranking"]):
        if abs(a - b) > TOL:
            problems.append(f"ranking score differs from {what} by {abs(a - b):.3g}")
    for fid, chosen in ref["chosen"].items():
        if [tuple(c) for c in summary["chosen"].get(fid, [])] != \
                [tuple(c) for c in chosen]:
            problems.append(f"{fid}: chosen (n_lags, kappa) differ from {what}")
        got = summary["correlations"].get(fid, [])
        diff = max((abs(a - b) for a, b in zip(got, ref["correlations"][fid])),
                   default=math.inf)
        if len(got) != len(ref["correlations"][fid]) or diff > TOL:
            problems.append(f"{fid}: fold correlations differ from {what} "
                            f"by {diff:.3g}")
    return problems


def _out_bytes(*paths: Path) -> int:
    total = 0
    for p in paths:
        files = p.rglob("*") if p.is_dir() else [p]
        total += sum(f.stat().st_size for f in files if f.is_file())
    return total


# ---------------------------------------------------------------------------
# one pass of a workload

def one_pass(w: wl.Workload, seed: int, entry: Path, work: Path,
             runner: Runner, traced: bool, reemit_reps: int = 1,
             between=lambda: None) -> Pass:
    """Run the workload's commands once, re-emit ``reemit_reps`` times, and
    call ``between`` after every command."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    res = Pass()

    def step(name: str, args: list[str]) -> bool:
        trace_to = work / f"{name}.trace.json" if traced else None
        s = runner.run(args, trace_to)
        res.steps.setdefault(name, []).append(s)
        between()
        if traced and s.rc == 3:
            sys.exit(f"run.py: traced {name} could not install its hooks:\n"
                     + runner.log_tail())
        if s.rc != 0:
            res.problems.append(f"{name} exited with {s.rc}:\n" + runner.log_tail())
            return False
        if traced:
            res.traces[name] = json.loads(trace_to.read_text())
        return True

    corpus = entry
    if not w.synth:
        corpus = work / "corpus"
        if not step("featurize", wl.featurize_args(entry, corpus)):
            return res
    report = work / "report"
    if not step("analyze", wl.analyze_args(w, corpus, report, seed)):
        return res
    try:
        res.summary, res.problems = check_report(seed, report, corpus)
    except (OSError, ValueError, KeyError, TypeError) as e:
        res.problems.append(f"unreadable analyze output: {e!r}")
        return res
    if not res.summary["ranking"]:
        return res
    feed = res.summary["ranking"][0][0]
    for _ in range(reemit_reps):
        for kind in ("correlogram", "topwords"):
            out = work / f"{kind}.csv"
            if not step(kind, wl.reemit_args(kind, report, corpus, feed, out)):
                return res
            try:
                same = out.read_bytes() == (report / feed / f"{kind}.csv").read_bytes()
            except OSError:  # analyze wrote no CSV for this feed
                same = False
            if not same:
                res.problems.append(f"re-emitted {kind}.csv differs from analyze's")
    res.bytes_written = _out_bytes(report, work / "correlogram.csv",
                                   work / "topwords.csv")
    res.complete = True
    return res


# ---------------------------------------------------------------------------
# metrics

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def e2e_samples(passes: list[Pass], setup: list[float]) -> dict[str, list[float]]:
    out = {k: [] for k in E2E_UNITS}
    out["setup_s"] = setup
    for p in passes:
        if not p.complete:
            continue  # a command failed; a pass that only failed its check counts
        a = p.steps["analyze"][0]
        reemit = [c.wall + t.wall
                  for c, t in zip(p.steps["correlogram"], p.steps["topwords"])]
        front = [s.wall for s in p.steps.get("featurize", [])]
        out["analyze_s"].append(a.wall)
        out["cpu_s"].append(a.cpu)
        out["peak_rss_mb"].append(a.rss_mb)
        out.setdefault("reemit_s", []).extend(reemit)
        out["pipeline_s"].append(sum(front) + a.wall + statistics.median(reemit))
        if front:
            out.setdefault("featurize_s", []).extend(front)
    return out


PER_LAYER = {  # name -> unit; values computed in layer_metrics
    "cli.import_s": "s", "corpus.load_s": "s", "corpus.hash_s": "s",
    "corpus.load_nnz": "count", "corpus.vocab_s": "s", "corpus.featurize_s": "s",
    "corpus.tfidf_s": "s", "corpus.store_s": "s",
    "stemmer.stem_calls": "count", "stemmer.stem_s": "s",
    "stemmer.distinct_ratio": "ratio",
    "embedding.pool_calls": "count", "embedding.pool_s": "s",
    "embedding.embed_calls": "count", "embedding.embed_s": "s",
    "embedding.embed_mb": "MiB",
    "kcca.eigh_calls": "count", "kcca.eigh_s": "s", "kcca.eigh_ops": "ops",
    "kcca.svd_calls": "count", "kcca.svd_s": "s", "kcca.svd_ops": "ops",
    "kcca.svd_used_ratio": "ratio", "kcca.center_s": "s",
    "kcca.degenerate": "count",
    "evaluation.feed_data_s": "s", "evaluation.nested_self_s": "s",
    "evaluation.final_fit_self_s": "s", "evaluation.correlogram_s": "s",
    "evaluation.lsa_s": "s",
    "evaluation.inner_folds": "count",
    "reporting.write_s": "s", "reporting.trend_s": "s",
    "reporting.bytes_written": "bytes",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}


def layer_metrics(p: Pass, untraced_analyze_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; self time is a span's duration
    minus its children's."""
    total, self_, counts = defaultdict(float), defaultdict(float), defaultdict(int)
    for trace in p.traces.values():
        for name, start, end, _, child in trace["spans"]:
            total[name] += end - start
            self_[name] += end - start - child
        for k, v in trace["counts"].items():
            counts[k] += v

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    # interpreter start-up and exit (with the trace dump) are timed from
    # outside the process; everything between must sit in top-level spans
    step, trace = p.steps["analyze"][0], p.traces["analyze"]
    covered = (trace["start"] - step.start + step.end - trace["end"]
               + sum(end - start for _, start, end, parent, _ in trace["spans"]
                     if parent is None))
    return {
        "cli.import_s": total["cli.import"] / len(p.traces),
        "corpus.load_s": total["corpus.load"],
        "corpus.hash_s": total["corpus.hash"],
        "corpus.load_nnz": counts["corpus.load_nnz"],
        "corpus.vocab_s": total["corpus.vocab"],
        "corpus.featurize_s": total["corpus.featurize"],
        "corpus.tfidf_s": total["corpus.tfidf"],
        "corpus.store_s": total["corpus.store"],
        "stemmer.stem_calls": counts["stemmer.stem_calls"],
        "stemmer.stem_s": counts["stemmer.stem_s"],
        "stemmer.distinct_ratio": ratio(counts["stemmer.distinct"],
                                        counts["stemmer.stem_calls"]),
        "embedding.pool_calls": counts["embedding.pool_calls"],
        "embedding.pool_s": total["embedding.pool"],
        "embedding.embed_calls": counts["embedding.embed_calls"],
        "embedding.embed_s": total["embedding.embed"],
        "embedding.embed_mb": counts["embedding.embed_bytes"] / 2**20,
        "kcca.eigh_calls": counts["kcca.eigh_calls"],
        "kcca.eigh_s": total["kcca.eigh"],
        "kcca.eigh_ops": counts["kcca.eigh_ops"],
        "kcca.svd_calls": counts["kcca.svd_calls"],
        "kcca.svd_s": total["kcca.svd"],
        "kcca.svd_ops": counts["kcca.svd_ops"],
        "kcca.svd_used_ratio": ratio(counts["kcca.svd_triplets_used"],
                                     counts["kcca.svd_triplets"]),
        "kcca.center_s": total["kcca.center"],
        "kcca.degenerate": counts["kcca.degenerate"],
        "evaluation.feed_data_s": total["evaluation.feed_data"],
        "evaluation.nested_self_s": self_["evaluation.nested"]
        + self_["evaluation.inner_fold"],
        "evaluation.final_fit_self_s": self_["evaluation.final_fit"],
        "evaluation.correlogram_s": total["evaluation.correlogram"],
        "evaluation.lsa_s": total["evaluation.lsa"],
        "evaluation.inner_folds": counts["evaluation.inner_fold_calls"],
        "reporting.write_s": total["reporting.write"],
        "reporting.trend_s": total["reporting.trend"],
        "reporting.bytes_written": p.bytes_written,
        "trace.coverage": covered / step.wall,
        "trace.overhead": step.wall / untraced_analyze_s,
    }


def exact_counts(p: Pass) -> dict[str, float]:
    """Computed counts that must repeat exactly between traced passes."""
    out: dict[str, float] = {}
    for step, trace in p.traces.items():
        for k, v in trace["counts"].items():
            if k.endswith(("_calls", "_ops")):
                out[f"{step}:{k}"] = v
    return out


# ---------------------------------------------------------------------------
# environment

def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{blas[k]['name']} {blas[k]['version']}" for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = "unknown"
    src = hashlib.sha256()
    for f in sorted((root / "src" / "ctrend").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "seed": seed, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_vars": {k: v for k, v in sorted(os.environ.items())
                        if k.startswith(THREAD_VARS)},
        "blas": blas, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": _git_commit(root), "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's first pass in reference.json")
    args = ap.parse_args()
    os.environ.update(PINNED_THREADS)  # before numpy loads, here or in a child

    root = Path.cwd()
    if not (root / "src" / "ctrend" / "cli.py").is_file():
        print(f"run.py: no ctrend source at {root / 'src' / 'ctrend'}; run "
              f"from the root of a ctrend checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    w = wl.WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, root, w, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure(args, root: Path, w: wl.Workload, work: Path) -> int:
    env = environment(root, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    runner = Runner(root, work / "commands.log")

    setup: list[float] = []

    def make_inputs(directory: Path) -> Path:
        gc.collect()  # the runner's own garbage is not set-up work
        start = time.perf_counter()
        made = wl.make_inputs(w, args.seed, directory)
        setup.append(time.perf_counter() - start)
        return made

    def between() -> None:
        # Set-up is timed again after every command, into a spare directory:
        # the machine's speed shifts every few seconds, and samples spread
        # over the run give a value that does not hang on one moment.
        if not args.trace:
            make_inputs(work / "setup_again")

    entry = make_inputs(work / "inputs")
    # warm the import path and file cache before anything is timed
    subprocess.run([sys.executable, "-c", "import ctrend.cli"], cwd=root,
                   env=runner.env)

    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref = refs.get(w.name, {}).get(str(args.seed))
    passes: list[Pass] = []

    def run_pass(traced: bool) -> Pass:
        p = one_pass(w, args.seed, entry, work / f"pass{len(passes)}", runner,
                     traced, 1 if args.trace else w.reemit_reps, between)
        if p.summary is not None:
            if ref is not None:
                p.problems += compare(p.summary, ref, "the reference")
            if passes and passes[0].summary is not None:
                p.problems += compare(p.summary, passes[0].summary, "pass 0")
        passes.append(p)
        for msg in p.problems:
            print(f"pass {len(passes) - 1} FAILED: {msg}", file=sys.stderr)
        return p

    if args.trace:
        metrics, problems = layer_run(run_pass)
    else:
        # no pass starts that would, at the last pass's length, end past
        # the deadline; the first always runs
        deadline = time.perf_counter() + args.seconds
        last = 0.0
        while not passes or time.perf_counter() + last < deadline:
            start = time.perf_counter()
            run_pass(False)
            last = time.perf_counter() - start
        metrics = e2e_report(passes, setup, ref)
        problems = [] if metrics else ["no pass ran all of its commands"]
        if args.record and not passes[0].problems:
            refs.setdefault(w.name, {})[str(args.seed)] = passes[0].summary
            refs["recorded_with"] = {k: v for k, v in env.items()
                                     if k != "seed"}
            REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")

    for msg in problems:
        print(f"check FAILED: {msg}", file=sys.stderr)
    failed = sum(bool(p.problems) for p in passes)
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_run(run_pass) -> tuple[dict, list[str]]:
    """Two traced passes with an untraced one between them, the baseline of
    trace.overhead; per-layer metrics from the second traced pass."""
    traced = [run_pass(True)]
    base = run_pass(False)
    traced.append(run_pass(True))
    if any(p.problems for p in [base] + traced):
        return {}, []
    problems = []
    a, b = exact_counts(traced[0]), exact_counts(traced[1])
    if a != b:
        diff = {k: (a.get(k), b.get(k)) for k in set(a) | set(b)
                if a.get(k) != b.get(k)}
        problems.append(f"computed counts differ between traced passes: {diff}")
    values = layer_metrics(traced[1], base.steps["analyze"][0].wall)
    if values["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"top-level spans cover only "
                        f"{values['trace.coverage']:.3f} of traced analyze_s")
    for name, unit in PER_LAYER.items():
        print(f"{name:32s} {values[name]:>16.6g} {unit}")
    return {n: {"value": values[n], "unit": u} for n, u in PER_LAYER.items()}, problems


def e2e_report(passes: list[Pass], setup: list[float], ref: dict | None) -> dict:
    """Print median, quartiles, mean and sample count per metric; returns
    the medians (the mean for setup_s), or {} when no pass ran all of its
    commands."""
    samples = e2e_samples(passes, setup)
    if not samples["analyze_s"]:
        return {}
    metrics = {}
    print(f"{'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'mean':>10s} {'n':>3s}")
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        mean = statistics.fmean(values)
        print(f"{name:14s} {med:10.4f} {q1:10.4f} {q3:10.4f} {mean:10.4f} "
              f"{len(values):3d} {E2E_UNITS.get(name, 's')}")
        if name in E2E_UNITS:
            # Set-up samples are short (0.2-0.4 s) and fall into the host's
            # fast or slow state (~1.6x apart, each lasting seconds), so
            # their median jumps from one mode to the other between runs;
            # their mean moves only with the share of slow samples.
            value = mean if name == "setup_s" else med
            metrics[name] = {"value": value, "unit": E2E_UNITS[name]}
    digests = {(p.summary["report_sha256"], p.summary["models_sha256"])
               for p in passes if p.summary}
    if ref is None:
        print("reference: none recorded for this seed; "
              "invariant and pass-to-pass checks only")
    elif digests != {(ref["report_sha256"], ref["models_sha256"])}:
        print("reference: report/models bytes differ from the reference "
              "(reported, not failed; the values are checked within TOL)")
    else:
        print("reference: report/models bytes identical")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
