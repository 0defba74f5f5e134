"""End-to-end and per-layer benchmark of the cvqkd command line.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 30 --trace 0

Runs the workload's ``cvqkd`` invocations (``python -m cvqkd.cli`` with
``PYTHONPATH=src``) one at a time as subprocesses, checks every output, and
repeats the same work in-process after the imports. Fresh interpreters that
only import the CLI and resolve the workload's scenarios are interleaved
with the invocations to sample the set-up time. Whole rounds of the
workload run until about ``--seconds`` have passed.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of one traced
in-process pass. Run artefacts go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread: at most two busy processes on a two-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARTEFACTS = ROOT / ".perfbench"

SETUP_CODE = """\
import sys
import cvqkd.cli
from cvqkd.config import resolve_scenario
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        resolve_scenario(handle.read())
"""

IMPORT_SAMPLES = 3


class Bench:
    """Runs rounds of one workload and keeps what they measured."""

    def __init__(self, workload, workdir: Path):
        import jsonschema

        from checks import Checker

        self.workload = workload
        self.work = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.python = sys.executable
        self.check = Checker()
        schema_path = ROOT / "src" / "cvqkd" / "schemas" / "results.schema.json"
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft202012Validator(schema)
        self.first_outputs = {}
        self.invocation_s = []
        self.pass_s = []
        self.warm_pass_s = []
        self.setup_s = []
        self.warm_items = 0
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failed = 0

    # --- one round -----------------------------------------------------------

    def round(self) -> None:
        invs = self.workload.invocations
        n, k = len(invs), self.workload.setup_samples
        repeats = self.workload.warm_repeats
        setup_after = {(j * n) // k for j in range(k)}
        results, pass_s = {}, 0.0
        warm_s = {inv.name: [] for inv in invs}
        for i, inv in enumerate(invs):
            rows, wall = self.invoke(inv)
            results[inv.name] = rows
            pass_s += wall
            # the in-process repeats of one call are spread through the
            # round, so that they sample the machine at different times
            for r in range(repeats):
                other = invs[(i - r * n // repeats) % n]
                warm_s[other.name].append(self.warm(other))
            if i in setup_after:
                self.setup_sample()
        self.check.orderings(invs, results)
        for inv in invs:
            self.same_files(inv, self.output(inv, "warm"),
                            self.output(inv, "warmdump") if inv.dump else None,
                            "in-process")
            if inv.same_as:
                twin = self.work / f"{inv.same_as}.out"
                self.check.expect(self.output(inv).read_bytes()
                                  == twin.read_bytes(), inv.name,
                                  f"output differs from {inv.same_as}")
        self.pass_s.append(pass_s)
        self.warm_pass_s.append(sum(statistics.median(w)
                                    for w in warm_s.values()))
        self.warm_items += sum(inv.items for inv in invs)

    def output(self, inv, kind: str = "out") -> Path:
        return self.work / f"{inv.name}.{kind}"

    def invoke(self, inv) -> tuple:
        out, err = self.output(inv), self.output(inv, "err")
        dump = self.output(inv, "dump") if inv.dump else None
        argv = [self.python, "-m", "cvqkd.cli", *inv.argv(self.work, dump=dump)]
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fout, stderr=ferr,
                                    env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.invocation_s.append(wall)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        blob = out.read_bytes()
        first = self.first_outputs.setdefault(inv.name, blob)
        self.check.expect(blob == first, inv.name,
                          "output differs from the first round's")
        rows = self.check_output(inv, blob, code, dump)
        return rows, wall

    def check_output(self, inv, blob: bytes, code: int, dump) -> list:
        from checks import failed, read_rows

        if code not in (0, 2):
            self.check.expect(False, inv.name, f"exit code {code}: "
                              + self.output(inv, "err").read_text()[-300:])
            self.attempted += inv.rows
            self.failed += inv.rows
            return []
        rows = read_rows(blob, inv.fmt)
        n_failed = sum(failed(row) for row in rows)
        self.attempted += inv.rows
        self.failed += n_failed
        self.check.expect(code == (2 if n_failed else 0), inv.name,
                          f"exit code {code} with {n_failed} failed rows")
        echo = None
        if inv.fmt == "json":
            payload = json.loads(blob)
            errors = sorted(self.validator.iter_errors(payload), key=str)
            self.check.expect(not errors, inv.name,
                              f"schema: {errors[0].message if errors else ''}")
            echo = payload["scenario"]
        if inv.command in ("rate", "sweep"):
            self.check.rate_rows(inv, rows)
        elif inv.command == "simulate":
            data = None
            if dump is not None:
                import numpy as np
                data = np.loadtxt(dump, delimiter=",", skiprows=1, ndmin=2)
            self.check.simulate_row(inv, rows[0], data)
        else:
            self.check.coverage_row(inv, rows[0], echo)
        return rows

    def warm(self, inv) -> float:
        """The same work in-process, untraced; returns its wall time."""
        from cvqkd import cli

        dump = self.output(inv, "warmdump") if inv.dump else None
        argv = inv.argv(self.work, out=self.output(inv, "warm"), dump=dump,
                        jobs=1)
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
        self.check.expect(code in (0, 2), inv.name,
                          f"in-process exit code {code}")
        return wall

    def same_files(self, inv, out: Path, dump, label: str) -> None:
        """In-process output must equal the subprocess output byte for byte
        (the serial run also fixes the --jobs 2 rows)."""
        ok = filecmp.cmp(out, self.output(inv), shallow=False)
        if dump is not None:
            ok = ok and filecmp.cmp(dump, self.output(inv, "dump"),
                                    shallow=False)
        self.check.expect(ok, inv.name, f"{label} output differs from the CLI")

    def setup_sample(self) -> None:
        paths = [str(self.work / inv.config_name)
                 for inv in self.workload.invocations]
        start = time.perf_counter()
        proc = subprocess.run([self.python, "-c", SETUP_CODE, *paths],
                              env=self.env, cwd=ROOT, capture_output=True)
        self.setup_s.append(time.perf_counter() - start)
        self.check.expect(proc.returncode == 0, "setup",
                          proc.stderr.decode()[-300:])

    # --- results -------------------------------------------------------------

    def end_to_end(self) -> dict:
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "wall_s": (statistics.median(self.pass_s), "s"),
            "invocation_p50_s": (statistics.median(self.invocation_s), "s"),
            "warm_items_per_s": (self.warm_items / sum(self.warm_pass_s),
                                 "items/s"),
            "peak_rss_mb": (self.peak_rss_kb / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        """One traced in-process pass between two untraced ones, plus
        import times."""
        from cvqkd import cli
        from tracing import (Patch, Tracer, import_times, layer_metrics,
                             unit_of)

        invs = self.workload.invocations
        tracer = Tracer()
        out_bytes, traced_s = 0, 0.0
        # untraced passes right before and after the traced one give the
        # tracing overhead
        untraced_s = sum(self.warm(inv) for inv in invs) / 2
        with Patch(tracer) as patch:
            for inv in invs:
                out = self.output(inv, "traced")
                dump = self.output(inv, "traceddump") if inv.dump else None
                tracer.request = inv.name
                start = time.perf_counter()
                code = cli.main(inv.argv(self.work, out=out, dump=dump,
                                         jobs=1))
                traced_s += time.perf_counter() - start
                self.check.expect(code in (0, 2), inv.name,
                                  f"traced exit code {code}")
                self.same_files(inv, out, dump, "traced")
                out_bytes += out.stat().st_size
                out_bytes += dump.stat().st_size if dump else 0
        untraced_s += sum(self.warm(inv) for inv in invs) / 2
        for name in patch.missing:
            print(f"perfbench: no trace target {name}", file=sys.stderr)
        rate_rows = [inv for inv in invs if inv.command in ("rate", "sweep")]
        standard = sum(inv.rows for inv in rate_rows
                       if inv.scenario["security"] == "standard")
        mobile = sum(inv.rows for inv in invs
                     if inv.channel == "optical-mobile"
                     and inv.command != "coverage")
        metrics = layer_metrics(tracer, standard, mobile, out_bytes)
        metrics.update(import_times(self.python, self.env, ROOT,
                                    IMPORT_SAMPLES))
        print(f"perfbench: traced pass {traced_s:.3f} s, untraced pass "
              f"{untraced_s:.3f} s, tracing overhead "
              f"{traced_s - untraced_s:.3f} s "
              f"({(traced_s / untraced_s - 1.0) * 100.0:.1f} %), "
              f"{len(tracer.spans)} spans", file=sys.stderr)
        tracer.write(ARTEFACTS / f"spans-{self.workload.name}.csv")
        return {name: (value, unit_of(name))
                for name, value in sorted(metrics.items())}

    def warm_up(self) -> None:
        """Compile the package's bytecode before anything is timed."""
        subprocess.run([self.python, "-c", "import cvqkd.cli"], env=self.env,
                       cwd=ROOT, check=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("curves", "points", "coverage"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/cvqkd/cli.py", "configs")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a cvqkd checkout, missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ARTEFACTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ARTEFACTS) as tmp:
        workdir = Path(tmp)
        workload = workloads.build(args.workload, args.seed, ROOT, workdir)
        bench = Bench(workload, workdir)
        bench.warm_up()
        start = time.perf_counter()
        round_s = []
        while True:
            begin = time.perf_counter()
            bench.round()
            round_s.append(time.perf_counter() - begin)
            # stop at the round boundary nearest to --seconds
            if (time.perf_counter() - start + statistics.mean(round_s) / 2
                    >= args.seconds):
                break
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    for error in bench.check.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(f"perfbench: {len(round_s)} round(s) in "
          f"{sum(round_s):.1f} s", file=sys.stderr)
    result = {"correct": not bench.check.errors,
              "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
