"""Self-test of the bench_e2e runner at a tiny scale factor.

Run it through the build wrapper from the root of a checkout:

    python3 bench_e2e/run.py --self-test

It checks that:
  * every metric of the catalog is emitted, with its unit and direction, on
    every workload, untraced and traced, and that BENCHMARK.json (when
    present) declares exactly that catalog;
  * the correctness gate trips on a deliberately perturbed answer;
  * in each traced run the per-layer self times cover >= 95% of the traced
    wall time;
  * partial runs are marked partial and refuse to be written as baselines;
  * a PIET_* variable in the environment stops the run.
"""

import json
import os
import subprocess
import tempfile
from pathlib import Path

SCALE = "0.1"
RUN_TIMEOUT_S = 170


def _run(binary, args, out_dir, env=None):
    cmd = [str(binary), *args, "--scale", SCALE, "--seconds", "1", "--seed", "7", "--out", str(out_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    try:
        result = json.loads(last) if last else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main(binary, root) -> int:
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    describe = json.loads(subprocess.run(
        [str(binary), "--describe"], capture_output=True, text=True,
        check=True, timeout=60).stdout)
    catalog = {tier: {m["name"]: m for m in describe[tier]}
               for tier in ("end_to_end", "per_layer")}

    declared = Path(root) / "BENCHMARK.json"
    if declared.is_file():
        bench = json.loads(declared.read_text())
        for tier in ("end_to_end", "per_layer"):
            decl = {m["name"]: (m["unit"], m["better"]) for m in bench[tier]}
            want = {n: (m["unit"], m["better"]) for n, m in catalog[tier].items()}
            check(decl == want, f"BENCHMARK.json {tier} matches the catalog")
        check(sorted(w["name"] for w in bench["workloads"]) ==
              sorted(describe["workloads"]),
              "BENCHMARK.json workloads match the runner")

    with tempfile.TemporaryDirectory(dir=os.getcwd(),
                                     prefix=".bench_selftest-") as tmp:
        out = Path(tmp)
        for workload in describe["workloads"]:
            for trace, tier in (("0", "end_to_end"), ("1", "per_layer")):
                code, result, err = _run(
                    binary, ["--workload", workload, "--trace", trace], out)
                tag = f"{workload} trace={trace}"
                check(code == 0 and result is not None and result["correct"]
                      and result["failed"] == 0 and result["attempted"] > 0,
                      f"{tag}: runs clean ({err.strip()[-200:]})")
                if result is None:
                    continue
                metrics = result["metrics"]
                check(set(metrics) == set(catalog[tier]),
                      f"{tag}: emits exactly the {tier} metrics")
                check(all(metrics[n]["unit"] == catalog[tier][n]["unit"]
                          for n in metrics if n in catalog[tier]),
                      f"{tag}: every metric carries its unit")
                doc = json.loads((out / f"e2e-{workload}-seed7-trace{trace}.json")
                                 .read_text())
                check(all(doc["metrics"][n]["better"] ==
                          catalog[tier][n]["better"] for n in catalog[tier]),
                      f"{tag}: result file carries every direction")
                check(doc["partial"] is False and "revision" in doc["provenance"],
                      f"{tag}: result file is a full run with provenance")
                if trace == "1":
                    ratio = metrics["trace.attributed_ratio"]["value"]
                    check(ratio >= 0.95,
                          f"{tag}: layer self times cover {ratio:.3f} of wall")

        code, result, _ = _run(binary, ["--workload", "paper_mix", "--trace",
                                        "0", "--perturb", "remark1"], out)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0, "gate trips on a perturbed answer")

        baseline = out / "baseline.json"
        code, _, _ = _run(binary, ["--workload", "paper_mix", "--trace", "0",
                                   "--queries", "remark1",
                                   "--baseline", str(baseline)], out)
        check(code != 0 and not baseline.exists(),
              "a partial run is never written as a baseline")
        code, result, _ = _run(binary, ["--workload", "paper_mix", "--trace",
                                        "0", "--skip", "type4_naive"], out)
        doc = json.loads((out / "e2e-paper_mix-seed7-trace0.json").read_text())
        check(code == 0 and doc["partial"] is True and all(
            q["name"] != "type4_naive" for q in doc["queries"]),
              "--skip runs the rest and marks the run partial")

        env = dict(os.environ, PIET_THREADS="2")
        code, result, _ = _run(binary, ["--workload", "paper_mix", "--trace",
                                        "0"], out, env=env)
        check(code != 0 and result is None, "a PIET_* variable stops the run")

    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0
