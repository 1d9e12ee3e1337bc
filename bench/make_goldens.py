"""Freeze the goldens the benchmark compares results with, byte for byte.

Run from the repository root on the commit whose outputs are the
reference (the goldens in goldens.json were made on the commit that added
the benchmark, before any library change):

    python3 bench/make_goldens.py > bench/goldens.json

It records stdout and exit status of every fixed command the cli workload
can draw, the E/F rows up to m = 7, and for each built-in model the
projected class of every isomorphism-class indicator weight (projections
are linear in the weight, so these values check any seeded weight).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads

ROOT = os.getcwd()


def fixed_commands():
    cmds = []
    for m in workloads.EFF_TABLE_MAX:
        cmds += [["eff-table", "--max", str(m)], ["eff-table", "--max", str(m), "--json"]]
    for m in workloads.ABELIANIZE_MAX:
        cmds += [["abelianize", str(m)], ["euler", str(m)]]
    for suite in workloads.CHECK_SUITES:
        for m in workloads.CHECK_MAX:
            cmds += [["check", suite, "--max", str(m)], ["check", suite, "--max", str(m), "--json"]]
    cmds.append(["eff-table", "--max", "7", "--json"])
    return cmds


def run_cli(argv):
    env = {k: v for k, v in os.environ.items() if k != "MOTIVIC_WIDTH"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    p = subprocess.run(
        [sys.executable, "-m", "motivic.cli"] + argv, capture_output=True, text=True, env=env, check=False
    )
    if p.returncode != 0:
        raise SystemExit("golden command failed: %s" % " ".join(argv))
    return {"exit": p.returncode, "stdout": p.stdout}


def model_bases():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from motivic import models
    from motivic.groups import GeneralLinear, enumerate_partitions, partition_to_subgroup
    from motivic.stackcalc import WeightFn, upsilon_pi_mu

    out = {}
    for name in workloads.MODELS:
        x = getattr(models, name)()
        if isinstance(x.group, GeneralLinear):
            blocks = [partition_to_subgroup(q) for q in enumerate_partitions(x.ambient_rank)]
            classes = {s.intersect(b).iso_class() for s, _ in x.strata for b in blocks}
        else:
            classes = {s.iso_class() for s, _ in x.strata}
        basis = []
        total = None
        for c in sorted(classes):
            value = upsilon_pi_mu(x, WeightFn.iso_indicator(c))
            basis.append([c.torus_rank, list(c.torsion), value.to_json()])
            total = value if total is None else total + value
        if total != upsilon_pi_mu(x, WeightFn.const_one()):
            raise SystemExit("indicator basis of %s does not sum to the unit weight" % name)
        out[name] = basis
    return out


def main():
    cli = {" ".join(argv): run_cli(argv) for argv in fixed_commands()}
    e_rows = json.loads(cli.pop("eff-table --max 7 --json")["stdout"])["rows"]
    json.dump({"cli": cli, "e_table": e_rows, "models": model_bases()}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
