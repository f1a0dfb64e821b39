"""The benchmark's span hooks reach every layer, and the experiment scripts run.

``perfbench/spans.py`` rebinds module attributes (each machine module's
``step`` and ``run``, ``siam.DerivationIndex``,
``multitypes.infer_star_derivation``, ``lpam.History.entry``, the checkers,
``cli.main``) to time and count them; a rename or move of those names makes
the per-layer metrics read 0 without an error.  One short traced round of each
workload checks that every hook counts, and pins the counts that do not depend
on the seed.  The experiment scripts assert the paper's length, weight and
peak-marker identities themselves; here they only have to run to the end.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("liam", "ljam", "lpam", "kam", "ham.j", "ham.k", "siam")
TOKEN_LAYERS = LAYERS[:-1]  # the machines whose states have a footprint; not the SIAM


def _nonzero(metrics, names):
    zero = [name for name in names if not metrics[name]]
    assert not zero, f"per-layer metrics read 0: {zero}"


def _tn(metrics):
    _nonzero(metrics, [f"{m}.{k}" for m in LAYERS for k in ("steps", "step_s")]
             + ["tokens.footprint_calls", "tokens.footprint_s"])
    # one footprint sample per state: each step's, plus the initial state of
    # each of the 13 t_n inputs on each of the 6 token machines
    steps = sum(metrics[f"{m}.steps"] for m in TOKEN_LAYERS)
    assert metrics["tokens.footprint_calls"] == steps + 78
    # the SIAM declares no footprint: its runs are never sampled
    assert metrics["siam.footprint_s"] == 0


def _deep(metrics):
    # the PAM's jmp lookups on the six deep inputs (its var hops read the
    # history array directly) and the judgements of their six derivations
    assert metrics["lpam.history_entry_calls"] == 182
    assert metrics["multitypes.judgements"] == 1888
    _nonzero(metrics, ["multitypes.infer_s", "syntax.whnf_s", "siam.index_s"])


def _corpus(metrics):
    _nonzero(metrics, [f"equivalence.{c}_s" for c in
                       ("iam_jam", "jam_pam", "ham_jk", "weights", "invariants")])


def _trace(metrics):
    # the events of the eight traced runs, and every machine's snapshot
    assert metrics["cli.trace_events"] == 2723
    _nonzero(metrics, [f"{m}.snapshot_s" for m in LAYERS] + ["cli.run_self_s"])


PINS = {"tn": _tn, "deep": _deep, "corpus": _corpus, "trace": _trace}


@pytest.mark.parametrize("workload", PINS)
def test_a_traced_round_reaches_every_hook(tmp_path, workload):
    # the runner writes its spans under the working directory: keep them in tmp_path
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "0.2", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    PINS[workload]({name: m["value"] for name, m in result["metrics"].items()})
    assert (tmp_path / "perfbench" / "out" / f"spans-{workload}-1.json").is_file()


@pytest.mark.parametrize("script,rows", [
    ("exp_exponential_gap.py", 12),  # t_1 … t_12
    ("exp_space_gap.py", 16),  # r(k,h) for k, h in 1..4
])
def test_an_experiment_script_runs_to_the_end(script, rows):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 1 + rows
