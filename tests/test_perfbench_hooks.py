"""The benchmark's span hooks reach the derivation layers.

``perfbench/spans.py`` rebinds module attributes (``siam.DerivationIndex``,
``multitypes.infer_star_derivation``, ``lpam.History.entry``) to time them; a
rename or move of those names makes the per-layer metrics read 0 without an
error.  One short traced run of the ``deep`` workload checks that they count.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_deep_run_counts_the_derivation_layers(tmp_path):
    # the runner writes its spans under the working directory: keep them in tmp_path
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "deep",
         "--seconds", "0.2", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"], done.stderr
    assert metrics["lpam.history_entry_calls"] == 182
    assert metrics["multitypes.judgements"] == 1888
    assert metrics["siam.index_s"] > 0
    assert (tmp_path / "perfbench" / "out" / "spans-deep-1.json").is_file()
