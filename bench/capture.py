"""Record the goldens that the benchmark's output checks compare against.

    python3 bench/capture.py

Writes bench/golden/: the stdout of every CLI kind on the bundled case study,
and digests of the panel-800 pipeline (one per panel seed). Run it only on
a commit whose outputs are known to be right; a change that must keep the
same outputs is checked against the goldens, not re-captured.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import workloads as w


def _write(name: str, doc) -> None:
    text = json.dumps(doc, ensure_ascii=False, separators=(",", ":"))
    # One entry per line keeps the files diffable.
    text = text.replace('},"', '},\n"').replace("},{", "},\n{")
    (w.GOLDEN / name).write_text(text + "\n", encoding="utf-8")


def capture_cli() -> None:
    (w.GOLDEN / "cli").mkdir(parents=True, exist_ok=True)
    w.WORK.mkdir(exist_ok=True)
    cwd = tempfile.mkdtemp(prefix="capture-", dir=w.WORK)
    try:
        for cmd, fmt in w.CLI_KINDS:  # fit first: diagnose reads its model
            proc = subprocess.run(
                [sys.executable, "-m", "distress_lda.cli", *w.cli_argv(cmd, fmt)],
                cwd=cwd, env=w.cli_env(), capture_output=True, check=True,
            )
            (w.GOLDEN / "cli" / f"{cmd}.{fmt}").write_bytes(proc.stdout)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def capture_panel() -> None:
    digests = {}
    for seed in range(w.PANEL_SEEDS):
        workload = w.Panel800(seed, traced=False)
        digests[str(seed)] = workload.digest(workload.op(0))
    _write("panel-800.json", digests)


if __name__ == "__main__":
    sys.path.insert(0, str(w.SRC))
    capture_cli()
    capture_panel()
