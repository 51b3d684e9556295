"""Regenerate the trained model that the pendulum_kan_infer workload loads.

Runs the bundled pendulum_kan preset through `kooplift generate` and
`kooplift train` with the preset's own seeds, with BLAS pinned the way the
benchmark pins it, and writes the model to fixtures/pendulum_kan_model.json
with its provenance (preset, seeds, source commit) in the model metadata:

    python3 benchmarks/make_fixture.py --commit <sha of the code being trained>
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from worker import FIXTURE, PRESETS, ROOT, RUN_ROOT, pin_blas


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True,
                        help="commit of the kooplift code that trains the model")
    args = parser.parse_args()
    pin_blas()
    sys.path.insert(0, str(ROOT / "src"))
    from kooplift import cli

    preset = PRESETS / "pendulum_kan.json"
    RUN_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_ROOT) as tmp:
        for command in ("generate", "train"):
            code = cli.main([command, "--config", str(preset), "--out", tmp])
            if code != 0:
                print(f"{command} exited {code}", file=sys.stderr)
                return 1
        doc = json.loads((Path(tmp) / "model.json").read_text())
    config = json.loads(preset.read_text())
    doc["metadata"] = {
        "system": "pendulum",
        "backend": "kan",
        "provenance": {
            "preset": preset.name,
            "dataset_seed": config["dataset"]["seed"],
            "train_seed": config["train"]["seed"],
            "commit": args.commit,
            "made_by": "benchmarks/make_fixture.py",
        },
    }
    FIXTURE.write_text(json.dumps(doc) + "\n")
    print(f"wrote {FIXTURE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
