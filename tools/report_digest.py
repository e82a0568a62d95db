"""Print the sha256 of each shipped config's benchmark report, with and without ICP.

Runs run_benchmark on every JSON config in a configs directory, once as
shipped and once with reloc.use_icp set to false (the AO-only pipeline), and
prints one `config sha256(canonical_json())` row per run. A change that should
not move any number leaves every row as it was.

    PYTHONPATH=src python tools/report_digest.py [configs directory, default src/objreloc/configs]
"""

import hashlib
import json
import sys
from pathlib import Path

from objreloc.pipeline import run_benchmark


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/objreloc/configs")
    for path in sorted(root.glob("*.json")):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        ao_only = {**cfg, "reloc": {**cfg.get("reloc", {}), "use_icp": False}}
        for name, run_cfg in ((path.stem, cfg), (f"{path.stem}+ao-only", ao_only)):
            report = run_benchmark(run_cfg).canonical_json()
            print(f"{name} {hashlib.sha256(report.encode('utf-8')).hexdigest()}", flush=True)


if __name__ == "__main__":
    main(sys.argv)
