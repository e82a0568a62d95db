"""Print the sha256 and accuracy of each config's benchmark report, with and
without ICP.

Runs run_benchmark on every JSON config in each configs directory given, in
the order given, once as shipped and once with reloc.use_icp set to false
(the AO-only pipeline), and prints one row per run: the config,
sha256(canonical_json()), the success rate at each threshold, and the
median translation (mm) and rotation (deg) errors and the largest
translation error (mm) over the frames with a pose.
A change that should not move any number leaves every row as it was; one
that trades accuracy shows the trade on every config with and without ICP.

    PYTHONPATH=src python tools/report_digest.py [configs directory ...]

The default is src/objreloc/configs. The shipped configs and the benchmark's
workloads together:

    PYTHONPATH=src python tools/report_digest.py src/objreloc/configs perfbench/workloads

The configs are only read.
"""

import hashlib
import json
import statistics
import sys
from pathlib import Path

from objreloc.pipeline import run_benchmark


def accuracy(doc):
    """The accuracy columns of a report's to_dict()."""
    rates = " ".join(f"{key} {rate:g}" for key, rate in doc["success_rate_at"].items())
    posed = [e for e in doc["per_frame"] if e["trans_error_m"] is not None]
    if not posed:
        return f"{rates} no frame has a pose"
    trans_mm = [1000.0 * e["trans_error_m"] for e in posed]
    rot_deg = [e["rot_error_deg"] for e in posed]
    return (f"{rates} trans_p50_mm {statistics.median(trans_mm):.5g} "
            f"rot_p50_deg {statistics.median(rot_deg):.5g} trans_max_mm {max(trans_mm):.4g}")


def main(argv):
    roots = [Path(a) for a in argv[1:]] or [Path("src/objreloc/configs")]
    for path in (path for root in roots for path in sorted(root.glob("*.json"))):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        ao_only = {**cfg, "reloc": {**cfg.get("reloc", {}), "use_icp": False}}
        for name, run_cfg in ((path.stem, cfg), (f"{path.stem}+ao-only", ao_only)):
            report = run_benchmark(run_cfg)
            digest = hashlib.sha256(report.canonical_json().encode("utf-8")).hexdigest()
            print(f"{name} {digest} {accuracy(report.to_dict(include_timing=False))}", flush=True)


if __name__ == "__main__":
    main(sys.argv)
