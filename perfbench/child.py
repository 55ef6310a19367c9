"""One invocation of a spde-mlmc subcommand, in a process of its own.

    python child.py setup -- <subcommand arguments>
    python child.py run REPORT [--trace] -- <subcommand arguments>

``setup`` imports the package, parses the arguments into a configuration
and exits: the parent times the whole process as the set-up cost. ``run``
does the same, then times the subcommand handler from its first simulation
to its last CSV and writes a JSON report to REPORT. With ``--trace`` the
layer entry points are wrapped in spans first and the report carries the
per-layer metrics.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    split = argv.index("--")
    head, cli_argv = argv[:split], argv[split + 1:]

    from spde_mlmc import cli

    cfg = cli.make_config(cli.build_parser().parse_args(cli_argv))
    if head[0] == "setup":
        return 0
    report_path, trace = Path(head[1]), "--trace" in head[2:]
    handler = getattr(cli, "cmd_" + cfg.command.replace("-", "_"))

    tracer = None
    if trace:
        import tracing

        tracer = tracing.install(tracing.Tracer())
        root = tracer.open("cli.handler")
    started = time.perf_counter()
    code = handler(cfg)
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.close(root)

    import numpy
    import scipy

    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {
        "exit": code,
        "wall_s": wall,
        "peak_rss_mib": rss_kib / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer.spans, tracer.dispatch_s,
                                                 tracing.span_cost())
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
