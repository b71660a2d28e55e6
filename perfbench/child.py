"""Fresh-interpreter child of the benchmark: one CLI call or one probe.

    child.py reference                    nothing: an empty interpreter start
    child.py setup WORKLOAD SEED          import privmax (and build the audit pair)
    child.py cli PRIVMAX-ARGS...          what the ``privmax`` console script runs
    child.py cli-traced TRACE-OUT PRIVMAX-ARGS...
                                          the same call with layer wrappers,
                                          aggregates written to TRACE-OUT

The untraced modes import nothing of the tracer. privmax must be importable
(the benchmark puts the checkout's ``src`` on PYTHONPATH).
"""

import sys


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "reference":
        return 0
    if mode == "setup":
        import privmax  # noqa: F401  (the import is the set-up being timed)

        if argv[1] == "audit-lmm":
            import workloads

            workloads.audit_pair(int(argv[2]))
            workloads.audit_mechanism()
        return 0
    if mode == "cli":
        from privmax.cli import main as privmax_main

        return privmax_main(argv[1:])
    if mode == "cli-traced":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        import privmax.cli

        try:
            return privmax.cli.main(argv[2:])
        finally:
            tracer.uninstall()
            tracer.dump(argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
