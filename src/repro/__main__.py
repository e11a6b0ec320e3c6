"""``python -m repro`` — the unified CLI entry point (:mod:`repro.cli`)."""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
