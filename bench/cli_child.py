"""Run one qrs command with qrsgame's modules traced.

Usage: python3 cli_child.py SPANS_PATH QRS_ARGS...

Stdout and the exit code are those of ``qrs QRS_ARGS...``; the recorded
spans are written to SPANS_PATH (numpy .npz) when the command returns.
"""

import sys

from tracer import Recorder, save_spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.install()
    from qrsgame import cli

    try:
        return cli.main(argv)
    finally:
        rec.uninstall()
        save_spans(rec.spans(), spans_path)


if __name__ == "__main__":
    sys.exit(main())
