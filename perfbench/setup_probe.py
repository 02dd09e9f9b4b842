"""One fresh-process set-up: import masec and, if asked, fit and save the
default surrogate table.

Usage: python3 perfbench/setup_probe.py SRC_DIR [TABLE_OUT]
"""
import sys


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    import masec
    if len(argv) > 1:
        masec.save_table(masec.default_table(), argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
