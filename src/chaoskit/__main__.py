"""python -m chaoskit <experiment> [options]: the chaoskit command line."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
