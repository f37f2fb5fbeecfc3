"""``python -m kpca_ood``: the ``kpca-ood`` command line."""

from .cli import run

if __name__ == "__main__":
    run()
