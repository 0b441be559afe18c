"""``python -m dpdplab``: the same command line as the ``dpdplab`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
