"""Start-up probe: import reidkit and load the given inputs through its
public loaders, as every CLI stage does before it computes.

    python3 probe_setup.py index:q.csv emb:q.remb image:a.ppm ...
"""

import sys

from reidkit import gallery, imaging


def main(items):
    for item in items:
        kind, path = item.split(":", 1)
        if kind == "index":
            gallery.load_index(path)
        elif kind == "emb":
            gallery.load_embeddings(path)
        elif kind == "image":
            with open(path, "rb") as fh:
                imaging.decode_image(fh.read())
        else:
            raise SystemExit(f"unknown loader {kind!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
