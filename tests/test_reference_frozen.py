"""The benchmark rescales every instance time by the frozen reference copy of
the library in perfbench/refkisin/, so that copy must never change: any edit
would move every recorded benchmark number at once."""

import hashlib
from pathlib import Path

REFKISIN = Path(__file__).resolve().parents[1] / "perfbench" / "refkisin"

# the tree of perfbench/refkisin/*.py as the benchmark introduced it
FROZEN_SHA256 = "cd4a1dcf55f19580a6cd310bd343ccf8177327456c314854633ad13b8da36cfa"


def tree_digest(files):
    """sha256 over (name, bytes) pairs sorted by name, each framed by its
    name and length so that no two trees share a stream."""
    digest = hashlib.sha256()
    for name, data in sorted(files):
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def test_reference_library_is_frozen():
    files = [(path.name, path.read_bytes()) for path in REFKISIN.glob("*.py")]
    assert files, f"no reference sources under {REFKISIN}"
    assert tree_digest(files) == FROZEN_SHA256
