"""Cross-process content-addressed proof cache.

The per-PO implication condition (paper Sec 2.2) only depends on the
*cones* of the original and approximate output and the check direction.
This module derives a content address for that triple — the sha256 of a
levelized serialization of both cones — and persists proved verdicts as
small JSON entries under ``.lab_cache/proofs/``, so repeated sweeps,
warm serve-style workloads, and lint re-verification never re-prove a
cone.  Only *exact* verdicts (BDD or SAT engines) are ever stored or
served; statistical simulation verdicts stay out of the cache so a flow
produces bit-identical results with a cold or warm cache.

Every entry embeds a digest of its own payload: a corrupted entry
(truncated write, bit rot, hand editing) is detected on read, evicted,
and transparently re-proved.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

__all__ = ["ProofCache", "ConeFingerprinter", "implication_key",
           "pct_key", "error_key", "PROOF_SCHEMA", "CHECK_KIND_VERSIONS",
           "EXACT_ENGINES", "STATIC_ENGINE", "TRUSTED_ENGINES"]

#: Bump when the entry layout or the fingerprint recipe changes.
#: v2: keys carry the synthesis-engine name and a per-check-kind
#: version, so mixed-engine sweeps sharing one cache directory can
#: never serve a cube-selection verdict to a resub query (or vice
#: versa); v1 entries are stale-format and evicted on read or via
#: ``cache prune``.
PROOF_SCHEMA = 2

#: Version of each check kind's *meaning*.  Bumping one invalidates
#: that kind's keys only, instead of the whole cache via PROOF_SCHEMA.
CHECK_KIND_VERSIONS = {"implication": 1, "approx_pct": 1,
                       "error_metric": 1}

#: Engines whose verdicts are exact and therefore cacheable.
EXACT_ENGINES = ("bdd", "sat")

#: The static-discharge rung (repro.analyze): verdicts are theorems of
#: the dataflow analyses, as trustworthy as BDD/SAT proofs.
STATIC_ENGINE = "static"

#: Every engine whose cached verdicts may be served without re-proving.
TRUSTED_ENGINES = (*EXACT_ENGINES, STATIC_ENGINE)


# ----------------------------------------------------------------------
# Cone fingerprints
# ----------------------------------------------------------------------
class ConeFingerprinter:
    """Memoizing serializer of per-signal cones.

    One per-network serialization (a line per node: name, fanins, SOP
    cover rows) is computed per ``(object, version)`` and reused for
    every root, so fingerprinting all POs of a network costs one table
    build plus one transitive-fanin walk per PO.
    """

    def __init__(self):
        self._memo: dict[int, tuple] = {}

    def _table(self, network) -> tuple[dict[str, str], dict[str, int]]:
        key = id(network)
        memo = self._memo.get(key)
        version = getattr(network, "version", None)
        if memo is not None and memo[0] is network and memo[1] == version:
            return memo[2], memo[3]
        order = network.topological_order()
        index = {name: i for i, name in enumerate(order)}
        lines = {}
        for name in order:
            node = network.nodes[name]
            lines[name] = (f"{name}<{','.join(node.fanins)}"
                          f"<{';'.join(node.cover.to_strings())}")
        self._memo[key] = (network, version, lines, index)
        return lines, index

    def cone(self, network, root: str) -> str:
        """Deterministic levelized serialization of one root's cone."""
        if root not in network.nodes:
            return f"pi:{root}"
        lines, index = self._table(network)
        cone = network.transitive_fanin([root])
        members = sorted((n for n in cone if n in lines),
                         key=index.__getitem__)
        pis = sorted(n for n in cone if n not in lines)
        return "|".join([f"root:{root}", "pis:" + ",".join(pis)]
                        + [lines[n] for n in members])


def _key(fp: ConeFingerprinter, original, approx, po: str,
         kind: str, engine: str, extra: list[str]) -> str:
    payload = "\n".join([
        f"proof-v{PROOF_SCHEMA}", f"kind={kind}",
        f"kind-v{CHECK_KIND_VERSIONS[kind]}", f"engine={engine}",
        *extra,
        "[original]", fp.cone(original, po),
        "[approx]", fp.cone(approx, po)])
    return hashlib.sha256(payload.encode()).hexdigest()


def implication_key(fp: ConeFingerprinter, original, approx,
                    po: str, direction: int,
                    engine: str = "cube") -> str:
    """Content address of one per-PO implication check.

    ``engine`` is the synthesis engine asking — its verdicts never
    collide with another engine's even on identical cones.
    """
    return _key(fp, original, approx, po, "implication", engine,
                [f"direction={int(direction)}"])


def pct_key(fp: ConeFingerprinter, original, approx,
            po: str, direction: int, engine: str = "cube") -> str:
    """Content address of one per-PO approximation percentage."""
    return _key(fp, original, approx, po, "approx_pct", engine,
                [f"direction={int(direction)}"])


def error_key(fp: ConeFingerprinter, original, approx, po: str,
              metric: str, engine: str = "resub") -> str:
    """Content address of one per-PO exact error-metric evaluation."""
    return _key(fp, original, approx, po, "error_metric", engine,
                [f"metric={metric}"])


# ----------------------------------------------------------------------
# The on-disk cache
# ----------------------------------------------------------------------
class ProofCache:
    """JSON proof entries addressed by cone fingerprint.

    Entries live in ``root/<key[:2]>/<key>.json``; writes are atomic
    (temp file + ``os.replace``).  Each entry carries a digest of its
    own canonical payload — a mismatch means corruption, and the entry
    is evicted and treated as a miss.
    """

    def __init__(self, root: "str | Path" = ".lab_cache/proofs"):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @staticmethod
    def _digest(entry: dict) -> str:
        payload = {k: v for k, v in sorted(entry.items())
                   if k != "digest"}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def get(self, key: str) -> dict | None:
        """The cached entry, or None; corrupted entries are evicted."""
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
        except OSError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            self.evict(key)
            self.evictions += 1
            self.misses += 1
            return None
        if not isinstance(entry, dict) \
                or entry.get("schema") != PROOF_SCHEMA \
                or entry.get("digest") != self._digest(entry):
            self.evict(key)
            self.evictions += 1
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: str, entry: dict) -> None:
        """Store an entry atomically (its digest is filled in here).

        The temp name is unique per process *and* thread (warm serve
        workers share one pid across shards in thread mode), and a
        failed write never leaves the temp file behind — concurrent
        readers either see the old complete entry or the new one,
        never a torn JSON document.
        """
        import threading

        doc = dict(entry)
        doc["schema"] = PROOF_SCHEMA
        doc["digest"] = self._digest(doc)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}"
            f".{threading.get_ident():x}.tmp")
        try:
            tmp.write_text(json.dumps(doc, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    def evict(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except OSError:
            pass

    # -- hygiene ---------------------------------------------------------
    def _entries(self) -> list[tuple[Path, int, float]]:
        found = []
        if not self.root.is_dir():
            return found
        for path in self.root.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            found.append((path, stat.st_size, stat.st_mtime))
        return found

    def stats(self) -> dict:
        """On-disk totals plus this process's runtime counters."""
        entries = self._entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    @staticmethod
    def _unlink_if_older(path: Path, scan_start: float) -> bool:
        """Unlink ``path`` unless a writer refreshed it after the scan.

        Prune scans race with concurrent ``put`` writers: the atomic
        ``os.replace`` can land between the directory walk and the
        unlink, and blindly unlinking would then delete the *fresh*
        entry that the scan never judged.  Re-stat right before the
        unlink and spare anything written at or after ``scan_start``;
        an entry already evicted by someone else is simply not ours to
        count.  Returns True when this call removed the entry.
        """
        try:
            if path.stat().st_mtime >= scan_start:
                return False
            path.unlink()
            return True
        except FileNotFoundError:
            return False
        except OSError:
            return False

    def prune(self, max_bytes: int) -> dict:
        """Evict oldest entries (by mtime) until under ``max_bytes``.

        Safe against concurrent writers: entries written after the scan
        started are never deleted, and an entry vanishing mid-scan
        (evicted by a reader, pruned by another process) is tolerated.
        """
        scan_start = time.time()
        entries = sorted(self._entries(), key=lambda e: e[2])
        total = sum(size for _, size, _ in entries)
        removed = 0
        for path, size, mtime in entries:
            if total <= max_bytes:
                break
            if mtime >= scan_start:
                continue
            if not self._unlink_if_older(path, scan_start):
                continue
            total -= size
            removed += 1
        return {"removed": removed, "kept_entries": len(entries) - removed,
                "kept_bytes": total}

    def prune_stale(self) -> dict:
        """Evict stale-format entries (old schema, corrupt, torn).

        ``get`` already evicts lazily on read; this sweeps the whole
        store eagerly so a ``cache prune`` after a schema bump leaves
        only current-format entries behind.  Concurrent writers are
        tolerated: a file that disappears mid-scan is skipped, and an
        entry rewritten after the scan started is never unlinked even
        when the bytes the scan judged looked stale.
        """
        scan_start = time.time()
        removed = 0
        kept = 0
        for path, _, _ in self._entries():
            try:
                entry = json.loads(path.read_text())
                stale = (not isinstance(entry, dict)
                         or entry.get("schema") != PROOF_SCHEMA
                         or entry.get("digest") != self._digest(entry))
            except FileNotFoundError:
                continue               # evicted under us: not ours to count
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                stale = True
            if stale:
                if self._unlink_if_older(path, scan_start):
                    removed += 1
                else:
                    kept += 1
            else:
                kept += 1
        return {"removed_stale": removed, "kept_entries": kept}
