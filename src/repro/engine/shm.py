"""Zero-copy CSR transport over POSIX shared memory.

A :class:`SharedCSR` places one CSR matrix's three arrays back-to-back
in a single :class:`multiprocessing.shared_memory.SharedMemory` segment
so campaign worker processes can map the operands instead of receiving
a pickled copy per task (or rebuilding them from generators).  The
attached views are read-only by convention — every consumer in this
repository treats CSR arrays as immutable device buffers.

Ownership is explicit and single-sided: the process that calls
:meth:`SharedCSR.export` owns the segment and must :meth:`unlink` it
exactly once (normally in a ``finally``); attachers only :meth:`close`
their mapping.  On Linux an unlink while workers still hold mappings is
safe — the segment disappears from ``/dev/shm`` immediately and its
memory is reclaimed when the last mapping closes — which is what makes
the owner-side ``finally`` sufficient even when a worker crashes without
cleaning up.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import numpy as np

from ..sparse.csr import CSRMatrix

__all__ = ["SharedCSR", "sweep_segments"]


def sweep_segments(names) -> int:
    """Unlink every named segment that still exists; returns the count.

    The reclaim path for deterministic segment namespaces: the campaign
    runner sweeps the names its plan could have created.  Unlinking
    while attachments exist is safe on Linux (the memory goes with the
    last mapping).
    """
    swept = 0
    for seg in names:
        try:
            stale = shared_memory.SharedMemory(name=seg)
        except FileNotFoundError:
            continue
        stale.unlink()
        stale.close()
        swept += 1
    return swept


class SharedCSR:
    """One CSR matrix in one shared-memory segment."""

    def __init__(self, shm: shared_memory.SharedMemory, meta: dict, *, owner: bool):
        self._shm = shm
        self._meta = meta
        self._owner = owner
        self._unlinked = False

    # -- owner side -----------------------------------------------------

    @classmethod
    def export(cls, matrix: CSRMatrix, *, name: str | None = None) -> "SharedCSR":
        """Copy ``matrix`` into a fresh segment owned by the caller.

        With an explicit ``name`` the caller opts into deterministic
        naming: a stale segment left by a SIGKILLed previous owner (a
        kill takes the whole process group, resource tracker included,
        so nobody survives to unlink) is reclaimed here — the next run
        of the same campaign is the cleanup path.
        """
        row_ptr = np.ascontiguousarray(matrix.row_ptr, dtype=np.int64)
        col_idx = np.ascontiguousarray(matrix.col_idx, dtype=np.int64)
        values = np.ascontiguousarray(matrix.values)
        sizes = (row_ptr.nbytes, col_idx.nbytes, values.nbytes)
        total = max(1, sum(sizes))
        try:
            shm = shared_memory.SharedMemory(
                create=True, size=total, name=name
            )
        except FileExistsError:
            stale = shared_memory.SharedMemory(name=name)
            stale.unlink()
            stale.close()
            shm = shared_memory.SharedMemory(
                create=True, size=total, name=name
            )
        off = 0
        for arr in (row_ptr, col_idx, values):
            if arr.nbytes:
                shm.buf[off : off + arr.nbytes] = arr.tobytes()
            off += arr.nbytes
        meta = {
            "name": shm.name,
            "rows": matrix.rows,
            "cols": matrix.cols,
            "nnz": int(col_idx.shape[0]),
            "value_dtype": values.dtype.str,
            "sizes": sizes,
        }
        from ..obs.trace import trace_note

        trace_note("shm.export", shm.name)  # no-op outside a trace
        return cls(shm, meta, owner=True)

    def meta(self) -> dict:
        """Picklable attachment descriptor."""
        return dict(self._meta)

    # -- attacher side --------------------------------------------------

    @classmethod
    def attach(cls, meta: dict) -> "SharedCSR":
        """Map an exported segment by name (no copy).

        Attaching re-registers the name with the resource tracker, but
        spawn children share the parent's tracker process and its name
        cache is a set — the duplicate is a no-op, and the owner's
        :meth:`unlink` performs the single matching unregister.  (Do
        *not* unregister here: with a shared tracker that would delete
        the owner's registration out from under it.)
        """
        shm = shared_memory.SharedMemory(name=meta["name"])
        from ..obs.trace import trace_note

        trace_note("shm.attach", meta["name"])  # no-op outside a trace
        return cls(shm, dict(meta), owner=False)

    def matrix(self) -> CSRMatrix:
        """A zero-copy :class:`CSRMatrix` over the mapped segment.

        The returned matrix's arrays alias the mapping; keep this
        handle alive for as long as the matrix is in use.
        """
        meta = self._meta
        s_ptr, s_col, s_val = meta["sizes"]
        nnz = meta["nnz"]
        buf = self._shm.buf
        row_ptr = np.frombuffer(buf, dtype=np.int64, count=meta["rows"] + 1)
        col_idx = np.frombuffer(buf, dtype=np.int64, count=nnz, offset=s_ptr)
        values = np.frombuffer(
            buf, dtype=np.dtype(meta["value_dtype"]), count=nnz, offset=s_ptr + s_col
        )
        m = CSRMatrix(
            rows=meta["rows"],
            cols=meta["cols"],
            row_ptr=row_ptr,
            col_idx=col_idx,
            values=values,
        )
        m._validated = True  # exported from an already-validated build
        return m

    # -- lifecycle ------------------------------------------------------

    @property
    def name(self) -> str:
        """Segment name (for tests and diagnostics)."""
        return self._meta["name"]

    def close(self) -> None:
        """Drop this process's mapping (owner and attacher alike).

        When numpy views over the buffer are still alive the mmap
        cannot be closed; the mapping is abandoned instead (reclaimed at
        process exit, which for campaign workers is the normal case) and
        the handle is neutered so ``SharedMemory.__del__`` does not
        retry and print an ignored ``BufferError`` at shutdown.
        """
        try:
            self._shm.close()
        except BufferError:  # views still alive: mapping dies with them
            shm = self._shm
            shm._mmap = None
            if shm._fd >= 0:
                os.close(shm._fd)
                shm._fd = -1

    def unlink(self) -> None:
        """Remove the segment (owner only; idempotent)."""
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def release(self) -> None:
        """Owner teardown: unlink the name, then drop the mapping."""
        self.unlink()
        self.close()
