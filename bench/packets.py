"""Per-packet bit error counts, recorded from inside a sweep.

``PointResult`` gives a point's totals only.  The BER band wants the error
count of each packet, so :class:`PacketRecorder` pairs the bits the harness
sends with the bits its receiver decides: it wraps ``modulate`` and
``encode_packet`` (which take a packet's info bits) and ``demap_hard`` and
``turbo_receive`` (which give back the decided bits) where ``mbdf.harness``
calls them.  Should the harness stop calling these once per packet, the
counts no longer add up to the point totals and :func:`split_by_point`
returns None, so the checks fall back to the totals.
"""

from __future__ import annotations

import numpy as np

from tracer import restore


class PacketRecorder:
    """Error count of each packet, in the order the sweep ran them."""

    def __init__(self):
        self.errors: list = []
        self._sent = None
        self._undo: list = []

    def install(self) -> None:
        from mbdf import harness

        # the wrappers only look: whatever the harness passes, the call goes on
        def sending(fn):
            def wrapped(*args, **kwargs):
                self._sent = args[0] if args else None
                return fn(*args, **kwargs)

            return wrapped

        def deciding(fn, bits_of):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._decided(bits_of(out))
                return out

            return wrapped

        wrappers = {
            "modulate": sending,
            "encode_packet": sending,
            "demap_hard": lambda fn: deciding(fn, lambda bits: bits),
            "turbo_receive": lambda fn: deciding(
                fn, lambda res: getattr(res, "info_bits", None)
            ),
        }
        for name, wrap in wrappers.items():
            original = getattr(harness, name, None)
            if original is None:
                continue
            setattr(harness, name, wrap(original))
            self._undo.append((harness, name, original))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _decided(self, bits) -> None:
        sent, self._sent = self._sent, None
        if sent is None or bits is None or np.shape(sent) != np.shape(bits):
            self.errors.append(None)
        else:
            self.errors.append(int(np.count_nonzero(np.asarray(bits) != sent)))


def split_by_point(errors: list, points: list) -> list | None:
    """Per-point lists of packet error counts, or None if they do not add up.

    ``points`` are the sweep's point records; each point's packets must number
    its ``frames``, sum to its ``bit_errors`` and have ``frame_errors``
    nonzero entries.
    """
    if None in errors or len(errors) != sum(p["frames"] for p in points):
        return None
    out, start = [], 0
    for p in points:
        counts = errors[start:start + p["frames"]]
        start += p["frames"]
        if (sum(counts) != p["bit_errors"]
                or sum(c > 0 for c in counts) != p["frame_errors"]):
            return None
        out.append(counts)
    return out
