"""The per-gid group-key decoder, kept as the reference that
:func:`repro.core.packed.from_group_ids` (a kernel's group ids packed
straight into a cuboid) is tested against.

It decodes one group id at a time by reversed mixed-radix ``divmod``:
one digit per kept axis, least significant (last) axis first, then the
digits reversed into key order.  A digit beyond the dictionary — the
Sec. 3.5 null slot of augmented keys — decodes to ``None``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

KeptAxis = Tuple[Tuple[str, ...], int]
DecodedKey = Tuple[Optional[str], ...]


def make_group_decoder(
    kept: Sequence[KeptAxis],
) -> Callable[[int], DecodedKey]:
    """Group id -> group key, one id per call."""
    reversed_kept = list(reversed(kept))

    def decode(gid: int) -> DecodedKey:
        parts: List[Optional[str]] = []
        remaining = gid
        for dictionary, radix in reversed_kept:
            remaining, code = divmod(remaining, radix)
            parts.append(
                dictionary[code] if code < len(dictionary) else None
            )
        parts.reverse()
        return tuple(parts)

    return decode
