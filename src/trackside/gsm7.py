"""GSM 03.38 default-alphabet helpers: septet counting for SMS budgets.

Basic-table characters cost one septet; extension-table characters cost
two (escape + code).  A single SMS segment carries 160 septets.
"""

from __future__ import annotations

GSM7_BASIC = (
    "@£$¥èéùìòÇ\nØø\rÅå"
    "Δ_ΦΓΛΩΠΨΣΘΞÆæßÉ"
    " !\"#¤%&'()*+,-./0123456789:;<=>?"
    "¡ABCDEFGHIJKLMNOPQRSTUVWXYZÄÖÑÜ§"
    "¿abcdefghijklmnopqrstuvwxyzäöñüà"
)
GSM7_EXTENDED = "^{}\\[~]|€"

BASIC_CHARS = frozenset(GSM7_BASIC)
EXTENDED_CHARS = frozenset(GSM7_EXTENDED)

SEGMENT_SEPTETS = 160


def septet_length(text: str) -> int:
    """Septets needed to encode ``text``; raises on unencodable characters."""
    total = 0
    for c in text:
        if c in BASIC_CHARS:
            total += 1
        elif c in EXTENDED_CHARS:
            total += 2
        else:
            raise ValueError(f"character {c!r} is not GSM-7 encodable")
    return total


def fits_one_segment(text: str) -> bool:
    return septet_length(text) <= SEGMENT_SEPTETS
