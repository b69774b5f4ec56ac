"""Whole-image reference for the block-by-block probe oracle of :mod:`fockdeform.dense`.

The package never holds a full probe image: every consumer reduces block by
block.  The tests assemble one here, to compare images across block budgets
and slot by slot.
"""

import numpy as np

from fockdeform import dense


def probe_image(op, pattern, domain, codomain=None, *, copies=1):
    """op applied to every probe column of ``pattern``: shape (D, P, K), rows in
    union label order, the blocks of :func:`dense.probe_blocks` side by side."""
    blocks = sorted(((first, image) for first, (image,) in
                     dense.probe_blocks((op,), pattern, domain, codomain, copies=copies)),
                    key=lambda block: block[0])
    widths = [image.shape[-1] for _, image in blocks]
    assert [first for first, _ in blocks] == np.cumsum([0] + widths[:-1]).tolist()
    return np.concatenate([image for _, image in blocks], axis=-1)
