"""Evaluation metrics for continual FL (paper Section 6, "Metrics Captured").

* **Accuracy Drop** — decline from the pre-shift accuracy (the last
  evaluation of the previous window) to the first evaluation after the
  shift, before any adaptation rounds.
* **Recovery Time** — training rounds until accuracy regains 95 % of the
  pre-shift level (``None`` when it never does within the window — rendered
  as ``> R``).
* **Max Accuracy** — best accuracy reached inside the window.
"""
