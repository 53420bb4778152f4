"""Topic-space document indexing and boosted rank fusion.

Subpackages by role: ``corpus`` ingests the classic test collections,
``vsm``/``lsa``/``plsa``/``lda``/``ldi`` are the rankers, ``metrics``
evaluates rankings, ``ensemble`` fuses rankers, ``pipeline`` and ``cli``
tie everything together.
"""

__version__ = "0.1.0"
