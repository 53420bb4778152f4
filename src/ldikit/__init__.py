"""Topic-space document indexing and boosted rank fusion.

Subpackages by role: ``corpus`` ingests the classic test collections,
``vsm``/``lsa``/``plsa``/``lda``/``ldi`` are the rankers, ``metrics``
evaluates rankings, ``ensemble`` fuses rankers, ``pipeline`` and ``cli``
tie everything together.
"""

from .corpus import (Collection, Corpus, ParseError, Query, RawDocument,
                     StopList, TermDocCounts, Vocabulary, build_corpus,
                     build_vocabulary, count_matrix, judged_pairs,
                     load_collection, load_corpus, merge_collections,
                     parse_documents, parse_qrels, parse_queries, save_corpus,
                     smart_stoplist, tokenize)
from .ensemble import (EnsembleWeights, ScoreMatrix, combined_scores,
                       cross_validate, train_ensemble, uniform_weights)
from .lda import LdaModel, LdaTrainResult, train_lda
from .ldi import LdiIndex, build_index, score_ldi, word_topic_matrix
from .lsa import LsiModel, SvdFactors, score_lsi, train_lsi, truncated_svd
from .metrics import (EvalReport, average_precision, evaluate_scores,
                      mean_average_precision, pr_curve, rank_documents)
from .plsa import PlsaModel, score_plsa, train_plsa
from .vsm import TfIdfModel, score_tfidf, train_tfidf

__version__ = "0.1.0"
