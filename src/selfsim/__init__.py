"""Numerical exploration of homogeneous self-similar measures.

Certified dyadic histograms, L^q and entropy dimension estimation,
Fourier transform evaluation with decay fitting, projection and
convolution and digit-split constructions, and exceptional-parameter
scanning, with a CSV-emitting command line on top.
"""

from .dimension import (AcDecision, DimEstimate, MomentTable, SubmultReport,
                        ac_predicate, build_moment_table,
                        check_submultiplicativity, closed_form_Dq,
                        estimate_D1, estimate_Dq, table_from_histograms)
from .ekscan import (EkCountReport, EkReport, EkSpec, ek_badness,
                     ek_count_sequences, ek_sweep)
from .errors import (BudgetError, PrecisionError, SelfsimError, SpecError,
                     UsageError)
from .fourier import FourierProfile, decay_fit, ft_eval
from .histogram import (DyadicHistogram, dyadic_depth, entropy_sum, histogram,
                        moment_sums)
from .ifs import (WORD_BUDGET, HomogeneousIfs, SeparationCertificate,
                  Similarity, check_strong_separation, check_weights,
                  cylinder_words, entropy, ifs_from_json, similarity_dimension,
                  uniform_weights, unrank_word)
from .transforms import (ConvolvedMeasure, ProjectedMeasure,
                         SelfSimilarMeasure, convolve_hist, histogram_project,
                         load_measure_spec, product_ifs, project_ifs,
                         project_measure, resolve_spec, skip_keep_measure)

__version__ = "0.1.0"
