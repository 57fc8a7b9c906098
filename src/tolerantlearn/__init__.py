"""Online and differentially private learning over explicit finite classes.

The package computes tolerant Littlestone, fat-shattering and Pollard
dimensions with certificates, plays the tolerant optimal online algorithm
and its forcing adversary, extracts threshold families from shattered
trees, builds a globally-stable learner from tournament sampling, and
composes it with a stable histogram and exponential selection into a
differentially private learner.
"""

from .classes import (AbsoluteLoss, FiniteDistribution, HypothesisClass,
                      RealFunctionClass, TolerantZeroOne, absolute_loss,
                      discretize, evaluate_loss, integer_sample,
                      label_to_midpoint, tolerant_loss, value_to_label)
from .dimensions import (DimensionReport, fat_gamma, ldim_brute_force,
                         ldim_tau, ldim_value, log_star, pdim, twr,
                         verify_report)
from .online import (ConstantLearner, MajorityLearner, OnlineTranscript,
                     SoaLearner, adversary_force, soa_final_predictor,
                     soa_run)
from .privacy import (HistogramOutput, PipelineResult, PrivacyLedger,
                      PrivacyParams, check_conditions, covering_number,
                      generic_private_learner, private_learn_mc,
                      private_learn_reg, release_probability,
                      selection_probabilities, selection_sample_size,
                      stable_histogram, stability_eta)
from .stability import (DataSource, GRunResult, GsEstimate, Support,
                        TournamentSample, estimate_stability, g_parameters,
                        run_g, sample_dk_mc)
from .thresholds import (ThresholdFamily, color_and_choose,
                         extract_thresholds_mc, extract_thresholds_reg,
                         max_mono_subtree, verify_thresholds)
from .trees import (MistakeTree, check_mc_tree, check_real_tree,
                    complete_binary_certificate, threshold_class_certificate)

__version__ = "0.1.0"
