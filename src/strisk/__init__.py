"""Socio-technical breach-risk pipeline.

Resolves organization names across datasets, builds socio-technical
feature vectors, corrects noisy non-victim labels with confident
learning, trains probabilistic classifiers (including a stacked
ensemble), and evaluates with TPR/FPR/AUC/F1/Brier. A synthetic corpus
generator with known latent labels makes every piece verifiable at desk
scale.
"""
from .evaluation import (
    EvaluationReport,
    brier_score,
    evaluate_scores,
    roc_auc,
    split_train_test,
    tpr_fpr_f1_at,
)
from .features import (
    FEATURES,
    SOCIAL_FEATURES,
    TECHNICAL_FEATURES,
    FeatureVector,
    TimeWindow,
    compute_social_features,
    compute_technical_features,
    featurize_corpus,
    parse_window,
    read_features_csv,
    write_features_csv,
)
from .names import (
    CanonicalName,
    MatchCandidate,
    MatchConfig,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    match_names,
    normalize_name,
)
from .noise import (
    ClassThresholds,
    JointMatrix,
    NoiseReport,
    TransitionEstimate,
    confident_joint,
    confusion_matrix_at_half,
    discover_noisy_negatives,
    flip_labels,
    noise_detection_experiment,
    noise_transition_matrix,
    out_of_sample_probabilities,
    self_confidence_thresholds,
)
from .records import (
    IncidentRecord,
    ObservationRecord,
    OrganizationRecord,
    RecordError,
    TweetRecord,
)
from .synth import GeneratorConfig, generate_corpus, inject_label_noise, write_corpus
from .text import (
    SentimentBucket,
    bucket_sentiment,
    clean_tweet_text,
    default_polarity,
)

__version__ = "0.1.0"
