"""Border delay pattern analytics: ingest bridge wait times and weather,
encode multi-bridge delay patterns, train Gini decision trees, and render
the reporting artifacts."""

from .cart import (
    ClassDistribution,
    DecisionTree,
    Leaf,
    Split,
    SplitCandidate,
    SubsetRule,
    ThresholdRule,
    TrainConfig,
    TrainingSet,
    best_split,
    enumerate_splits,
    gini,
    grow_tree,
    information_gain,
    internal_features,
    predict,
)
from .errors import DataError, UsageError
from .features import (
    FEATURE_SCHEMA,
    FeatureSchema,
    FeatureSpec,
    FeatureVector,
    calendar_flags,
    hour_interval_of,
    parse_holidays,
    season_of,
)
from .ingest import (
    Bridge,
    Condition,
    Direction,
    HourlyWait,
    RawWaitTimeRecord,
    Vehicle,
    WeatherRecord,
    aggregate_hourly,
    hourly_waits,
    join_weather,
    parse_wait_times,
    parse_weather,
)
from .patterns import (
    COMBOS,
    DelayCategory4,
    PatternDataset,
    all_patterns,
    assemble_rows,
    categorize,
    pattern_frequencies,
    pattern_of,
)
from .report import export_tree, factor_summary, hourly_distribution, import_tree
from .synth import PlantedRule, SynthConfig, generate

__version__ = "0.1.0"
