"""Border delay pattern analytics: ingest bridge wait times and weather,
encode multi-bridge delay patterns, train Gini decision trees, and render
the reporting artifacts."""

__version__ = "0.1.0"
