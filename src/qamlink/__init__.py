"""qamlink: link-budget analysis and complex-baseband Monte-Carlo simulation
of a 1 Gbps / 256-QAM / 5 GHz wireless link."""

__version__ = "0.1.0"
