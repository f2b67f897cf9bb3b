"""Antithetic copula sampling and debiased score-function gradient estimators
for categorical random variables."""

__version__ = "0.1.0"
