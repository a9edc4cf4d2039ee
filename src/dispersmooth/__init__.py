"""Pseudo-spectral toolkit for coupled Schrodinger-wave systems on periodic boxes.

Subpackages cover: spectral primitives (`spectral`), exact-propagator time
integration of the transformed Klein-Gordon-Schrodinger and Zakharov systems
(`evolution`), nonlinear-smoothing diagnostics and the sharpness counterexample
(`smoothing`), the high-low frequency globalization scheme (`highlow`), the
damped/forced system with its energy identities (`dissipative`), resonance
geometry and bilinear-constant studies (`resonance`), and configuration /
reporting / CLI plumbing (`config`, `reporting`, `cli`).
"""

__version__ = "0.1.0"
