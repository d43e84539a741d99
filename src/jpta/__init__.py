"""Joint phase-time array beamforming: design and system evaluation.

A uniform linear array whose analog front end combines per-antenna phase
shifters with per-antenna true-time-delay elements can realize beams whose
pointing direction varies across a wide band. This package provides

* ``antenna`` — array geometry, frequency grids, phase-plus-delay weights
  and their frequency-dependent gains, every one from the pattern kernel;
* ``codebook`` — weight designers: a subband-target least-squares fit, a
  closed-form frequency-swept ("rainbow") beam, conventional single-angle
  steering codebooks and CSV import/export;
* ``link`` — uplink budget, effective-SNR link abstraction and rate
  selection over an MCS ladder;
* ``sysim`` — multi-user uplink comparison of frequency-multiplexed
  phase-time beams against time-multiplexed single beams over a ring
  deployment, with coverage metrics and CSV reports;
* ``config``/``cli`` — flat text run configuration and the ``jpta``
  command line tool.

Angled quantities at the API surface use axis coordinates (radians in
[0, pi], boresight at pi/2); configuration files and the CLI use
boresight-relative degrees in [-90, 90].

The package exports its modules, not their names: import each name from
the module that defines it (``from jpta.link import select_rate_grid``).
"""

__version__ = "0.1.0"
